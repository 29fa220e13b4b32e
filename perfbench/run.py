#!/usr/bin/env python3
"""The repository benchmark: one command per workload, seeded, self-checking.

    python3 perfbench/run.py --workload trng_quac --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. On first use it builds the C++ meter
(perfbench/meter) together with the repository's libraries and daemons
into .bench_build/. Workloads are described in perfbench/README.md.

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it is the separate traced run: it times the layers from
outside (the meter's probes, the daemon's /varz request timelines and
/metrics counters) and reports the per-layer metrics instead.

Human-readable lines go first, then one line "# stamp {...}" with the
host and build configuration. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. Every run also writes the
full report, spans included, to .bench_out/. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.dont_write_bytecode = True  # leave nothing but .bench_* behind
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
METER = os.path.join(BUILD, "perfbench_meter")
TOOLS = os.path.join(BUILD, "fracdram", "tools")

WORKLOADS = ("trng_quac", "puf_study", "serve_mix")
#: The seed the benchmark is tuned on, and a held-out seed that a claim
#: made on the default seed must also hold on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

END_TO_END_UNITS = {
    "setup_s": "s",
    "bits_per_s": "bit/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

#: serve_mix daemon shape. One shard has 64 resident device slots, fewer
#: than the devices the open loop addresses, so the registry evicts and
#: refaults. The load shape (rates, keys, connections) is in
#: perfbench/meter/loadgen.cc.
SERVE_DAEMON_ARGS = ["--shards", "1", "--reactors", "1", "--no-pin"]
#: serve_mix set-ups before and after the measured stack; setup_s is the
#: median of these and the measured stack's own.
SERVE_SETUPS_BEFORE = 4
SERVE_SETUPS_AFTER = 4
#: trng_quac noise check: share of raw-sample bits that flip from one
#: raw sample to the next. The conditioning assumes 4 bits of entropy
#: per 2048-bit raw sample; below 1% (about 20 bits) the array has lost
#: most of its noise, and at 50% or more it is no longer DRAM noise.
FLIP_SHARE_BAND = (0.01, 0.5)
#: Share of --seconds spent in the open loop; the rest is closed loop.
SERVE_OPEN_SHARE = 0.6
#: Open-loop length of the serve pass in a batch workload's traced run.
TRACE_SERVE_OPEN_S = 1.8


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------- build --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("repository sources not found next to perfbench/; "
                         "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "perfbench-build.log"), "a") as out:
        # Configure every time (cheap once cached): a build tree made from
        # other sources may not know the target yet.
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "-j", str(nproc()),
                  "--target", "perfbench_meter"]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed: %s (log: %s)"
                                 % (" ".join(cmd), out.name))


def meter(*args, timeout=170):
    """Run one meter subcommand and return its JSON output. The parallel
    engine gets `nproc` threads unless FRACDRAM_THREADS says otherwise
    (hardware_concurrency can exceed the CPUs a container may use)."""
    cmd = [METER] + [str(a) for a in args]
    env = dict(os.environ)
    env.setdefault("FRACDRAM_THREADS", str(nproc()))
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            " ".join(cmd[:2]), proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stamp():
    s = meter("stamp")
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except OSError:
            pass
    s["commit"] = commit
    s["source_sha256"] = source_digest()
    s["FRACDRAM_THREADS"] = os.environ.get("FRACDRAM_THREADS")
    return s


# ------------------------------------------------------------- batch -----

def batch_metrics(d):
    """End-to-end metrics of a batch run. Rates are total work over total
    time, not a median over units: the host switches between speed states
    within a run, and a median jumps between them where a mean does not."""
    units = len(d["unit_wall_s"])
    return {
        "setup_s": stats.median(d["setup_s"]),
        "bits_per_s": d["unit_bits"] * units / sum(d["unit_wall_s"]),
        "cpu_s": sum(d["unit_cpu_s"]) / units,
        "peak_rss_mib": d["peak_rss_mib"],
    }


def trng_quac(seed, seconds):
    d = meter("trng", "--seed", seed, "--seconds", seconds)
    blocks = d["block_us_B"] + d["block_us_M"]
    metrics = batch_metrics(d)
    log("trng_quac: %d lanes, %d units of %d bits (1 KiB per module, "
        "groups B and M), %d generate() calls of 256 bits, %d raw samples"
        % (d["lanes"], len(d["unit_wall_s"]), d["unit_bits"], d["blocks"],
           d["raw_samples"]))
    log("trng_quac: block latency p50 %.0f us, p99 %.0f us (n=%d, %d beyond)"
        % (stats.median(blocks), stats.percentile(blocks, 99),
           len(blocks), stats.samples_beyond(len(blocks), 99)))
    log("trng_quac: NIST subset on %d bits per module: %s" % (
        d["check_bits"], "PASS" if not d["nist_failed"]
        else "FAILED " + ", ".join(d["nist_failed"])))
    lo, hi = FLIP_SHARE_BAND
    log("trng_quac: raw-sample bit flip share %.4f to %.4f over %d "
        "modules (band [%g, %g))"
        % ((min(d["raw_flip_share"]), max(d["raw_flip_share"]),
            len(d["raw_flip_share"])) + FLIP_SHARE_BAND))
    checks = {"nist_subset": not d["nist_failed"],
              "raw_flip_share_in_band": all(
                  lo <= x < hi for x in d["raw_flip_share"])}
    return checks, d["blocks"], 0, metrics, d


def puf_study(seed, seconds):
    d = meter("puf", "--seed", seed, "--seconds", seconds)
    metrics = batch_metrics(d)
    log("puf_study: %d Fig. 11 studies (120 challenges, 10 Fracs, 2 modules"
        " per Frac-capable group) at %d threads, %d evaluations; median "
        "study %.3f s" % (d["studies"], d["threads"], d["evaluations"],
                          stats.median(d["unit_wall_s"])))
    log("puf_study: max intra-HD %.4f < min inter-HD %.4f: %s" % (
        d["max_intra_hd"], d["min_inter_hd"],
        "PASS" if d["separated"] else "FAIL"))
    checks = {"max_intra_hd_below_min_inter_hd": d["separated"]}
    return checks, d["evaluations"], 0, metrics, d


# ------------------------------------------------------------- serve -----

def _die_with_parent():
    """In a spawned daemon: get SIGTERM if this benchmark process dies,
    so a killed run leaves no daemon behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Stack:
    """One fracdram_serve with one fracdram_router in front of it."""

    def __init__(self, workdir, trace_ring=None):
        self.procs = []
        self.dir = tempfile.mkdtemp(prefix="stack-", dir=workdir)
        extra = ["--trace-ring", str(trace_ring)] if trace_ring else []
        try:
            self.daemon, (self.port, self.metrics_port) = self._spawn(
                "fracdram_serve", SERVE_DAEMON_ARGS + extra)
            self.router, (self.router_port, self.router_metrics_port) = \
                self._spawn("fracdram_router",
                            ["--backend", "127.0.0.1:%d" % self.port])
        except BaseException:
            self.stop()
            raise

    def _spawn(self, tool, args):
        files = [os.path.join(self.dir, "%s.%s" % (tool, k))
                 for k in ("port", "metrics_port")]
        cmd = [os.path.join(TOOLS, tool), "--port", "0", "--port-file",
               files[0], "--metrics-port", "0", "--metrics-port-file",
               files[1], "--quiet"] + args
        with open(os.path.join(self.dir, tool + ".log"), "w") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=ROOT,
                                    preexec_fn=_die_with_parent)
        self.procs.append(proc)
        deadline = time.monotonic() + 30
        ports = []
        for f in files:
            while not (os.path.exists(f) and open(f).read().strip()):
                if proc.poll() is not None or time.monotonic() > deadline:
                    with open(os.path.join(self.dir, tool + ".log")) as lf:
                        raise BenchError("%s did not start: %s"
                                         % (tool, lf.read()[-1000:]))
                time.sleep(0.0005)
            ports.append(int(open(f).read()))
        return proc, ports

    def cpu_s(self, proc):
        """CPU seconds of every live thread of @proc, ns resolution
        (/proc/<pid>/task/*/schedstat: time on CPU first)."""
        total = 0
        tasks = "/proc/%d/task" % proc.pid
        for tid in os.listdir(tasks):
            try:
                with open(os.path.join(tasks, tid, "schedstat")) as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                pass  # thread exited between listdir and open
        return total / 1e9

    def peak_rss_mib(self, proc):
        with open("/proc/%d/status" % proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for pid %d" % proc.pid)

    def varz(self, trace=0):
        url = "http://127.0.0.1:%d/varz" % self.metrics_port
        if trace:
            url += "?trace=%d" % trace
        return json.loads(urllib.request.urlopen(url, timeout=30).read())

    def router_counter(self, name):
        url = "http://127.0.0.1:%d/metrics" % self.router_metrics_port
        text = urllib.request.urlopen(url, timeout=30).read().decode()
        key = "fracdram_router_%s_total" % name
        for line in text.splitlines():
            if line.startswith(key + " "):
                return float(line.split()[1])
        raise BenchError("router metric %s missing" % key)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def start_stack(seed, trace_ring=None):
    """Spawn daemon and router and enroll the PUF keys through the router.
    Returns (stack, seconds from spawn to enrolled, all keys enrolled)."""
    os.makedirs(OUT, exist_ok=True)
    t0 = time.perf_counter()
    stack = Stack(OUT, trace_ring)
    try:
        enrolled = meter("enroll", "--seed", seed, "--router-port",
                          stack.router_port)
    except BaseException:
        stack.stop()
        raise
    return (stack, time.perf_counter() - t0,
            enrolled["enrolled"] == enrolled["keys"])


def load(stack, phase, seed, seconds, traced=False):
    """One serve_mix load phase of the meter against @stack."""
    return meter("serve", "--phase", phase, "--seed", seed,
                  "--daemon-port", stack.port,
                  "--router-port", stack.router_port,
                  "--seconds", seconds, "--traced", int(traced))


def summarize_open(o):
    """Per class: latencies, lateness, counts, from the raw stamps."""
    out = {}
    for name, c in o["classes"].items():
        lat, late, missed = stats.open_loop(c["due_ns"], c["sent_ns"],
                                            c["ok_ns"])
        out[name] = {"latency_us": lat, "late_us": late, "missed": missed,
                     "planned": c["planned"], "sent": c["sent"],
                     "ok": c["ok"],
                     "failed": c["failed"], "capability": c["capability"],
                     "worst_hamming": c["worst_hamming"],
                     "first_error": c["first_error"]}
    return out


def open_checks(classes):
    """Every open-loop reply must be OK. A device request may instead
    get a typed CAPABILITY refusal, but never a timeout or an error."""
    checks = {}
    for name, c in classes.items():
        refused = c["capability"] if name == "fleet" else 0
        checks[name + "_replies_ok"] = (
            c["failed"] == 0 and c["ok"] + refused == c["planned"])
    return checks


def report_open(classes):
    for name, c in classes.items():
        lat = c["latency_us"]
        log("serve_mix open loop %-6s: planned %d sent %d ok %d failed %d "
            "capability %d; p50 %.1f us p99 %.1f us (n=%d, %d beyond p99);"
            " generator late p99 %.1f us"
            % (name, c["planned"], c["sent"], c["ok"], c["failed"],
               c["capability"],
               stats.percentile(lat, 50, c["missed"]),
               stats.percentile(lat, 99, c["missed"]),
               len(lat) + c["missed"],
               stats.samples_beyond(len(lat) + c["missed"], 99),
               stats.percentile(c["late_us"], 99)))


def timed_setup(seed):
    """One set-up that is thrown away; returns its seconds."""
    stack, setup, _ = start_stack(seed)
    stack.stop()
    return setup


def serve_mix(seed, seconds):
    setups = [timed_setup(seed) for _ in range(SERVE_SETUPS_BEFORE)]
    stack, setup, enrolled = start_stack(seed)
    setups.append(setup)
    try:
        open_s = seconds * SERVE_OPEN_SHARE
        cpu0 = stack.cpu_s(stack.daemon) + stack.cpu_s(stack.router)
        raw_open = load(stack, "open", seed, open_s)
        cpu1 = stack.cpu_s(stack.daemon) + stack.cpu_s(stack.router)
        closed = load(stack, "closed", seed, seconds - open_s)
        closed_cpu = (stack.cpu_s(stack.daemon) + stack.cpu_s(stack.router)
                      - cpu1)
        rss = (stack.peak_rss_mib(stack.daemon)
               + stack.peak_rss_mib(stack.router))
    finally:
        stack.stop()
    setups += [timed_setup(seed) for _ in range(SERVE_SETUPS_AFTER)]
    classes = summarize_open(raw_open)
    # The first slice pair drains the DRBG pools the idle open loop
    # left full; capacity is the median of the remaining slices.
    direct_rps = stats.median(closed["direct_rps"][1:])
    routed_rps = stats.median(closed["routed_rps"][1:])
    metrics = {
        "setup_s": stats.median(setups),
        # Entropy the stack delivers at full load per second of its own
        # CPU: every OK closed-loop reply, direct and routed, over the
        # daemon's and router's CPU seconds in the closed phase. Wall
        # capacity (direct_rps, routed_rps) follows the host's load and
        # is reported ungated.
        "bits_per_s": closed["ok"] * 8192 / closed_cpu,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mib": rss,
    }
    report_open(classes)
    extra = {}
    for name in ("direct", "routed"):
        c = classes[name]
        extra[name + "_p50_us"] = stats.percentile(c["latency_us"], 50,
                                                   c["missed"])
        extra[name + "_p99_us"] = stats.percentile(c["latency_us"], 99,
                                                   c["missed"])
    for name in ("fleet", "puf"):
        c = classes[name]
        extra[name + "_p99_us"] = stats.percentile(c["latency_us"], 99,
                                                   c["missed"])
    extra["direct_rps"] = direct_rps
    extra["routed_rps"] = routed_rps
    log("serve_mix closed loop (%d conns x window %d, 1 KiB): %d OK in "
        "%.2f s on %.2f daemon+router CPU s; median of %d slices of %.2f s "
        "after a warm-up pair: direct %.0f req/s, routed %.0f req/s; "
        "failed %d"
        % (closed["conns"], closed["window"], closed["ok"],
           closed["wall_s"], closed_cpu, len(closed["direct_rps"]) - 1,
           closed["slice_s"], direct_rps, routed_rps, closed["failed"]))
    for k, v in extra.items():
        log("serve_mix %s = %.1f %s" % (k, v,
                                        "req/s" if k.endswith("rps") else "us"))
    checks = open_checks(classes)
    checks["puf_keys_enrolled"] = enrolled
    checks["closed_loop_ok"] = closed["failed"] == 0
    attempted = (sum(c["planned"] for c in classes.values())
                 + closed["ok"] + closed["failed"])
    failed = (sum(c["missed"] for c in classes.values())
              + closed["failed"])
    return checks, attempted, failed, metrics, {
        "open": {k: {kk: vv for kk, vv in v.items()
                     if kk not in ("latency_us", "late_us")}
                 for k, v in classes.items()},
        "closed": closed, "closed_cpu_s": closed_cpu,
        "serve_metrics": extra, "setups_s": setups}


def _stage_us(rows, key):
    vals = [r[key] / 1e3 for r in rows]
    return stats.median(vals) if vals else float("nan")


def serve_layers(seed, open_s, full):
    """Traced serve_mix pass: request-id-tagged open loop, the daemon's
    per-request stage stamps joined by id, and counter deltas. The full
    pass (on serve_mix) also measures the tracing overhead and checks
    that the registry evicted and refaulted devices."""
    stack, _, enrolled = start_stack(seed, trace_ring=1 << 16)
    try:
        v0 = stack.varz()
        steered0 = stack.router_counter("steered")
        cpu_d0, cpu_r0 = stack.cpu_s(stack.daemon), stack.cpu_s(stack.router)
        raw_open = load(stack, "open", seed, open_s, traced=True)
        cpu_d = stack.cpu_s(stack.daemon) - cpu_d0
        cpu_r = stack.cpu_s(stack.router) - cpu_r0
        planned = sum(c["planned"] for c in raw_open["classes"].values())
        v1 = stack.varz(trace=planned)
        steered = stack.router_counter("steered") - steered0
        ovh = load(stack, "overhead", seed, 2.0) if full else None
    finally:
        stack.stop()
    classes = summarize_open(raw_open)
    c0, c1 = v0["metrics"]["counters"], v1["metrics"]["counters"]
    h0 = v0["metrics"].get("histograms", {})
    h1 = v1["metrics"].get("histograms", {})

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    def hist_mean_us(name):
        a, b = h0.get(name, {}), h1.get(name, {})
        n = b.get("count", 0) - a.get("count", 0)
        s = b.get("sum", 0) - a.get("sum", 0)
        return s / n / 1e3 if n else float("nan")

    # Join the daemon's timelines to the open loop by request id (class
    # id in the top byte). Pool hits stamp enqueue = dequeue = generate,
    # so they only have parse and write stages; they are taken from the
    # direct class. Shard-served requests are every traced request that
    # queued for a shard: pool misses, device entropy and PUF verifies.
    ours = [r for r in v1.get("requests", []) if 1 <= r["id"] >> 56 <= 4]
    pool = [r for r in ours if r["id"] >> 56 == 1
            and r["type"] == "GET_ENTROPY"
            and r["queue_wait_ns"] == 0 and r["generate_ns"] == 0]
    shard = [r for r in ours
             if r["queue_wait_ns"] > 0 or r["generate_ns"] > 0]
    anon = classes["direct"]["ok"] + classes["routed"]["ok"]
    # Faults beyond the devices the schedule touches first rebuild a
    # device the registry had evicted.
    refaults = (delta("service.device_faults")
                - raw_open["first_touch_devices"])
    device_reqs = classes["fleet"]["planned"] + classes["puf"]["planned"]
    daemon_reqs = sum(c["planned"] for c in classes.values())
    routed_reqs = daemon_reqs - classes["direct"]["planned"]
    late = [x for c in classes.values() for x in c["late_us"]]
    m = {
        "service.stage.parse_us.pool_hit": _stage_us(pool, "parse_ns"),
        "service.stage.write_us.pool_hit": _stage_us(pool, "write_ns"),
        "service.stage.parse_us.shard": _stage_us(shard, "parse_ns"),
        "service.stage.queue_wait_us.shard": _stage_us(shard,
                                                       "queue_wait_ns"),
        "service.stage.generate_us.shard": _stage_us(shard, "generate_ns"),
        "service.stage.write_us.shard": _stage_us(shard, "write_ns"),
        "service.pool_hit_ratio": delta("service.pool_hits") / anon,
        "service.pool_refill_us": hist_mean_us("service.pool_refill_ns"),
        "service.reseed_us": hist_mean_us("service.reseed_ns"),
        "service.device_faults_per_kreq":
            delta("service.device_faults") * 1e3 / device_reqs,
        "service.device_evictions_per_kreq":
            delta("service.device_evictions") * 1e3 / device_reqs,
        "service.device_refaults_per_kreq": refaults * 1e3 / device_reqs,
        "router.hop_us": stats.median(classes["routed"]["latency_us"])
        - stats.median(classes["direct"]["latency_us"]),
        "router.steered_per_kreq": steered * 1e3
        / classes["fleet"]["planned"],
        "daemon.cpu_us_per_req": cpu_d * 1e6 / daemon_reqs,
        "router.cpu_us_per_req": cpu_r * 1e6 / routed_reqs,
        "loadgen.late_us_p99": stats.percentile(late, 99),
    }
    if ovh:
        m["trace.overhead_pct"] = (stats.median(ovh["untraced_rps"])
                                   / stats.median(ovh["traced_rps"])
                                   - 1.0) * 100.0
    log("serve_mix traced: %d daemon timelines joined (%d direct pool "
        "hits, %d shard-served)" % (len(ours), len(pool), len(shard)))
    log("serve_mix traced: %d device evictions, %d refaults; %d PUF "
        "verifies planned after their key's eviction, all verified: %s"
        % (delta("service.device_evictions"), refaults,
           raw_open["puf_after_eviction_planned"],
           classes["puf"]["ok"] == classes["puf"]["planned"]))
    checks = open_checks(classes)
    checks["puf_keys_enrolled"] = enrolled
    checks["timelines_joined"] = len(pool) > 0 and len(shard) > 0
    if full:
        checks["registry_evicts_and_refaults"] = (
            delta("service.device_evictions") > 0 and refaults > 0
            and raw_open["puf_after_eviction_planned"] > 0)
    return {"metrics": m, "checks": checks,
            "attempted": daemon_reqs,
            "failed": sum(c["missed"] for c in classes.values()),
            "raw": {"overhead": ovh, "timelines": len(ours),
                    "pool_hit_timelines": len(pool),
                    "shard_timelines": len(shard)}}


def traced_run(workload, seed, seconds):
    """The separate traced run: the meter's in-process layer probes plus
    a traced serve_mix pass, so every workload reports every layer. The
    serve pass runs at full length only on serve_mix."""
    probes = meter("probes", "--seed", seed, "--workload", workload)
    on_serve = workload == "serve_mix"
    serve = serve_layers(
        seed, seconds * SERVE_OPEN_SHARE if on_serve else TRACE_SERVE_OPEN_S,
        full=on_serve)
    per_layer = dict(probes["metrics"])
    per_layer.update(serve["metrics"])
    if not on_serve:
        off, on = probes["overhead_off_ns"], probes["overhead_on_ns"]
        per_layer["trace.overhead_pct"] = (
            stats.median(on) / stats.median(off) - 1.0) * 100.0
    checks = dict(probes["checks"])
    checks.update(serve["checks"])
    return checks, serve["attempted"], serve["failed"], per_layer, {
        "probes": probes, "serve": serve["raw"],
        "self_ns": stats.self_times(probes["spans"])}


# -------------------------------------------------------------- main -----

#: Per-layer metrics of the traced run, with units. Every traced run
#: reports all of them: the batch layers from the meter's probes, the
#: service and router layers from a traced serve_mix pass.
PER_LAYER_UNITS = {
    "common.rng.skip_ns_per_draw": "ns",
    "common.rng.fill_ns_per_draw": "ns",
    "common.sha256_update_us": "us",
    "softmc.fill_row_us": "us",
    "softmc.host_ns_per_cycle": "ns",
    "softmc.host_ns_per_cmd": "ns",
    "softmc.cmds": "count",
    "core.multi_row_activate_us": "us",
    "trng.raw_sample_us": "us",
    "trng.sim_cycles_per_bit": "count",
    "trng.raw_samples": "count",
    "sim.sense_flips": "count",
    "sim.chip_setup_ms": "ms",
    "puf.evaluate_us": "us",
    "puf.hamming_us": "us",
    "puf.evaluations": "count",
    "puf.nist.frequency_ms": "ms",
    "puf.nist.block_frequency_ms": "ms",
    "puf.nist.runs_ms": "ms",
    "puf.nist.longest_run_ms": "ms",
    "puf.nist.cumulative_sums_ms": "ms",
    "puf.nist.approximate_entropy_ms": "ms",
    "puf.nist.serial_ms": "ms",
    "parallel.efficiency": "ratio",
    "parallel.queue_wait_ms": "ms",
    "service.stage.parse_us.pool_hit": "us",
    "service.stage.write_us.pool_hit": "us",
    "service.stage.parse_us.shard": "us",
    "service.stage.queue_wait_us.shard": "us",
    "service.stage.generate_us.shard": "us",
    "service.stage.write_us.shard": "us",
    "service.pool_hit_ratio": "ratio",
    "service.pool_refill_us": "us",
    "service.reseed_us": "us",
    "service.device_faults_per_kreq": "1/kreq",
    "service.device_evictions_per_kreq": "1/kreq",
    "service.device_refaults_per_kreq": "1/kreq",
    "service.proto.encode_ns": "ns",
    "service.proto.decode_ns": "ns",
    "router.hop_us": "us",
    "router.steered_per_kreq": "1/kreq",
    "daemon.cpu_us_per_req": "us",
    "router.cpu_us_per_req": "us",
    "loadgen.late_us_p99": "us",
    "trace.overhead_pct": "%",
}


def run_workload(workload, seed, seconds, trace):
    """Returns (checks, attempted, failed, metrics, raw report)."""
    if trace:
        return traced_run(workload, seed, seconds)
    return {"trng_quac": trng_quac, "puf_study": puf_study,
            "serve_mix": serve_mix}[workload](seed, seconds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args(argv)
    try:
        build()
        if args.selftest:
            import unittest
            suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
            ok = unittest.TextTestRunner(verbosity=2).run(suite)
            return 0 if ok.wasSuccessful() else 1
        if not args.workload:
            ap.error("--workload is required")
        st = stamp()
        checks, attempted, failed, metrics, raw = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    correct = all(checks.values())
    log("operations: attempted %d, succeeded %d, failed %d"
        % (attempted, attempted - failed, failed))
    for name, passed in sorted(checks.items()):
        log("check %-28s %s" % (name, "PASS" if passed else "FAIL"))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    bad = [k for k in units
           if not isinstance(metrics.get(k), (int, float))
           or not math.isfinite(metrics[k])]
    if bad:
        print("perfbench: no finite value for %s" % ", ".join(bad),
              file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in sorted(units)},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"stamp": st, "seconds": args.seconds, "checks": checks,
                   "result": result, "raw": raw}, f, indent=1)
    log("# stamp " + json.dumps(st, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
