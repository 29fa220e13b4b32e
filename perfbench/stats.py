"""Arithmetic of the repository benchmark, kept apart so it is unit-tested.

Latencies are exact samples, never histogram buckets. A request that
failed or was refused has no latency; it counts as missing every limit,
so percentiles treat it as slower than any request that completed.
"""

import math
import statistics

#: Latency reported for a percentile that lands on a failed request: the
#: load generator's drain limit, i.e. "missed every limit".
MISSED_US = 5e6


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values, q, missed=0):
    """Nearest-rank q-th percentile (0 < q <= 100) of ``values``.

    ``missed`` requests that failed or were refused rank above every
    value; a percentile that lands on one of them is ``MISSED_US``.
    """
    n = len(values) + missed
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    ordered = sorted(values)
    return ordered[rank - 1] if rank <= len(ordered) else MISSED_US


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q / 100.0 * n))


def open_loop(due_ns, sent_ns, ok_ns):
    """Latency and lateness of one open-loop class, in microseconds.

    Every list holds one entry per planned request, in ns after the
    shared start instant; -1 marks a request never sent (``sent_ns``) or
    without an OK reply (``ok_ns``). Latency runs from the due time, so a
    stalled generator charges its delay to the requests it held back.

    Returns (latencies of OK requests, lateness of sent requests,
    number of requests without an OK reply).
    """
    latency, late, missed = [], [], 0
    for due, sent, ok in zip(due_ns, sent_ns, ok_ns):
        if sent >= 0:
            late.append((sent - due) / 1e3)
        if ok >= 0:
            latency.append((ok - due) / 1e3)
        else:
            missed += 1
    return latency, late, missed


def _covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span name, summed: each span's duration minus the
    part of its interval that its child spans cover.

    ``spans`` are dicts with id, parent (-1 for a root), name, start_ns
    and end_ns.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        inner = [(max(c["start_ns"], start), min(c["end_ns"], end))
                 for c in children.get(s["id"], [])]
        inner = [(a, b) for a, b in inner if b > a]
        own = (end - start) - _covered(inner)
        out[s["name"]] = out.get(s["name"], 0) + own
    return out

