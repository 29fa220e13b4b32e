#include "util.hh"

#include <cmath>
#include <cstdio>
#include <sched.h>

namespace perfbench
{

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace
{

std::string
renderNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ", ";
    body_ += jsonString(k) + ": ";
}

JsonObject &
JsonObject::num(const std::string &k, double value)
{
    key(k);
    body_ += renderNumber(value);
    return *this;
}

JsonObject &
JsonObject::count(const std::string &k, std::uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &value)
{
    key(k);
    body_ += jsonString(value);
    return *this;
}

JsonObject &
JsonObject::flag(const std::string &k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::nums(const std::string &k, const std::vector<double> &values)
{
    key(k);
    body_ += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            body_ += ", ";
        body_ += renderNumber(values[i]);
    }
    body_ += "]";
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, std::string name)
    : rec_(rec), index_(rec.spans_.size())
{
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int>(index_);
    span.parent = rec.open_.empty() ? -1 : rec.open_.back();
    span.startNs = nowNs();
    rec.spans_.push_back(std::move(span));
    rec.open_.push_back(static_cast<int>(index_));
}

SpanRecorder::Scope::~Scope()
{
    rec_.spans_[index_].endNs = nowNs();
    rec_.open_.pop_back();
}

std::string
SpanRecorder::toJson() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        JsonObject o;
        o.str("name", s.name)
            .count("id", static_cast<std::uint64_t>(s.id))
            .num("parent", s.parent)
            .count("start_ns", s.startNs)
            .count("end_ns", s.endNs);
        out += (i ? ",\n" : "\n") + o.render();
    }
    return out + "]";
}

} // namespace perfbench
