#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hh"

namespace perfbench
{

int
Tracer::open(const char *name, const char *layer)
{
    SpanRec s;
    s.name = name;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    // Read the clock last so the recorder's own work is not charged
    // to the span.
    spans_.back().start = wallNow();
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = wallNow();
    stack_.pop_back();
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        self[i] += s.end - s.start;
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
}

std::vector<LayerTime>
Tracer::layerTimes() const
{
    const std::vector<double> self = selfSeconds();
    std::map<std::string, LayerTime> by;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        LayerTime &lt = by[s.layer];
        lt.layer = s.layer;
        ++lt.calls;
        const double dur = s.end - s.start;
        lt.selfSeconds += self[i];
        // A span nested in a span of its own layer is already
        // inside that span's total.
        bool nested = false;
        for (int p = s.parent; p >= 0;
             p = spans_[static_cast<std::size_t>(p)].parent)
            if (std::string(spans_[static_cast<std::size_t>(p)].layer) ==
                s.layer) {
                nested = true;
                break;
            }
        if (!nested)
            lt.totalSeconds += dur;
    }
    std::vector<LayerTime> out;
    for (auto &kv : by)
        out.push_back(kv.second);
    std::sort(out.begin(), out.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.selfSeconds > b.selfSeconds;
              });
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}",
                     i ? "," : "", s.name, s.layer,
                     (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent, static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
