/**
 * @file
 * trace_diff — compare two mobius_sim trace exports and surface
 * schedule regressions.
 *
 *     mobius_sim --model 8b --mapping cross --trace a.json
 *     mobius_sim --model 8b --mapping seq   --trace b.json
 *     trace_diff a.json b.json --top 10
 *
 * Loads two Chrome-tracing JSON files (as written by --trace: span
 * events carrying queueWait/stretch/work args plus an optional run
 * manifest under "metadata"), aligns spans between the runs, and
 * prints per-category totals (duration / queue wait / stretch, A vs
 * B with deltas) and the top-K most-regressed spans.
 *
 * Alignment is two-phase: spans pair up by (track, category, name,
 * stage) and occurrence index first; spans left over — e.g. the same
 * stage placed on a different GPU by another mapping — fall back to
 * (category, name, stage). Only per-span tables need alignment; the
 * per-category totals cover every span of each file regardless.
 *
 * When both files embed a manifest, runs that differ in model, topo,
 * or system refuse to diff (--force overrides); differing partition
 * or mapping is allowed — comparing mappings is the point — but
 * called out in the header.
 *
 * Options:
 *   --top K     per-span regression rows (default 10, >= 1)
 *   --json      machine-readable output
 *   --force     diff even when the manifests are incompatible
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/args.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/units.hh"

using namespace mobius;

namespace
{

/** One span loaded back from a trace export. */
struct DiffSpan
{
    std::string track;
    std::string name;
    std::string category;
    int stage = -1;
    double start = 0.0;     //!< seconds
    double duration = 0.0;  //!< seconds
    double queueWait = 0.0; //!< seconds
    double stretch = 0.0;   //!< seconds
    double work = 0.0;      //!< seconds
};

/** One parsed trace file. */
struct TraceFile
{
    std::string path;
    std::map<std::string, std::string> manifest;
    std::vector<DiffSpan> spans;
    double stepTime = 0.0; //!< max span end (seconds)
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open trace file '%s'", path.c_str());
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TraceFile
loadTrace(const std::string &path)
{
    TraceFile tf;
    tf.path = path;
    json::JsonValue root;
    try {
        root = json::parse(readFile(path));
    } catch (const json::JsonError &e) {
        fatal("'%s' is not valid JSON: %s", path.c_str(), e.what());
    }
    if (!root.isObject() || !root.has("traceEvents"))
        fatal("'%s' is not a mobius trace export (no traceEvents)",
              path.c_str());

    if (const json::JsonValue *meta = root.find("metadata")) {
        for (const auto &[key, value] : meta->members) {
            if (value.isString())
                tf.manifest[key] = value.string;
            else if (value.isNumber())
                tf.manifest[key] = strfmt("%g", value.number);
        }
    }

    // Pass 1: tid -> track name from the thread_name metadata
    // events; pass 2: the complete ("X") span events.
    const json::JsonValue &events = root.at("traceEvents");
    if (!events.isArray())
        fatal("'%s': traceEvents is not an array", path.c_str());
    std::map<double, std::string> tracks;
    for (const auto &ev : events.array) {
        if (!ev.isObject() || ev.stringOr("ph", "") != "M")
            continue;
        if (ev.stringOr("name", "") != "thread_name")
            continue;
        const json::JsonValue *a = ev.find("args");
        if (a)
            tracks[ev.numberOr("tid", -1)] =
                a->stringOr("name", "");
    }
    for (const auto &ev : events.array) {
        if (!ev.isObject() || ev.stringOr("ph", "") != "X")
            continue;
        DiffSpan s;
        s.name = ev.stringOr("name", "");
        s.category = ev.stringOr("cat", "");
        auto t = tracks.find(ev.numberOr("tid", -1));
        s.track = t == tracks.end() ? "?" : t->second;
        s.start = ev.numberOr("ts", 0.0) * 1e-6;
        s.duration = ev.numberOr("dur", 0.0) * 1e-6;
        if (const json::JsonValue *a = ev.find("args")) {
            s.stage =
                static_cast<int>(a->numberOr("stage", -1.0));
            s.queueWait = a->numberOr("queueWait", 0.0);
            s.stretch = a->numberOr("stretch", 0.0);
            s.work = a->numberOr("work", s.duration);
        }
        tf.stepTime =
            std::max(tf.stepTime, s.start + s.duration);
        tf.spans.push_back(std::move(s));
    }
    if (tf.spans.empty())
        fatal("'%s' contains no span events", path.c_str());
    return tf;
}

/**
 * Enforce manifest compatibility: identical model/topo/system, or
 * --force. Fields only one file carries are ignored (older traces
 * have no manifest at all).
 * @return human-readable notes about allowed differences.
 */
std::vector<std::string>
checkManifests(const TraceFile &a, const TraceFile &b, bool force)
{
    std::vector<std::string> notes;
    for (const char *key : {"model", "topo", "system"}) {
        auto ia = a.manifest.find(key);
        auto ib = b.manifest.find(key);
        if (ia == a.manifest.end() || ib == b.manifest.end())
            continue;
        if (ia->second == ib->second)
            continue;
        if (!force) {
            fatal("traces are incompatible: %s is '%s' vs '%s' "
                  "(pass --force to diff anyway)",
                  key, ia->second.c_str(), ib->second.c_str());
        }
        notes.push_back(strfmt("%s: %s vs %s (forced)", key,
                               ia->second.c_str(),
                               ib->second.c_str()));
    }
    for (const char *key :
         {"partition", "mapping", "microbatch_size",
          "num_microbatches"}) {
        auto ia = a.manifest.find(key);
        auto ib = b.manifest.find(key);
        if (ia != a.manifest.end() && ib != b.manifest.end() &&
            ia->second != ib->second) {
            notes.push_back(strfmt("%s: %s vs %s", key,
                                   ia->second.c_str(),
                                   ib->second.c_str()));
        }
    }
    return notes;
}

/** Aggregate totals for one category (or everything). */
struct CatTotals
{
    std::size_t spans = 0;
    double duration = 0.0;
    double queueWait = 0.0;
    double stretch = 0.0;
};

std::map<std::string, CatTotals>
categoryTotals(const TraceFile &tf)
{
    std::map<std::string, CatTotals> out;
    for (const DiffSpan &s : tf.spans) {
        CatTotals &t = out[s.category];
        ++t.spans;
        t.duration += s.duration;
        t.queueWait += s.queueWait;
        t.stretch += s.stretch;
    }
    return out;
}

/** One aligned span pair. */
struct Pair
{
    const DiffSpan *a = nullptr;
    const DiffSpan *b = nullptr;

    double delta() const { return b->duration - a->duration; }
};

/**
 * Two-phase alignment. Phase 1 keys on (track, category, name,
 * stage) + occurrence; phase 2 rematches the leftovers without the
 * track, which pairs up work a different mapping moved across GPUs.
 */
std::vector<Pair>
alignSpans(const TraceFile &a, const TraceFile &b,
           std::size_t *unmatched_a, std::size_t *unmatched_b)
{
    auto key = [](const DiffSpan &s, bool with_track) {
        std::string k = with_track ? s.track + "|" : std::string();
        return k + s.category + "|" + s.name + "|" +
            std::to_string(s.stage);
    };
    std::vector<Pair> pairs;
    std::vector<const DiffSpan *> rest_a, rest_b;
    for (int phase = 0; phase < 2; ++phase) {
        bool with_track = phase == 0;
        // Bucket the B side; spans pair up in start order.
        std::map<std::string, std::vector<const DiffSpan *>> byKey;
        auto side_b = [&]() -> std::vector<const DiffSpan *> {
            if (phase == 1)
                return rest_b;
            std::vector<const DiffSpan *> v;
            for (const DiffSpan &s : b.spans)
                v.push_back(&s);
            return v;
        }();
        for (const DiffSpan *s : side_b)
            byKey[key(*s, with_track)].push_back(s);
        for (auto &[_, v] : byKey) {
            std::sort(v.begin(), v.end(),
                      [](const DiffSpan *x, const DiffSpan *y) {
                          return x->start < y->start;
                      });
        }
        std::map<std::string, std::size_t> next;
        auto side_a = [&]() -> std::vector<const DiffSpan *> {
            if (phase == 1)
                return rest_a;
            std::vector<const DiffSpan *> v;
            for (const DiffSpan &s : a.spans)
                v.push_back(&s);
            return v;
        }();
        std::sort(side_a.begin(), side_a.end(),
                  [](const DiffSpan *x, const DiffSpan *y) {
                      return x->start < y->start;
                  });
        std::vector<const DiffSpan *> miss_a;
        for (const DiffSpan *s : side_a) {
            std::string k = key(*s, with_track);
            auto it = byKey.find(k);
            std::size_t &n = next[k];
            if (it == byKey.end() || n >= it->second.size()) {
                miss_a.push_back(s);
                continue;
            }
            pairs.push_back(Pair{s, it->second[n++]});
        }
        std::vector<const DiffSpan *> miss_b;
        for (auto &[k, v] : byKey) {
            for (std::size_t i = next[k]; i < v.size(); ++i)
                miss_b.push_back(v[i]);
        }
        rest_a = std::move(miss_a);
        rest_b = std::move(miss_b);
    }
    *unmatched_a = rest_a.size();
    *unmatched_b = rest_b.size();
    return pairs;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        int top = args.getIntIn("top", 10, 1, 1000000);
        bool as_json = args.has("json");
        bool force = args.has("force");
        args.rejectUnused();
        if (args.positionals().size() != 2)
            fatal("usage: trace_diff A.json B.json [--top K] "
                  "[--json] [--force]");

        TraceFile a = loadTrace(args.positionals()[0]);
        TraceFile b = loadTrace(args.positionals()[1]);
        std::vector<std::string> notes =
            checkManifests(a, b, force);

        auto cats_a = categoryTotals(a);
        auto cats_b = categoryTotals(b);
        std::vector<std::string> cat_names;
        for (const auto &[c, _] : cats_a)
            cat_names.push_back(c);
        for (const auto &[c, _] : cats_b) {
            if (!cats_a.count(c))
                cat_names.push_back(c);
        }

        std::size_t unmatched_a = 0, unmatched_b = 0;
        std::vector<Pair> pairs =
            alignSpans(a, b, &unmatched_a, &unmatched_b);
        std::sort(pairs.begin(), pairs.end(),
                  [](const Pair &x, const Pair &y) {
                      return x.delta() > y.delta();
                  });
        std::size_t k = std::min(pairs.size(),
                                 static_cast<std::size_t>(top));

        if (as_json) {
            std::ostringstream os;
            os.precision(9);
            os << "{\"a\":\"" << json::escape(a.path) << "\",\"b\":\""
               << json::escape(b.path) << "\""
               << ",\"step_time_a\":" << a.stepTime
               << ",\"step_time_b\":" << b.stepTime
               << ",\"step_time_delta\":"
               << b.stepTime - a.stepTime << ",\"notes\":[";
            for (std::size_t i = 0; i < notes.size(); ++i) {
                os << (i ? "," : "") << "\"" << json::escape(notes[i])
                   << "\"";
            }
            os << "],\"categories\":{";
            bool first = true;
            for (const std::string &c : cat_names) {
                const CatTotals &ta = cats_a[c];
                const CatTotals &tb = cats_b[c];
                os << (first ? "" : ",") << "\"" << json::escape(c)
                   << "\":{\"spans_a\":" << ta.spans
                   << ",\"spans_b\":" << tb.spans
                   << ",\"duration_a\":" << ta.duration
                   << ",\"duration_b\":" << tb.duration
                   << ",\"duration_delta\":"
                   << tb.duration - ta.duration
                   << ",\"queue_wait_a\":" << ta.queueWait
                   << ",\"queue_wait_b\":" << tb.queueWait
                   << ",\"queue_wait_delta\":"
                   << tb.queueWait - ta.queueWait
                   << ",\"stretch_a\":" << ta.stretch
                   << ",\"stretch_b\":" << tb.stretch
                   << ",\"stretch_delta\":"
                   << tb.stretch - ta.stretch << "}";
                first = false;
            }
            os << "},\"matched\":" << pairs.size()
               << ",\"unmatched_a\":" << unmatched_a
               << ",\"unmatched_b\":" << unmatched_b
               << ",\"regressions\":[";
            for (std::size_t i = 0; i < k; ++i) {
                const Pair &p = pairs[i];
                os << (i ? "," : "") << "{\"track_a\":\""
                   << json::escape(p.a->track) << "\",\"track_b\":\""
                   << json::escape(p.b->track) << "\",\"name\":\""
                   << json::escape(p.a->name) << "\",\"stage\":"
                   << p.a->stage << ",\"duration_a\":"
                   << p.a->duration << ",\"duration_b\":"
                   << p.b->duration << ",\"delta\":" << p.delta()
                   << ",\"queue_wait_delta\":"
                   << p.b->queueWait - p.a->queueWait << "}";
            }
            os << "]}";
            std::printf("%s\n", os.str().c_str());
            return 0;
        }

        std::printf("A: %s (step %s)\nB: %s (step %s)\n",
                    a.path.c_str(),
                    formatSeconds(a.stepTime).c_str(),
                    b.path.c_str(),
                    formatSeconds(b.stepTime).c_str());
        std::printf("step time delta : %+.4f s (B - A)\n",
                    b.stepTime - a.stepTime);
        for (const std::string &n : notes)
            std::printf("note: runs differ in %s\n", n.c_str());

        std::printf("\nper-category totals (seconds, B - A):\n");
        std::printf("  %-10s %8s %8s | %9s %9s %9s | %9s %9s | %9s\n",
                    "category", "spans A", "spans B", "dur A",
                    "dur B", "d(dur)", "queue A", "queue B",
                    "d(queue)");
        for (const std::string &c : cat_names) {
            const CatTotals &ta = cats_a[c];
            const CatTotals &tb = cats_b[c];
            std::printf("  %-10s %8zu %8zu | %9.3f %9.3f %+9.3f | "
                        "%9.3f %9.3f | %+9.3f\n",
                        c.c_str(), ta.spans, tb.spans, ta.duration,
                        tb.duration, tb.duration - ta.duration,
                        ta.queueWait, tb.queueWait,
                        tb.queueWait - ta.queueWait);
        }

        std::printf("\naligned %zu span pairs (%zu only in A, %zu "
                    "only in B); top %zu regressions (B slower):\n",
                    pairs.size(), unmatched_a, unmatched_b, k);
        std::printf("  %-14s %-10s %6s %10s %10s %10s %10s\n",
                    "track", "name", "stage", "dur A", "dur B",
                    "delta", "d(queue)");
        for (std::size_t i = 0; i < k; ++i) {
            const Pair &p = pairs[i];
            std::string track = p.a->track == p.b->track
                ? p.a->track
                : p.a->track + ">" + p.b->track;
            std::printf("  %-14s %-10s %6d %10.4f %10.4f %+10.4f "
                        "%+10.4f\n",
                        track.c_str(), p.a->name.c_str(),
                        p.a->stage, p.a->duration, p.b->duration,
                        p.delta(),
                        p.b->queueWait - p.a->queueWait);
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
