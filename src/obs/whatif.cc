#include "obs/whatif.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/units.hh"

namespace mobius
{

namespace
{

/** Parse a strictly positive finite double; fatal() otherwise. */
double
parseFactor(const std::string &text, const std::string &where)
{
    char *end = nullptr;
    double f = std::strtod(text.c_str(), &end);
    if (end == nullptr || end == text.c_str() || *end != '\0' ||
        !std::isfinite(f) || f <= 0.0) {
        fatal("what-if factor in '%s' must be a positive number, "
              "got '%s'",
              where.c_str(), text.c_str());
    }
    return f;
}

/** Dense GPU indices whose DRAM route crosses @p link_id. */
std::vector<int>
gpusThroughLink(const Topology &topo, int link_id)
{
    std::vector<int> out;
    for (int g = 0; g < topo.numGpus(); ++g) {
        auto hops = topo.route(Endpoint::dram(), Endpoint::gpuAt(g));
        for (const Hop &h : hops) {
            if (h.link == link_id) {
                out.push_back(g);
                break;
            }
        }
    }
    return out;
}

/** One spec compiled against a server for span matching. */
struct Matcher
{
    WhatIfSpec spec;
    /** GPUs behind the perturbed link (Link/RootComplex kinds). */
    std::vector<int> gpus;
    /** NVLink tracks matched when the named link is a peer link. */
    std::vector<std::string> peerTracks;

    bool
    matches(const TraceSpan &s) const
    {
        switch (spec.kind) {
          case WhatIfKind::GpuCompute:
            return s.category == "compute" && s.gpu == spec.index;
          case WhatIfKind::CpuOptimizer:
            return s.category == "optimizer";
          case WhatIfKind::Category:
            return s.category == spec.resource;
          case WhatIfKind::RootComplex:
          case WhatIfKind::Link:
            if (s.category != "transfer")
                return false;
            if (!peerTracks.empty()) {
                for (const auto &t : peerTracks) {
                    if (s.track == t)
                        return true;
                }
                return false;
            }
            // Tree links never carry NVLink traffic.
            if (s.track.size() >= 7 &&
                s.track.compare(s.track.size() - 7, 7, ".nvlink") ==
                    0) {
                return false;
            }
            return std::find(gpus.begin(), gpus.end(), s.gpu) !=
                gpus.end();
        }
        return false;
    }
};

Matcher
compileSpec(const WhatIfSpec &spec, const Server &server)
{
    Matcher m;
    m.spec = spec;
    const Topology &topo = server.topo;
    if (spec.kind == WhatIfKind::RootComplex) {
        int rc = topo.rootComplexes()[static_cast<std::size_t>(
            spec.index)];
        m.gpus = gpusThroughLink(topo, topo.node(rc).upLink);
    } else if (spec.kind == WhatIfKind::Link) {
        const Link &l = topo.link(spec.index);
        if (l.peer) {
            int a = topo.node(l.nodeA).gpuIndex;
            int b = topo.node(l.nodeB).gpuIndex;
            m.peerTracks = {"gpu" + std::to_string(a) + ".nvlink",
                            "gpu" + std::to_string(b) + ".nvlink"};
        } else {
            m.gpus = gpusThroughLink(topo, spec.index);
        }
    }
    return m;
}

/**
 * List-schedule @p dag with per-span durations @p dur: a span starts
 * at max(latest dependency finish, its engine's free time), engines
 * run one span at a time in original start order.
 * @return the makespan.
 */
double
reschedule(const SpanDag &dag, const std::vector<double> &dur)
{
    std::vector<double> engineFree(dag.engineNames.size(), 0.0);
    std::vector<double> end(dag.spans.size(), 0.0);
    double makespan = 0.0;
    for (std::size_t i = 0; i < dag.spans.size(); ++i) {
        double ready = 0.0;
        for (std::size_t p : dag.preds[i])
            ready = std::max(ready, end[p]);
        double start = std::max(ready, engineFree[dag.engine[i]]);
        end[i] = start + dur[i];
        engineFree[dag.engine[i]] = end[i];
        makespan = std::max(makespan, end[i]);
    }
    return makespan;
}

std::string
specsLabel(const std::vector<WhatIfSpec> &specs)
{
    std::string out;
    for (const WhatIfSpec &s : specs) {
        if (!out.empty())
            out += ",";
        out += strfmt("%s=%.4g", s.resource.c_str(), s.factor);
    }
    return out;
}

} // namespace

WhatIfSpec
parseWhatIfSpec(const std::string &text, const Server &server)
{
    auto eq = text.rfind('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 >= text.size()) {
        fatal("malformed what-if spec '%s'; expected "
              "RESOURCE=FACTOR",
              text.c_str());
    }
    WhatIfSpec spec;
    spec.factor = parseFactor(text.substr(eq + 1), text);
    ResourceRef ref =
        parseResourceRef(text.substr(0, eq), server, text);
    spec.kind = ref.kind;
    spec.index = ref.index;
    spec.resource = std::move(ref.resource);
    return spec;
}

std::vector<double>
WhatIfSweepSpec::factors() const
{
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(steps));
    for (int i = 0; i < steps; ++i) {
        double t = steps > 1
            ? static_cast<double>(i) / (steps - 1)
            : 0.0;
        out.push_back(lo + (hi - lo) * t);
    }
    return out;
}

WhatIfSweepSpec
parseWhatIfSweepSpec(const std::string &text)
{
    auto eq = text.rfind('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size())
        fatal("malformed what-if sweep '%s'; expected "
              "RESOURCE=LO:HI:STEPS",
              text.c_str());
    WhatIfSweepSpec spec;
    spec.resource = text.substr(0, eq);
    std::string grid = text.substr(eq + 1);
    auto c1 = grid.find(':');
    auto c2 = c1 == std::string::npos ? std::string::npos
                                      : grid.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        grid.find(':', c2 + 1) != std::string::npos) {
        fatal("malformed what-if sweep '%s'; expected "
              "RESOURCE=LO:HI:STEPS",
              text.c_str());
    }
    spec.lo = parseFactor(grid.substr(0, c1), text);
    spec.hi = parseFactor(grid.substr(c1 + 1, c2 - c1 - 1), text);
    char *end = nullptr;
    const std::string steps_text = grid.substr(c2 + 1);
    long steps = std::strtol(steps_text.c_str(), &end, 10);
    if (end == nullptr || end == steps_text.c_str() ||
        *end != '\0' || steps < 2 || steps > 10000) {
        fatal("what-if sweep '%s': STEPS must be an integer in "
              "[2, 10000]",
              text.c_str());
    }
    spec.steps = static_cast<int>(steps);
    if (spec.lo > spec.hi)
        fatal("what-if sweep '%s': LO must be <= HI", text.c_str());
    return spec;
}

bool
RunPerturbation::identity() const
{
    if (cpuOptimizerFactor != 1.0)
        return false;
    for (double f : gpuComputeFactor) {
        if (f != 1.0)
            return false;
    }
    return true;
}

Server
perturbServer(const Server &server,
              const std::vector<WhatIfSpec> &specs)
{
    Server out = server;
    Topology &topo = out.topo;
    for (const WhatIfSpec &spec : specs) {
        // GpuCompute / CpuOptimizer resolve to no links: they are
        // the engine-rate side, see runPerturbation().
        ResourceRef ref{spec.kind, spec.index, spec.resource};
        for (int l : resourceLinks(ref, topo)) {
            topo.setLinkCapacity(l, topo.link(l).capacity *
                                        spec.factor);
        }
    }
    return out;
}

RunPerturbation
runPerturbation(const std::vector<WhatIfSpec> &specs, int num_gpus)
{
    RunPerturbation p;
    p.gpuComputeFactor.assign(static_cast<std::size_t>(num_gpus),
                              1.0);
    for (const WhatIfSpec &spec : specs) {
        switch (spec.kind) {
          case WhatIfKind::GpuCompute:
            p.gpuComputeFactor[static_cast<std::size_t>(
                spec.index)] *= spec.factor;
            break;
          case WhatIfKind::CpuOptimizer:
            p.cpuOptimizerFactor *= spec.factor;
            break;
          case WhatIfKind::Category:
            if (spec.resource == "compute") {
                for (double &f : p.gpuComputeFactor)
                    f *= spec.factor;
            } else if (spec.resource == "optimizer") {
                p.cpuOptimizerFactor *= spec.factor;
            }
            break;
          case WhatIfKind::Link:
          case WhatIfKind::RootComplex:
            break; // topology side, see perturbServer()
        }
    }
    return p;
}

WhatIfResult
evaluateWhatIf(const SpanDag &dag, const Server &server,
               const std::vector<WhatIfSpec> &specs)
{
    WhatIfResult r;
    r.specs = specs;
    if (dag.spans.empty())
        return r;
    r.baseStepTime = dag.stepTime();

    std::vector<Matcher> matchers;
    matchers.reserve(specs.size());
    for (const WhatIfSpec &s : specs)
        matchers.push_back(compileSpec(s, server));

    // Three duration vectors: the unperturbed re-schedule (model
    // calibration), the coupled model (contention drains at the new
    // bandwidth), and the invariant model (contention is caused
    // elsewhere and does not react). The spread between the last
    // two is the reported error bar.
    std::size_t n = dag.spans.size();
    std::vector<double> base(n), coupled(n), invariant(n);
    // Pool-saturation accounting per shared-pool spec: every byte a
    // matched span carries must cross that pool, one direction at a
    // time, so sum-of-work / factor lower-bounds any counterfactual
    // makespan (the list-scheduler alone can under-predict a
    // slowdown: it cannot invent the contention a slower pool
    // creates between spans that did not overlap in the baseline).
    std::map<std::pair<std::size_t, std::string>, double> poolWork;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceSpan &s = dag.spans[i];
        double work = s.workSeconds();
        double stretch = s.stretch();
        base[i] = s.duration();

        double workMul = 1.0;
        double stretchMul = 1.0;
        bool matched = false;
        for (std::size_t mi = 0; mi < matchers.size(); ++mi) {
            const Matcher &m = matchers[mi];
            if (!m.matches(s))
                continue;
            matched = true;
            double f = m.spec.factor;
            stretchMul /= f;
            bool shared = m.spec.kind == WhatIfKind::Link ||
                m.spec.kind == WhatIfKind::RootComplex;
            // A shared pool's speedup cannot push a flow past its
            // private per-link bottleneck (capacities are uniform,
            // so the floor is the recorded work); its slowdown
            // makes the pool the route bottleneck.
            workMul /= shared ? std::min(1.0, f) : f;
            if (shared) {
                // Direction = track suffix (h2d / d2h / nvlink):
                // each direction of the pool drains independently.
                auto dot = s.track.find_last_of('.');
                poolWork[{mi, s.track.substr(dot + 1)}] += work;
            }
        }
        if (matched)
            ++r.matchedSpans;
        coupled[i] = work * workMul + stretch * stretchMul;
        invariant[i] = work * workMul + stretch;
    }
    double poolBound = 0.0;
    for (const auto &[key, work_sum] : poolWork) {
        poolBound = std::max(
            poolBound, work_sum / matchers[key.first].spec.factor);
    }

    r.modelBase = reschedule(dag, base);
    double msA = reschedule(dag, coupled);
    double msB = reschedule(dag, invariant);
    double cal =
        r.modelBase > 0.0 ? r.baseStepTime / r.modelBase : 1.0;
    // The truth lies between the two contention hypotheses; the
    // midpoint is the point estimate, the variants are the bar. The
    // pool-saturation bound is a hard floor on all three.
    r.predicted = std::max(0.5 * (msA + msB) * cal, poolBound);
    r.predictedLow =
        std::max(std::min(msA, msB) * cal, poolBound);
    r.predictedHigh =
        std::max(std::max(msA, msB) * cal, r.predicted);
    return r;
}

WhatIfResult
evaluateWhatIf(const TraceRecorder &trace, const Server &server,
               const std::vector<WhatIfSpec> &specs)
{
    return evaluateWhatIf(buildSpanDag(trace), server, specs);
}

double
WhatIfSweep::sensitivity() const
{
    if (points.empty())
        return 0.0;
    bool all_exact = true;
    for (const WhatIfResult &p : points)
        all_exact = all_exact && p.exact > 0.0;
    auto value = [&](const WhatIfResult &p) {
        return all_exact ? p.exact : p.predicted;
    };
    double lo = value(points.front());
    double hi = lo;
    const WhatIfResult *unit = &points.front();
    double unit_dist = 1e300;
    for (const WhatIfResult &p : points) {
        lo = std::min(lo, value(p));
        hi = std::max(hi, value(p));
        double factor =
            p.specs.empty() ? 1.0 : p.specs.front().factor;
        double d = std::fabs(factor - 1.0);
        if (d < unit_dist) {
            unit_dist = d;
            unit = &p;
        }
    }
    double ref = value(*unit);
    return ref > 0.0 ? (hi - lo) / ref : 0.0;
}

WhatIfSweep
sweepWhatIf(const SpanDag &dag, const Server &server,
            const WhatIfSweepSpec &spec)
{
    WhatIfSweep sweep;
    sweep.spec = spec;
    for (double f : spec.factors()) {
        WhatIfSpec point = parseWhatIfSpec(
            strfmt("%s=%.17g", spec.resource.c_str(), f), server);
        sweep.points.push_back(
            evaluateWhatIf(dag, server, {point}));
    }
    return sweep;
}

std::string
whatIfResultJson(const WhatIfResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"specs\":[";
    for (std::size_t i = 0; i < r.specs.size(); ++i) {
        const WhatIfSpec &s = r.specs[i];
        if (i > 0)
            os << ",";
        os << "{\"resource\":\"" << json::escape(s.resource)
           << "\",\"kind\":\"" << resourceKindName(s.kind)
           << "\",\"factor\":" << s.factor << "}";
    }
    os << "],\"base_step_time\":" << r.baseStepTime
       << ",\"model_base\":" << r.modelBase
       << ",\"predicted\":" << r.predicted
       << ",\"predicted_low\":" << r.predictedLow
       << ",\"predicted_high\":" << r.predictedHigh
       << ",\"speedup\":" << r.speedup()
       << ",\"matched_spans\":" << r.matchedSpans;
    if (r.exact > 0.0) {
        os << ",\"exact\":" << r.exact
           << ",\"drift\":" << r.drift();
    }
    os << "}";
    return os.str();
}

std::string
whatIfSweepJson(const WhatIfSweep &s)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"resource\":\"" << json::escape(s.spec.resource)
       << "\",\"lo\":" << s.spec.lo << ",\"hi\":" << s.spec.hi
       << ",\"steps\":" << s.spec.steps
       << ",\"sensitivity\":" << s.sensitivity() << ",\"points\":[";
    for (std::size_t i = 0; i < s.points.size(); ++i) {
        if (i > 0)
            os << ",";
        os << whatIfResultJson(s.points[i]);
    }
    os << "]}";
    return os.str();
}

std::string
whatIfSweepAscii(const WhatIfSweep &s, int width)
{
    std::ostringstream os;
    os << strfmt("what-if sweep: %s x%.3g .. x%.3g (%d points), "
                 "sensitivity %.3f\n",
                 s.spec.resource.c_str(), s.spec.lo, s.spec.hi,
                 s.spec.steps, s.sensitivity());
    double maxv = 0.0;
    for (const WhatIfResult &p : s.points)
        maxv = std::max(maxv, p.predictedHigh);
    if (maxv <= 0.0)
        maxv = 1.0;
    os << strfmt("  %7s %-*s %12s %12s\n", "factor", width, "",
                 "predicted", "exact");
    for (const WhatIfResult &p : s.points) {
        double f = p.specs.empty() ? 0.0 : p.specs.front().factor;
        int bar = static_cast<int>(p.predicted / maxv * width);
        int hi = static_cast<int>(p.predictedHigh / maxv * width);
        std::string row(static_cast<std::size_t>(width), ' ');
        for (int i = 0; i < bar && i < width; ++i)
            row[static_cast<std::size_t>(i)] = '#';
        for (int i = bar; i < hi && i < width; ++i)
            row[static_cast<std::size_t>(i)] = '-';
        std::string exact = p.exact > 0.0
            ? formatSeconds(p.exact)
            : std::string("-");
        os << strfmt("  %7.3f %-*s %12s %12s\n", f, width,
                     row.c_str(),
                     formatSeconds(p.predicted).c_str(),
                     exact.c_str());
    }
    os << "  ('#' = predicted, '-' = error bar to the invariant-"
          "contention model)\n";
    return os.str();
}

std::string
whatIfReport(const std::vector<WhatIfResult> &results)
{
    std::ostringstream os;
    os << strfmt("  %-24s %12s %12s %8s %12s %8s\n", "what-if",
                 "predicted", "range", "speedup", "exact", "drift");
    for (const WhatIfResult &r : results) {
        std::string range =
            strfmt("%+.1f%%", r.predicted > 0.0
                       ? 100.0 *
                           (r.predictedHigh - r.predictedLow) /
                           r.predicted
                       : 0.0);
        std::string exact = r.exact > 0.0 ? formatSeconds(r.exact)
                                          : std::string("-");
        std::string drift = r.exact > 0.0
            ? strfmt("%.2f%%", 100.0 * r.drift())
            : std::string("-");
        os << strfmt("  %-24s %12s %12s %7.2fx %12s %8s\n",
                     specsLabel(r.specs).c_str(),
                     formatSeconds(r.predicted).c_str(),
                     range.c_str(), r.speedup(), exact.c_str(),
                     drift.c_str());
    }
    return os.str();
}

} // namespace mobius
