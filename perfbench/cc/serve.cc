/**
 * @file
 * serve: open-loop serving with long decodes. GPT-51B (larger than
 * the four GPUs together) on Topo 2+2 under Mobius swapping and
 * under a ZeRO-style per-iteration gather, both fed the same seeded
 * arrivals at a light load and an overload (fractions of a capacity
 * probe run in set-up), and GPT-8B under the adaptive placement
 * policy with a quiet/burst/quiet phase schedule.
 */

#include <exception>
#include <optional>

#include "base/rng.hh"
#include "bench.hh"
#include "checks.hh"
#include "serve/serve_sim.hh"
#include "simcore/arrival.hh"

using namespace mobius;

namespace perfbench
{
namespace
{

/** Requests per GPT-51B run, and the offered loads as fractions of
 *  the probed swap capacity. */
constexpr int kBigRequests = 64;
constexpr double kLightLoad = 0.5, kOverload = 2.0;
/** Requests of the GPT-8B burst run and its phase schedule. */
constexpr int kBurstRequests = 160;
const std::vector<ArrivalPhase> kBurstPhases = {
    {0.5, 20.0}, {30.0, 2.0}, {0.5, 40.0}};
/** SLO = this many unloaded end-to-end latencies (bench_serving). */
constexpr double kSloMultiple = 5.0;

struct Scenario
{
    const char *name = "";
    ServeOptions opts;
    std::vector<ServeRequest> requests;
};

ServeOptions
bigOptions(ServePlacement policy, double slo)
{
    ServeOptions o;
    o.model = gpt51b();
    o.placement.policy = policy;
    o.batch.maxBatch = 8;
    o.slo.e2eSeconds = slo;
    return o;
}

ServeRequest
request(int prompt, int gen, double arrival = 0.0)
{
    ServeRequest r;
    r.promptTokens = prompt;
    r.maxNewTokens = gen;
    r.arrival = arrival;
    return r;
}

/**
 * @p count seeded requests. Prompts spread evenly over 32-96 tokens
 * and new tokens over 32-(32 + @p max_extra_gen); the seed shuffles
 * which request gets which length and draws the arrival times, so
 * every seed serves the same number of tokens.
 */
std::vector<ServeRequest>
makeRequests(int count, int max_extra_gen,
             const std::vector<ArrivalPhase> &phases, Rng &rng)
{
    auto spread = [&](int lo, int width) {
        std::vector<int> v;
        for (int i = 0; i < count; ++i)
            v.push_back(lo + width * i / (count - 1));
        for (std::size_t k = v.size(); k > 1; --k)
            std::swap(v[k - 1], v[rng.below(k)]);
        return v;
    };
    const std::vector<int> prompts = spread(32, 64);
    const std::vector<int> gens = spread(32, max_extra_gen);
    ArrivalProcess arrivals(phases, rng.next());
    std::vector<ServeRequest> out;
    for (int i = 0; i < count; ++i)
        out.push_back(request(prompts[static_cast<std::size_t>(i)],
                              gens[static_cast<std::size_t>(i)],
                              arrivals.next()));
    return out;
}

class Serve : public WorkloadRunner
{
  public:
    const char *unit() const override { return "request"; }

    void
    setup(std::uint64_t seed) override
    {
        // Capacity probe: one lone request calibrates the unloaded
        // latency (and so the SLO), a saturating burst the capacity.
        ServeSim lone(bigOptions(ServePlacement::MobiusSwap, 0.0));
        lone.submit(request(64, 48));
        const double slo = kSloMultiple * lone.run().e2eMax;
        ServeSim sat(bigOptions(ServePlacement::MobiusSwap, slo));
        for (int i = 0; i < 16; ++i)
            sat.submit(request(64, 48));
        const double cap = sat.run().requestsPerSec;

        Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
        const std::vector<ServeRequest> light =
            makeRequests(kBigRequests, 32, {{kLightLoad * cap, 1.0}}, rng);
        const std::vector<ServeRequest> heavy =
            makeRequests(kBigRequests, 32, {{kOverload * cap, 1.0}}, rng);
        ServeOptions burst;
        burst.model = gpt8b();
        burst.placement.policy = ServePlacement::Adaptive;
        burst.placement.switchHigh = 6;
        burst.batch.maxBatch = 8;

        scenarios_ = {
            {"swap-light", bigOptions(ServePlacement::MobiusSwap, slo),
             light},
            {"gather-light", bigOptions(ServePlacement::ZeroGather, slo),
             light},
            {"swap-overload",
             bigOptions(ServePlacement::MobiusSwap, slo), heavy},
            {"gather-overload",
             bigOptions(ServePlacement::ZeroGather, slo), heavy},
            {"adaptive-burst", burst,
             makeRequests(kBurstRequests, 16, kBurstPhases, rng)},
        };
        results_.assign(scenarios_.size(), {});
        e2e_.assign(scenarios_.size(), {});
    }

    std::size_t opsPerPass() const override { return scenarios_.size(); }

    OpResult
    run(std::size_t i, Tracer *tr, MetricsRegistry *metrics,
        Counts *counts) override
    {
        OpResult r;
        const Scenario &sc = scenarios_[i];
        try {
            ServeOptions opts = sc.opts;
            opts.metrics = metrics;
            std::optional<ServeSim> sim;
            {
                Span s(tr, "ServeSim", "serve");
                sim.emplace(std::move(opts));
                for (const ServeRequest &req : sc.requests)
                    sim->submit(req);
            }
            ServeMetrics m;
            {
                Span s(tr, "ServeSim::run", "serve");
                m = sim->run();
            }
            r.units = m.completed;
            if (std::string e = checkServe(m, sc.requests.size());
                !e.empty())
                r.errors.push_back(e);
            fold(r.digest, m.fingerprint);
            foldDouble(r.digest, m.sloGoodputTokensPerSec);
            fold(r.digest, m.iterations);
            results_[i] = m;
            e2e_[i].clear();
            for (const RequestRecord &rec : sim->records())
                e2e_[i].push_back(rec.e2e());
            if (counts) {
                (*counts)["serve.iterations"] +=
                    static_cast<double>(m.iterations);
                (*counts)["serve.swap_loads"] +=
                    static_cast<double>(m.swapLoads);
                (*counts)["serve.switches"] +=
                    static_cast<double>(m.switches);
                (*counts)["simcore.events"] += static_cast<double>(
                    sim->ctx().queue().executed());
            }
        } catch (const std::exception &e) {
            r.errors.push_back(e.what());
        }
        return r;
    }

    double
    modelled(std::vector<SummaryLine> &lines) const override
    {
        std::vector<double> all;
        double goodput = 0.0;
        for (std::size_t i = 0; i < scenarios_.size(); ++i) {
            all.insert(all.end(), e2e_[i].begin(), e2e_[i].end());
            goodput += results_[i].sloGoodputTokensPerSec;
            const std::string n = scenarios_[i].name;
            lines.push_back({n + ".goodput_tok_s",
                             results_[i].sloGoodputTokensPerSec, "tok/s"});
            lines.push_back({n + ".e2e_p99_s", results_[i].e2eP99, "s"});
            lines.push_back({n + ".e2e_geomean_s", geomean(e2e_[i]), "s"});
        }
        lines.push_back({"goodput_tok_s", goodput, "tok/s"});
        lines.push_back({"e2e_p99_s", quantile(all, 0.99), "s"});
        return geomean(all);
    }

  private:
    std::vector<Scenario> scenarios_;
    std::vector<ServeMetrics> results_;
    std::vector<std::vector<double>> e2e_;
};

} // namespace

std::unique_ptr<WorkloadRunner>
makeServe()
{
    return std::make_unique<Serve>();
}

} // namespace perfbench
