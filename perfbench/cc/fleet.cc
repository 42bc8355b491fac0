/**
 * @file
 * fleet: one large seeded fleet of Mobius and ZeRO jobs with Poisson
 * arrivals, mixed priorities, backfill, preemption and transient
 * transfer faults, over two commodity server classes and one
 * data-center class. The plan cache is on, so planning is nearly
 * bypassed and step simulation, the scheduler and fault handling
 * carry the work.
 */

#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>

#include "base/rng.hh"
#include "bench.hh"
#include "checks.hh"

using namespace mobius;

namespace perfbench
{
namespace
{

constexpr int kJobs = 1000;
/** Mean job arrivals per simulated second: more than the servers
 *  drain, so a backlog builds. The backlog keeps the pump's
 *  speculative step simulations ahead of admission (at light load
 *  the fleet runs nearly serially), and keeps JCT from hinging on
 *  the Poisson noise of a near-saturated queue. */
constexpr double kArrivalRate = 4.0;
/** JobPump width: fixed (never 0 = "hardware") so the host metrics
 *  mean the same on every machine with at least this many cores. */
constexpr int kThreads = 2;

class Fleet : public WorkloadRunner
{
  public:
    const char *unit() const override { return "job"; }

    void
    setup(std::uint64_t seed) override
    {
        opts_ = FleetOptions{};
        opts_.threads = kThreads;
        opts_.planCache = true;
        opts_.backfill = true;
        opts_.preemption = true;
        opts_.faults.xfailProb = 0.01;
        opts_.faults.retryBudget = 10;
        opts_.faults.retryBackoff = 1e-4;
        FleetServerDesc c22, c13, dc;
        c22.klass = "c22";
        c22.groups = {2, 2};
        c22.count = 3;
        c13.klass = "c13";
        c13.groups = {1, 3};
        c13.count = 2;
        dc.klass = "dc";
        dc.dataCenter = true;
        dc.groups = {4};
        dc.count = 1;
        opts_.servers = {c22, c13, dc};

        // The job mix is fixed; the seed shuffles the order the jobs
        // arrive in and draws arrival times and fault streams, so
        // every seed simulates the same multiset of steps.
        specs_.clear();
        for (int k = 0; k < kJobs; ++k) {
            JobSpec s;
            const int m = k % 10; // 3B / 8B / 15B: 50 / 30 / 20%
            s.model = m < 5 ? gpt3b() : m < 8 ? gpt8b() : gpt15b();
            s.system = (k / 10) % 4 == 0 ? JobSystem::DeepSpeed
                                         : JobSystem::Mobius;
            const int c = (k / 40) % 20; // c22 / c13 / dc: 45 / 35 / 20%
            if (c < 9) {
                s.serverClass = "c22";
                s.groups = {2, 2};
            } else if (c < 16) {
                s.serverClass = "c13";
                s.groups = {1, 3};
            } else {
                s.serverClass = "dc";
                s.dataCenter = true;
                s.groups = {4};
            }
            s.steps = 2 + k % 3;
            s.priority = (k / 5) % 5 == 0 ? 0 : 5;
            specs_.push_back(std::move(s));
        }
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
        for (std::size_t k = specs_.size(); k > 1; --k)
            std::swap(specs_[k - 1], specs_[rng.below(k)]);
        double t = 0.0;
        for (JobSpec &s : specs_) {
            t += -std::log(1.0 - rng.uniform()) / kArrivalRate;
            s.arrival = t;
            s.faultSeed = rng.next();
        }
    }

    std::size_t opsPerPass() const override { return 1; }

    OpResult
    run(std::size_t, Tracer *tr, MetricsRegistry *metrics,
        Counts *counts) override
    {
        OpResult r;
        try {
            FleetOptions opts = opts_;
            opts.metrics = metrics;
            {
                Span s(tr, "FleetSim::submit", "fleet");
                sim_ = std::make_unique<FleetSim>(std::move(opts));
                for (const JobSpec &spec : specs_)
                    sim_->submit(spec);
            }
            FleetMetrics m;
            {
                Span s(tr, "FleetSim::run", "fleet");
                m = sim_->run();
            }
            r.units = m.completed;
            if (std::string e = checkFleet(m, specs_.size()); !e.empty())
                r.errors.push_back(e);
            fold(r.digest, m.fingerprint);
            last_ = m;
            jcts_.clear();
            for (const FleetJobRecord &rec : sim_->records())
                jcts_.push_back(rec.jct());
            if (counts) {
                (*counts)["fleet.hit_ratio"] += m.planHitRate;
                (*counts)["fleet.admissions"] +=
                    static_cast<double>(m.sched.admissions);
                (*counts)["fleet.preemptions"] +=
                    static_cast<double>(m.sched.preemptions);
                (*counts)["fleet.backfills"] +=
                    static_cast<double>(m.sched.backfills);
            }
        } catch (const std::exception &e) {
            r.errors.push_back(e.what());
        }
        return r;
    }

    double
    modelled(std::vector<SummaryLine> &lines) const override
    {
        lines.push_back({"jct_p50_s", last_.jctP50, "s"});
        lines.push_back({"jct_p99_s", last_.jctP99, "s"});
        lines.push_back({"fleet_goodput", last_.goodput, "ratio"});
        lines.push_back({"plan_hit_ratio", last_.planHitRate, "ratio"});
        return geomean(jcts_);
    }

    /**
     * Replay every job's step of the last fleet on this thread with a
     * metrics registry, to read the runtime, xfer, simcore and fault
     * counters FleetSim keeps internal. Plans come from the fleet's
     * own cache, so nothing is re-planned, and each replay must
     * reproduce the fleet's span digest for that job.
     */
    std::vector<std::string>
    traceExtras(Tracer &tr, MetricsRegistry &metrics,
                Counts &counts) override
    {
        std::vector<std::string> errors;
        if (!sim_)
            return errors;
        Span root(&tr, "replay", "replay");
        const std::vector<FleetJobRecord> &records = sim_->records();
        for (std::size_t i = 0; i < records.size(); ++i) {
            const JobSpec &spec = records[i].spec;
            try {
                Server server = buildJobServer(spec);
                std::optional<Workload> work;
                {
                    Span s(&tr, "Workload", "model");
                    work.emplace(spec.model, server, spec.microbatchSize,
                                 spec.numMicrobatches);
                }
                StepRunOptions opts;
                opts.metrics = &metrics;
                opts.faults = &opts_.faults;
                opts.faultSeed = spec.faultSeed;
                StepRunResult step;
                if (spec.system == JobSystem::DeepSpeed) {
                    Span s(&tr, "runZeroStepEx", "runtime");
                    step = runZeroStepEx(server, work->cost(), opts);
                } else {
                    MobiusPlan plan = sim_->planCache().get(
                        jobPlanKey(spec), [&]() -> MobiusPlan {
                            throw std::runtime_error(
                                "replayed job missed the plan cache");
                        });
                    Span s(&tr, "runMobiusStepEx", "runtime");
                    step = runMobiusStepEx(server, work->cost(), plan,
                                           opts);
                }
                counts["runtime.spans"] +=
                    static_cast<double>(step.spanCount);
                if (step.spanHash != records[i].spanHash)
                    errors.push_back(spec.name +
                                     ": replayed step digest differs");
            } catch (const std::exception &e) {
                errors.push_back(spec.name + ": " + e.what());
            }
        }
        return errors;
    }

  private:
    FleetOptions opts_;
    std::vector<JobSpec> specs_;
    std::unique_ptr<FleetSim> sim_; //!< last fleet run (for replay)
    FleetMetrics last_;
    std::vector<double> jcts_;
};

} // namespace

std::unique_ptr<WorkloadRunner>
makeFleet()
{
    return std::make_unique<Fleet>();
}

} // namespace perfbench
