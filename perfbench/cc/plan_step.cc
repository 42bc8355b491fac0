/**
 * @file
 * plan-step: a seeded stream of independent interactive queries,
 * each the equivalent of one mobius_sim call. Most queries plan a
 * Table 3 model from scratch (no plan cache), simulate one Mobius
 * step and attribute it; a share run the ZeRO (DeepSpeed) step on
 * the same kind of configuration instead; a smaller share solve the
 * exact Eq. 3-11 MIP on a uniform toy model.
 */

#include <cmath>
#include <exception>
#include <iterator>
#include <optional>

#include "base/rng.hh"
#include "bench.hh"
#include "checks.hh"
#include "hw/gpu_spec.hh"

using namespace mobius;

namespace perfbench
{
namespace
{

enum class Kind { Mobius, Zero, Mip };

struct Query
{
    Kind kind = Kind::Mobius;
    int model = 0;     //!< index into models_
    int topo = 0;      //!< index into servers_
    int mbsScale = 1;  //!< 1 = Table 3 microbatch size, 2 = double
    int seqLen = 512;  //!< training sequence length
    int mipLayers = 0; //!< toy model depth (Kind::Mip)
};

const char *const kTopos[] = {"2+2", "1+3", "4", "4+4", "2+2+2+2"};
constexpr int kNumTopos = 5;
/** One pass holds every (model, topology, microbatch) configuration
 *  once as a Mobius query, one ZeRO query per topology and
 *  kMipQueries exact-MIP queries, in seeded order. The seed picks
 *  each query's sequence length, each ZeRO query's model and each
 *  MIP model's depth; the mix of cheap 4-GPU and expensive 8-GPU
 *  plans is the same for every seed, so host cost does not depend
 *  on the seed. */
constexpr int kMipQueries = 4;
const int kSeqLens[] = {448, 480, 512, 544, 576};
/** Exact MIP instance: 2 GPUs, 2 microbatches, up to 4 stages, with
 *  a node cap that keeps the solve deterministic and bounded. */
constexpr int kMipGpus = 2, kMipMicrobatches = 2, kMipMaxStages = 4;
constexpr std::uint64_t kMipMaxNodes = 2000;

/** Uniform toy model, built the way bench_solver builds its own. */
ModelDesc
toyModel(int layers)
{
    ModelDesc m;
    m.name = "toy";
    m.seqLen = 512;
    m.hidden = 1024;
    m.heads = 8;
    for (int i = 0; i < layers; ++i) {
        LayerDesc l;
        l.name = "l" + std::to_string(i);
        l.type = LayerType::TransformerBlock;
        l.paramCount = 100'000'000;
        l.fwdFlopsPerSample = 3e12;
        l.actBytesPerSample = 8 * MiB;
        l.workBytesPerSample = 32 * MiB;
        m.layers.push_back(l);
    }
    return m;
}

/** Owns the toy model / cost / evaluator chain (they hold pointers). */
struct ToyEnv
{
    explicit ToyEnv(int layers)
        : model(toyModel(layers)),
          cost(model, rtx3090Ti(),
               TrainConfig{1, kMipMicrobatches, true, 0.45, 30e-6}),
          eval(cost, PipelineEnv{kMipGpus, 4 * GiB, 13.1e9, true})
    {}
    ModelDesc model;
    CostModel cost;
    PipelineCostEvaluator eval;
};

class PlanStep : public WorkloadRunner
{
  public:
    const char *unit() const override { return "query"; }

    void
    setup(std::uint64_t seed) override
    {
        models_ = table3Models();
        servers_.clear();
        for (const char *t : kTopos)
            servers_.push_back(makeCommodityServer(parseTopoGroups(t)));
        modelBytes_.clear();
        for (const GptConfig &cfg : models_)
            modelBytes_.push_back(
                makeGptModel(cfg).totalParamBytesFp32());

        Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
        auto seq = [&] { return kSeqLens[rng.below(std::size(kSeqLens))]; };
        queries_.clear();
        const int num_models = static_cast<int>(models_.size());
        for (int m = 0; m < num_models; ++m)
            for (int t = 0; t < kNumTopos; ++t)
                for (int s : {1, 2})
                    queries_.push_back({Kind::Mobius, m, t, s, seq(), 0});
        for (int t = 0; t < kNumTopos; ++t)
            queries_.push_back({Kind::Zero,
                                static_cast<int>(rng.below(num_models)), t,
                                1, seq(), 0});
        for (int k = 0; k < kMipQueries; ++k)
            queries_.push_back(
                {Kind::Mip, 0, 0, 1, 0, 6 + static_cast<int>(rng.below(5))});
        for (std::size_t k = queries_.size(); k > 1; --k)
            std::swap(queries_[k - 1], queries_[rng.below(k)]);
        stepTime_.assign(queries_.size(), 0.0);
        estError_.assign(queries_.size(), 0.0);
    }

    std::size_t opsPerPass() const override { return queries_.size(); }

    OpResult
    run(std::size_t i, Tracer *tr, MetricsRegistry *metrics,
        Counts *counts) override
    {
        OpResult r;
        r.units = 1;
        const Query &q = queries_[i];
        try {
            switch (q.kind) {
              case Kind::Mobius: runMobius(i, q, tr, metrics, counts, r);
                break;
              case Kind::Zero: runZero(q, tr, metrics, counts, r); break;
              case Kind::Mip: runMip(q, tr, metrics, r); break;
            }
        } catch (const std::exception &e) {
            r.errors.push_back(e.what());
        }
        return r;
    }

    double
    modelled(std::vector<SummaryLine> &lines) const override
    {
        std::vector<double> steps, errs;
        for (std::size_t i = 0; i < queries_.size(); ++i)
            if (queries_[i].kind == Kind::Mobius) {
                steps.push_back(stepTime_[i]);
                errs.push_back(estError_[i]);
            }
        const double sim_step = geomean(steps);
        lines.push_back({"sim_step_s", sim_step, "s"});
        lines.push_back({"est_error", median(errs), "ratio"});
        return sim_step;
    }

  private:
    void
    runMobius(std::size_t i, const Query &q, Tracer *tr,
              MetricsRegistry *metrics, Counts *counts, OpResult &r)
    {
        const Server &server = servers_[static_cast<std::size_t>(q.topo)];
        GptConfig cfg = models_[static_cast<std::size_t>(q.model)];
        cfg.seqLen = q.seqLen;
        std::optional<Workload> work;
        {
            Span s(tr, "Workload", "model");
            work.emplace(cfg, server, cfg.microbatchSize * q.mbsScale);
        }
        MobiusPlan plan;
        {
            Span s(tr, "planMobius", "plan");
            plan = planMobius(server, work->cost());
        }
        if (std::string e = checkPlan(plan, work->model().numLayers(),
                                      server.topo.numGpus());
            !e.empty())
            r.errors.push_back(e);

        TraceRecorder trace;
        StepRunOptions opts;
        opts.metrics = metrics;
        opts.traceOut = &trace;
        StepRunResult step;
        {
            Span s(tr, "runMobiusStepEx", "runtime");
            step = runMobiusStepEx(server, work->cost(), plan, opts);
        }
        StepAttribution attrib;
        {
            Span s(tr, "attributeStep", "obs");
            attrib = attributeStep(trace);
        }
        for (std::string e :
             {checkMobiusStep(step.stats,
                              modelBytes_[static_cast<std::size_t>(q.model)]),
              checkAttribution(attrib, step.stats.stepTime)})
            if (!e.empty())
                r.errors.push_back(e);

        const double sim = step.stats.stepTime;
        stepTime_[i] = sim;
        estError_[i] = std::fabs(plan.estimate.stepTime - sim) / sim;
        fold(r.digest, step.spanHash);
        fold(r.digest, step.spanCount);
        foldDouble(r.digest, sim);
        foldDouble(r.digest, plan.estimate.stepTime);
        for (const StageRange &st : plan.partition)
            fold(r.digest, static_cast<std::uint64_t>(st.hi));
        for (int g : plan.mapping.gpuOrder)
            fold(r.digest, static_cast<std::uint64_t>(g));
        if (counts) {
            (*counts)["plan.solve_ms"] += plan.solveSeconds * 1e3;
            (*counts)["plan.mapping_ms"] += plan.mappingSeconds * 1e3;
            (*counts)["runtime.spans"] +=
                static_cast<double>(step.spanCount);
        }
    }

    void
    runZero(const Query &q, Tracer *tr, MetricsRegistry *metrics,
            Counts *counts, OpResult &r)
    {
        const Server &server = servers_[static_cast<std::size_t>(q.topo)];
        GptConfig cfg = models_[static_cast<std::size_t>(q.model)];
        cfg.seqLen = q.seqLen;
        std::optional<Workload> work;
        {
            Span s(tr, "Workload", "model");
            work.emplace(cfg, server, cfg.microbatchSize * q.mbsScale);
        }
        StepRunOptions opts;
        opts.metrics = metrics;
        StepRunResult step;
        {
            Span s(tr, "runZeroStepEx", "runtime");
            step = runZeroStepEx(server, work->cost(), opts);
        }
        if (std::string e = checkZeroStep(
                step.stats, modelBytes_[static_cast<std::size_t>(q.model)]);
            !e.empty())
            r.errors.push_back(e);
        fold(r.digest, step.spanHash);
        fold(r.digest, step.spanCount);
        foldDouble(r.digest, step.stats.stepTime);
        if (counts)
            (*counts)["runtime.spans"] +=
                static_cast<double>(step.spanCount);
    }

    void
    runMip(const Query &q, Tracer *tr, MetricsRegistry *metrics,
           OpResult &r)
    {
        std::optional<ToyEnv> env;
        {
            Span s(tr, "toyModel", "model");
            env.emplace(q.mipLayers);
        }
        MipOptions opts;
        opts.maxNodes = kMipMaxNodes;
        opts.threads = 1;
        ExactMipResult mip;
        {
            Span s(tr, "exactMipPartition", "solver");
            mip = exactMipPartition(env->eval, kMipMaxStages, opts,
                                    metrics);
        }
        {
            Span s(tr, "evaluate", "plan");
            if (std::string e = checkMip(mip, env->eval, q.mipLayers);
                !e.empty())
                r.errors.push_back(e);
        }
        foldDouble(r.digest, mip.objective);
        fold(r.digest, mip.nodes);
        fold(r.digest, mip.lpPivots);
        for (const StageRange &st : mip.partition)
            fold(r.digest, static_cast<std::uint64_t>(st.hi));
    }

    std::vector<GptConfig> models_;
    std::vector<Server> servers_;
    std::vector<Bytes> modelBytes_;
    std::vector<Query> queries_;
    std::vector<double> stepTime_; //!< Mobius queries, by op index
    std::vector<double> estError_;
};

} // namespace

std::unique_ptr<WorkloadRunner>
makePlanStep()
{
    return std::make_unique<PlanStep>();
}

} // namespace perfbench
