#include "checks.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

using namespace mobius;

namespace perfbench
{

std::string
checkPlan(const MobiusPlan &plan, int num_layers, int num_gpus)
{
    if (!partitionValid(plan.partition, num_layers))
        return "plan partition does not cover the layers";
    if (!plan.estimate.feasible)
        return "plan infeasible: " + plan.estimate.infeasibleReason;
    if (!(plan.estimate.stepTime > 0.0))
        return "plan estimate is not positive";
    std::vector<int> order = plan.mapping.gpuOrder;
    std::sort(order.begin(), order.end());
    if (static_cast<int>(order.size()) != num_gpus)
        return "mapping does not use every GPU";
    for (int g = 0; g < num_gpus; ++g)
        if (order[static_cast<std::size_t>(g)] != g)
            return "mapping is not a GPU permutation";
    return "";
}

std::string
checkMip(const ExactMipResult &mip, const PipelineCostEvaluator &eval,
         int num_layers)
{
    if (!mip.solved)
        return "exact MIP found no partition";
    if (!partitionValid(mip.partition, num_layers))
        return "exact MIP partition does not cover the layers";
    if (!eval.evaluate(mip.partition).feasible)
        return "exact MIP partition is infeasible";
    if (!(mip.objective > 0.0))
        return "exact MIP objective is not positive";
    return "";
}

namespace
{

std::string
checkTraffic(const StepStats &stats, double lo, double hi, double ratio)
{
    if (!(stats.stepTime > 0.0) || !std::isfinite(stats.stepTime))
        return "step time is not positive";
    if (ratio < lo || ratio > hi)
        return strfmt("%s traffic ratio %.3f outside [%g, %g]",
                      stats.system.c_str(), ratio, lo, hi);
    return "";
}

} // namespace

std::string
checkMobiusStep(const StepStats &stats, Bytes model_fp32)
{
    return checkTraffic(stats, kMobiusTrafficLo, kMobiusTrafficHi,
                        stats.trafficRatio(model_fp32));
}

std::string
checkZeroStep(const StepStats &stats, Bytes model_fp32)
{
    const double n = std::max(stats.numGpus, 1);
    return checkTraffic(stats, kZeroTrafficLo, kZeroTrafficHi,
                        stats.trafficRatio(model_fp32) / n);
}

std::string
checkAttribution(const StepAttribution &a, double step_time)
{
    const double drift = std::fabs(a.critical.total() - step_time);
    if (!(drift <= kAttributionTol))
        return strfmt("attribution sums to %.17g, step is %.17g",
                      a.critical.total(), step_time);
    return "";
}

std::string
checkServe(const ServeMetrics &m, std::uint64_t submitted)
{
    if (m.requests != submitted || m.completed != submitted)
        return strfmt("serve completed %llu of %llu requests",
                      static_cast<unsigned long long>(m.completed),
                      static_cast<unsigned long long>(submitted));
    if (!(m.worstSumDrift <= kServeDriftTol))
        return strfmt("serve latency split drifts by %.3g s",
                      m.worstSumDrift);
    return "";
}

std::string
checkFleet(const FleetMetrics &m, std::uint64_t submitted)
{
    if (m.jobs != submitted || m.completed != submitted)
        return strfmt("fleet completed %llu of %llu jobs",
                      static_cast<unsigned long long>(m.completed),
                      static_cast<unsigned long long>(submitted));
    if (!(m.goodput > 0.0 && m.goodput <= 1.0))
        return strfmt("fleet goodput %.6f outside (0, 1]", m.goodput);
    return "";
}

} // namespace perfbench
