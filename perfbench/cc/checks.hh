/**
 * @file
 * Output checks the benchmark applies to every operation. Each
 * returns an empty string when the output is correct, otherwise a
 * one-line reason; the workloads count any reason as a failed op.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>

#include "fleet/fleet_sim.hh"
#include "obs/critical_path.hh"
#include "plan/partition_mip.hh"
#include "runtime/api.hh"
#include "serve/slo.hh"

namespace perfbench
{

/** Largest |attribution total - step time| accepted, seconds. */
constexpr double kAttributionTol = 1e-9;
/** Largest per-request latency-split drift accepted, seconds. */
constexpr double kServeDriftTol = 1e-9;
/** Accepted band of Mobius traffic / FP32 model size (§3.1: ~1.5x,
 *  ~1.8x with boundary activations and checkpoints). */
constexpr double kMobiusTrafficLo = 1.2, kMobiusTrafficHi = 2.2;
/** Accepted band of ZeRO traffic / (N x FP32 model size) (§3.1:
 *  ~1.5 N x). */
constexpr double kZeroTrafficLo = 1.2, kZeroTrafficHi = 2.0;

/** The plan covers every layer, fits memory and maps each stage to
 *  one of @p num_gpus GPUs through a permutation. */
std::string checkPlan(const mobius::MobiusPlan &plan, int num_layers,
                      int num_gpus);

/** The exact MIP found a partition of @p num_layers layers that the
 *  evaluator accepts as feasible. */
std::string checkMip(const mobius::ExactMipResult &mip,
                     const mobius::PipelineCostEvaluator &eval,
                     int num_layers);

/** Mobius step: positive time, traffic near 1.5x model size. */
std::string checkMobiusStep(const mobius::StepStats &stats,
                            mobius::Bytes model_fp32);

/** ZeRO step: positive time, traffic near 1.5 N x model size. */
std::string checkZeroStep(const mobius::StepStats &stats,
                          mobius::Bytes model_fp32);

/** The critical-path categories sum to the step time. */
std::string checkAttribution(const mobius::StepAttribution &a,
                             double step_time);

/** Every request finished and each latency split sums to its e2e. */
std::string checkServe(const mobius::ServeMetrics &m,
                       std::uint64_t submitted);

/** Every job finished and goodput lies in (0, 1]. */
std::string checkFleet(const mobius::FleetMetrics &m,
                       std::uint64_t submitted);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
