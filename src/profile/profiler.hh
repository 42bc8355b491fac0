/**
 * @file
 * Layer profiler (§3.2 "Profiling").
 *
 * The MIP partition algorithm needs per-layer compute time and memory
 * footprint. The paper measures these by running each layer with
 * prefetching disabled; because large models are stacks of identical
 * transformer blocks, Mobius compresses the model via *layer
 * similarity* and profiles one representative per similarity class,
 * which is what keeps profiling time flat across model sizes
 * (Fig. 12, observation 2).
 *
 * In this reproduction the partitioner reads the analytic cost model
 * directly, so the profiler models only the *cost* of profiling (what
 * Fig. 12 reports): per measured layer, one weight upload at PCIe
 * bandwidth plus a few timed forward+backward iterations.
 */

#ifndef MOBIUS_PROFILE_PROFILER_HH
#define MOBIUS_PROFILE_PROFILER_HH

#include "model/cost_model.hh"

namespace mobius
{

/** What a profiling pass cost. */
struct ProfileResult
{
    int profiledLayers = 0;      //!< layers actually measured
    double profilingTime = 0.0;  //!< simulated wall time (s)
};

/** Profiler configuration. */
struct ProfilerConfig
{
    bool useLayerSimilarity = true;    //!< measure one per class
};

/**
 * Model a profiling pass for @p cost: every layer is measured, or,
 * with layer similarity, one representative per similarity class.
 */
ProfileResult profileModel(const CostModel &cost,
                           const ProfilerConfig &cfg = {});

} // namespace mobius

#endif // MOBIUS_PROFILE_PROFILER_HH
