/**
 * @file
 * Per-step measurement record produced by every executor; the raw
 * material of the paper's evaluation figures (per-step time, traffic,
 * bandwidth CDFs, non-overlapped communication).
 */

#ifndef MOBIUS_RUNTIME_STEP_STATS_HH
#define MOBIUS_RUNTIME_STEP_STATS_HH

#include <string>

#include "fault/fault_injector.hh"
#include "xfer/stats.hh"

namespace mobius
{

/** What one simulated training step measured. */
struct StepStats
{
    std::string system;       //!< "Mobius", "DeepSpeed", "GPipe", ...
    double stepTime = 0.0;    //!< seconds per training step
    int numGpus = 0;          //!< GPUs that participated

    TrafficStats traffic;     //!< volumes + bandwidth samples

    double computeTime = 0.0;       //!< sum over GPUs, seconds
    double exposedCommTime = 0.0;   //!< comm not overlapped (Fig. 8)
    double overlappedCommTime = 0.0; //!< comm hidden under compute

    /** Fault-injection activity (all zero without a fault plan). */
    FaultCounters faults;

    /**
     * Fraction of aggregate GPU time that is communication not
     * overlapped by computation (the Fig. 8 metric).
     */
    double
    exposedCommFraction() const
    {
        double denom = stepTime * numGpus;
        return denom > 0 ? exposedCommTime / denom : 0.0;
    }

    /** Traffic relative to the FP32 model size (Fig. 6 metric). */
    double
    trafficRatio(Bytes model_bytes_fp32) const
    {
        return model_bytes_fp32 > 0
            ? static_cast<double>(traffic.totalBytes()) /
                static_cast<double>(model_bytes_fp32)
            : 0.0;
    }
};

} // namespace mobius

#endif // MOBIUS_RUNTIME_STEP_STATS_HH
