#include "profile/profiler.hh"

#include <set>

namespace mobius
{

namespace
{

/** Rate at which a profiled layer's weights are uploaded (B/s). */
constexpr double kUploadBandwidth = 13.1e9;

/** Timed forward+backward runs per measured layer. */
constexpr int kIterations = 3;

} // namespace

ProfileResult
profileModel(const CostModel &cost, const ProfilerConfig &cfg)
{
    ProfileResult result;
    std::set<int> seen; // similarity classes already measured

    for (int i = 0; i < cost.numLayers(); ++i) {
        if (cfg.useLayerSimilarity &&
            !seen.insert(cost.model().layers[i].similarityClass)
                 .second) {
            continue;
        }
        // Cost of measuring this layer: upload its weights once at
        // PCIe speed (prefetch disabled), then time a few fwd+bwd
        // iterations.
        double upload = static_cast<double>(cost.paramBytes(i)) /
            kUploadBandwidth;
        result.profilingTime += upload +
            kIterations * (cost.fwdTime(i) + cost.bwdTime(i));
        ++result.profiledLayers;
    }
    return result;
}

} // namespace mobius
