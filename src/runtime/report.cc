#include "runtime/report.hh"

#include <sstream>

#include "base/json.hh"

namespace mobius
{

std::string
stepStatsToJson(const StepStats &stats, Bytes model_bytes_fp32)
{
    std::ostringstream os;
    os.precision(9);
    os << "{\"system\":\"" << json::escape(stats.system) << "\""
       << ",\"step_seconds\":" << stats.stepTime
       << ",\"num_gpus\":" << stats.numGpus
       << ",\"traffic_bytes\":" << stats.traffic.totalBytes()
       << ",\"compute_seconds\":" << stats.computeTime
       << ",\"exposed_comm_seconds\":" << stats.exposedCommTime
       << ",\"overlapped_comm_seconds\":"
       << stats.overlappedCommTime
       << ",\"exposed_comm_fraction\":"
       << stats.exposedCommFraction();
    if (model_bytes_fp32 > 0) {
        os << ",\"model_bytes_fp32\":" << model_bytes_fp32
           << ",\"traffic_ratio\":"
           << stats.trafficRatio(model_bytes_fp32);
    }
    os << ",\"traffic\":{";
    bool first = true;
    for (auto kind :
         {TrafficKind::Parameter, TrafficKind::Activation,
          TrafficKind::ActivationGrad, TrafficKind::Gradient}) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << trafficKindName(kind)
           << "\":" << stats.traffic.bytesOf(kind);
    }
    os << "}";
    const FaultCounters &fc = stats.faults;
    if (fc.failures > 0 || fc.retries > 0 || fc.crashes > 0 ||
        fc.seconds() > 0.0) {
        os << ",\"fault\":{\"failures\":" << fc.failures
           << ",\"retries\":" << fc.retries
           << ",\"crashes\":" << fc.crashes
           << ",\"seconds\":" << fc.seconds() << "}";
    }
    os << "}";
    return os.str();
}

std::string
planToJson(const MobiusPlan &plan)
{
    std::ostringstream os;
    os.precision(9);
    os << "{\"stages\":[";
    for (std::size_t j = 0; j < plan.partition.size(); ++j) {
        if (j)
            os << ",";
        os << "{\"lo\":" << plan.partition[j].lo
           << ",\"hi\":" << plan.partition[j].hi
           << ",\"gpu\":" << plan.mapping.gpuOf(static_cast<int>(j))
           << "}";
    }
    os << "],\"gpu_order\":[";
    for (std::size_t g = 0; g < plan.mapping.gpuOrder.size(); ++g) {
        if (g)
            os << ",";
        os << plan.mapping.gpuOrder[g];
    }
    os << "],\"contention_degree\":" << plan.mapping.contention
       << ",\"estimate_seconds\":" << plan.estimate.stepTime
       << ",\"profiling_seconds\":" << plan.profilingSeconds
       << ",\"solve_seconds\":" << plan.solveSeconds
       << ",\"mapping_seconds\":" << plan.mappingSeconds << "}";
    return os.str();
}

std::string
manifestToJson(const RunManifest &m)
{
    std::ostringstream os;
    os << "{\"model\":\"" << json::escape(m.model) << "\""
       << ",\"topo\":\"" << json::escape(m.topo) << "\""
       << ",\"system\":\"" << json::escape(m.system) << "\""
       << ",\"partition\":\"" << json::escape(m.partition) << "\""
       << ",\"mapping\":\"" << json::escape(m.mapping) << "\""
       << ",\"microbatch_size\":" << m.microbatchSize
       << ",\"num_microbatches\":" << m.numMicrobatches
       << ",\"steps\":" << m.steps
       << ",\"trace_file\":\"" << json::escape(m.traceFile) << "\""
       << ",\"metrics_file\":\"" << json::escape(m.metricsFile)
       << "\"}";
    return os.str();
}

FineTuneEstimate
estimateFineTune(const Server &server, double step_seconds,
                 int steps)
{
    FineTuneEstimate est;
    est.hours = step_seconds * steps / 3600.0;
    est.dollars = est.hours * server.dollarsPerHour;
    return est;
}

} // namespace mobius
