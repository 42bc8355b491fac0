/**
 * @file
 * SLO accounting and the serving metrics roll-up.
 *
 * A request meets its SLO when it finishes within its end-to-end
 * deadline (per-request override, else the sim-wide default; no
 * deadline = always met). The headline number is SLO goodput: tokens
 * of SLO-meeting requests per second of makespan — the quantity that
 * collapses when a placement policy cannot keep up with offered load,
 * which is exactly what the Mobius-swap vs ZeRO-gather comparison
 * gates on.
 *
 * reduceServeMetrics() folds the per-request records into one
 * ServeMetrics: latency quantiles via obs' exactQuantile, SLO
 * attainment/goodput, throughput, and a stable FNV-1a fingerprint
 * over every record — the equality gate the bench uses to prove a
 * fixed seed is byte-identical at any --threads width.
 */

#ifndef MOBIUS_SERVE_SLO_HH
#define MOBIUS_SERVE_SLO_HH

#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "fault/fault_injector.hh"
#include "serve/request.hh"

namespace mobius
{

/** Sim-wide SLO policy. */
struct SloConfig
{
    /** Default end-to-end deadline seconds; 0 = no SLO (always met). */
    double e2eSeconds = 0.0;
};

/** @return the effective deadline for @p spec (0 = none). */
double effectiveSlo(const ServeRequest &spec, const SloConfig &slo);

/** One serving run, reduced. */
struct ServeMetrics
{
    std::uint64_t requests = 0;  //!< submitted
    std::uint64_t completed = 0; //!< finished generation
    std::uint64_t sloMet = 0;    //!< finished within deadline
    double makespan = 0.0;       //!< last finish time (seconds)

    double e2eP50 = 0.0;  //!< median end-to-end latency
    double e2eP99 = 0.0;  //!< tail end-to-end latency
    double e2eMean = 0.0; //!< mean end-to-end latency
    double e2eMax = 0.0;  //!< worst end-to-end latency
    double ttftP50 = 0.0; //!< median time to first token
    double ttftP99 = 0.0; //!< tail time to first token

    /** Totals of the per-request latency categories (seconds). */
    double queueSeconds = 0.0;
    double prefillSeconds = 0.0;
    double decodeSeconds = 0.0;
    double stallSeconds = 0.0;
    /** max over requests of |sum(categories) - e2e| — gated 1e-9. */
    double worstSumDrift = 0.0;

    double tokensPerSec = 0.0;   //!< all processed tokens / makespan
    double requestsPerSec = 0.0; //!< completed / makespan
    double sloAttainment = 0.0;  //!< sloMet / completed
    /** Tokens of SLO-meeting requests / makespan — the headline. */
    double sloGoodputTokensPerSec = 0.0;

    double avgOccupancy = 0.0;     //!< mean running batch size
    int maxOccupancy = 0;          //!< peak running batch size
    std::uint64_t iterations = 0;  //!< batch iterations executed
    std::uint64_t swapLoads = 0;   //!< weight stage loads issued
    Bytes swapBytes = 0;           //!< weight bytes moved H2D
    std::uint64_t switches = 0;    //!< adaptive placement switches
    std::uint64_t admissions = 0;  //!< requests admitted to batches

    /** The injector's counters (all zero without a fault plan). */
    FaultCounters faults;

    /** FNV-1a digest of every per-request record, in id order. */
    std::uint64_t fingerprint = 0;
};

/**
 * Reduce @p records (all of them completed) into the request-derived
 * fields of ServeMetrics; the simulator fills the batch/swap/fault
 * fields afterwards. @p makespan is the last finish time.
 */
ServeMetrics reduceServeMetrics(
    const std::vector<RequestRecord> &records, double makespan);

/** The fingerprint alone (also folded by reduceServeMetrics). */
std::uint64_t
serveFingerprint(const std::vector<RequestRecord> &records);

} // namespace mobius

#endif // MOBIUS_SERVE_SLO_HH
