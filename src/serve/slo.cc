#include "serve/slo.hh"

#include <cmath>

#include "base/fnv.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace mobius
{

double
effectiveSlo(const ServeRequest &spec, const SloConfig &slo)
{
    return spec.sloSeconds > 0.0 ? spec.sloSeconds : slo.e2eSeconds;
}

std::uint64_t
serveFingerprint(const std::vector<RequestRecord> &records)
{
    std::uint64_t h = fnv::kOffset;
    fnv::mixU64(h, records.size());
    for (const RequestRecord &r : records) {
        fnv::mixU64(h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(r.spec.id)));
        fnv::mixDouble(h, r.spec.arrival);
        fnv::mixU64(h,
                    static_cast<std::uint64_t>(r.spec.promptTokens));
        fnv::mixDouble(h, r.admit);
        fnv::mixDouble(h, r.firstToken);
        fnv::mixDouble(h, r.finish);
        fnv::mixU64(h, static_cast<std::uint64_t>(r.generated));
        fnv::mixU64(h, static_cast<std::uint64_t>(r.iterations));
        fnv::mixU64(h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(r.gpu)));
        fnv::mixU64(h, r.sloMet ? 1 : 0);
        fnv::mixDouble(h, r.lat.queue);
        fnv::mixDouble(h, r.lat.prefill);
        fnv::mixDouble(h, r.lat.decode);
        fnv::mixDouble(h, r.lat.swapStall);
    }
    return h;
}

ServeMetrics
reduceServeMetrics(const std::vector<RequestRecord> &records,
                   double makespan)
{
    MOBIUS_PROF_ZONE("serve.reduce");
    ServeMetrics m;
    m.requests = records.size();
    m.makespan = makespan;

    std::vector<double> e2e;
    std::vector<double> ttft;
    e2e.reserve(records.size());
    ttft.reserve(records.size());
    double tokens = 0.0;
    double sloTokens = 0.0;
    for (const RequestRecord &r : records) {
        if (r.finish < 0.0)
            continue;
        ++m.completed;
        const double lat = r.e2e();
        e2e.push_back(lat);
        ttft.push_back(r.ttft());
        m.e2eMean += lat;
        if (lat > m.e2eMax)
            m.e2eMax = lat;
        m.queueSeconds += r.lat.queue;
        m.prefillSeconds += r.lat.prefill;
        m.decodeSeconds += r.lat.decode;
        m.stallSeconds += r.lat.swapStall;
        const double drift = std::fabs(r.lat.total() - lat);
        if (drift > m.worstSumDrift)
            m.worstSumDrift = drift;
        const double tok = static_cast<double>(r.totalTokens());
        tokens += tok;
        if (r.sloMet) {
            ++m.sloMet;
            sloTokens += tok;
        }
    }
    if (m.completed > 0) {
        m.e2eMean /= static_cast<double>(m.completed);
        m.e2eP50 = exactQuantile(e2e, 0.50);
        m.e2eP99 = exactQuantile(e2e, 0.99);
        m.ttftP50 = exactQuantile(ttft, 0.50);
        m.ttftP99 = exactQuantile(ttft, 0.99);
        m.sloAttainment = static_cast<double>(m.sloMet) /
                          static_cast<double>(m.completed);
    }
    if (makespan > 0.0) {
        m.tokensPerSec = tokens / makespan;
        m.requestsPerSec =
            static_cast<double>(m.completed) / makespan;
        m.sloGoodputTokensPerSec = sloTokens / makespan;
    }
    m.fingerprint = serveFingerprint(records);
    return m;
}

} // namespace mobius
