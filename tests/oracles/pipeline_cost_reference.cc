#include "oracles/pipeline_cost_reference.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mobius
{

PipelineEstimate
pipelineCostReference(const PipelineCostEvaluator &eval,
                      const Partition &partition)
{
    const CostModel &cm = eval.cost();
    const PipelineEnv &env = eval.env();
    checkPartition(partition, cm.numLayers());

    const int S = static_cast<int>(partition.size());
    const int N = env.numGpus;
    const int M = cm.cfg().numMicrobatches;
    const double B = env.avgBandwidth;
    const Bytes G = env.gpuMemBytes;

    PipelineEstimate est;
    est.stages.resize(static_cast<std::size_t>(S));

    // Per-stage constants.
    std::vector<Bytes> w(S), memF(S), memB(S), aOut(S), aIn(S),
        grad(S);
    std::vector<double> tf(S), tb(S);
    for (int j = 0; j < S; ++j) {
        const auto &st = partition[j];
        w[j] = cm.rangeParamBytes(st.lo, st.hi);
        grad[j] = cm.rangeGradBytes(st.lo, st.hi);
        memF[j] = cm.stageMemFwd(st.lo, st.hi);
        memB[j] = cm.stageMemBwd(st.lo, st.hi);
        aOut[j] = cm.actBytes(st.hi - 1);
        aIn[j] = cm.inActBytes(st.lo);
        tf[j] = cm.rangeFwdTime(st.lo, st.hi);
        tb[j] = cm.rangeBwdTime(st.lo, st.hi);

        // Eq. 4: S_j^e <= G.
        if (memF[j] > G || memB[j] > G) {
            est.feasible = false;
            est.infeasibleReason = strfmt(
                "stage %d needs %s fwd / %s bwd, GPU has %s", j,
                formatBytes(memF[j]).c_str(),
                formatBytes(memB[j]).c_str(),
                formatBytes(G).c_str());
            return est;
        }
    }

    auto &stages = est.stages;

    // ---------------- Forward ---------------------------------------
    // start[j][m] recurrences; only the previous microbatch row is
    // needed, kept per stage.
    std::vector<std::vector<double>> fstart(
        static_cast<std::size_t>(S),
        std::vector<double>(static_cast<std::size_t>(M), 0.0));

    for (int j = 0; j < S; ++j) {
        // Weight readiness (Eq. 9 with prefetch Eq. 5-6).
        double ready;
        if (j < N) {
            // First stage on this GPU: blocking initial upload.
            ready = static_cast<double>(w[j]) / B;
        } else {
            double window_start = fstart[j - N][0];
            double window_end =
                fstart[j - N][M - 1] + tf[j - N];
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - memF[j - N]; // Eq. 5 (memF <= G)
            Bytes by_time =
                static_cast<Bytes>(window * B); // Eq. 6
            Bytes prefetched =
                std::min({w[j], reserve, by_time});
            stages[j].prefetchedFwd = prefetched;
            ready = window_end +
                static_cast<double>(w[j] - prefetched) / B;
        }
        stages[j].fwdReady = ready;

        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (m > 0) // Eq. 10
                t = std::max(t, fstart[j][m - 1] + tf[j]);
            if (j > 0) { // Eq. 8: activation arrival
                t = std::max(t, fstart[j - 1][m] + tf[j - 1] +
                                    static_cast<double>(aOut[j - 1]) /
                                        B);
            }
            fstart[j][m] = t;
        }
        stages[j].fwdStart = fstart[j][0];
        stages[j].fwdEnd = fstart[j][M - 1] + tf[j];
    }

    // ---------------- Backward --------------------------------------
    std::vector<std::vector<double>> bstart(
        static_cast<std::size_t>(S),
        std::vector<double>(static_cast<std::size_t>(M), 0.0));

    for (int j = S - 1; j >= 0; --j) {
        bool resident = env.keepResidentTail && j >= S - N &&
            memB[j] <= G;
        stages[j].residentForBwd = resident;

        double ready;
        if (resident) {
            ready = stages[j].fwdEnd;
        } else if (j >= S - N) {
            // Last-round stage that cannot stay resident: blocking
            // reload right after its own forward.
            ready = stages[j].fwdEnd + static_cast<double>(w[j]) / B;
        } else {
            double window_start = bstart[j + N][0];
            double window_end = bstart[j + N][M - 1] + tb[j + N];
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - memB[j + N];
            Bytes by_time = static_cast<Bytes>(window * B);
            Bytes prefetched = std::min({w[j], reserve, by_time});
            stages[j].prefetchedBwd = prefetched;
            ready = window_end +
                static_cast<double>(w[j] - prefetched) / B;
        }
        stages[j].bwdReady = ready;

        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (j == S - 1) {
                // Eq. 11: backward begins once forward is complete.
                t = std::max(t, stages[j].fwdEnd);
            }
            if (m > 0)
                t = std::max(t, bstart[j][m - 1] + tb[j]);
            if (j < S - 1) { // Eq. 8 backward direction
                t = std::max(t, bstart[j + 1][m] + tb[j + 1] +
                                    static_cast<double>(aOut[j]) / B);
            }
            bstart[j][m] = t;
        }
        stages[j].bwdStart = bstart[j][0];
        stages[j].bwdEnd = bstart[j][M - 1] + tb[j];
    }

    // Step ends when the last gradient flush lands in DRAM.
    double step = 0.0;
    for (int j = 0; j < S; ++j) {
        step = std::max(step, stages[j].bwdEnd +
                                  static_cast<double>(grad[j]) / B);
    }
    est.stepTime = step;
    est.feasible = true;

    // Implied traffic (Eq. 1): weights down (twice minus resident
    // tail), checkpoints both ways, boundary activations between
    // stages, gradients up.
    Bytes comm = 0;
    for (int j = 0; j < S; ++j) {
        comm += w[j];                     // forward upload
        if (!stages[j].residentForBwd)
            comm += w[j];                 // backward re-upload
        comm += grad[j];                  // gradient flush
        comm += 2 * aIn[j] * static_cast<Bytes>(M); // checkpoints
        if (j + 1 < S)
            comm += 2 * aOut[j] * static_cast<Bytes>(M); // act + grad
    }
    est.commBytes = comm;
    return est;
}

} // namespace mobius
