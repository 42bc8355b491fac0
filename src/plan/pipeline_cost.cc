#include "plan/pipeline_cost.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace mobius
{

PipelineCostEvaluator::PipelineCostEvaluator(const CostModel &cost,
                                             PipelineEnv env)
    : cost_(&cost), env_(env), numLayers_(cost.numLayers())
{
    if (env_.numGpus < 1)
        fatal("pipeline needs at least one GPU");
    if (env_.gpuMemBytes == 0)
        fatal("pipeline env needs a GPU memory capacity");

    const int L = numLayers_;
    const auto n = static_cast<std::size_t>(L);
    std::vector<Bytes> param(n), grad(n), act(n), in_act(n), work(n);
    std::vector<double> fwd(n), bwd(n);
    actTime_.resize(n);
    for (int i = 0; i < L; ++i) {
        param[i] = cost.paramBytes(i);
        grad[i] = cost.gradBytes(i);
        act[i] = cost.actBytes(i);
        in_act[i] = cost.inActBytes(i);
        work[i] = cost.workBytes(i);
        fwd[i] = cost.fwdTime(i);
        bwd[i] = cost.bwdTime(i);
        actTime_[i] = static_cast<double>(act[i]) / env_.avgBandwidth;
    }

    // Each entry extends [lo, hi - 1) by layer hi - 1, so every sum
    // adds the same terms in the same order as CostModel::range*
    // and stageMem*: the doubles are bitwise equal to re-summing.
    table_.resize(n * n);
    for (int lo = 0; lo < L; ++lo) {
        Bytes w = 0, g = 0, live_f = 0, live_b = 0;
        double tf = 0, tb = 0;
        for (int hi = lo + 1; hi <= L; ++hi) {
            const int i = hi - 1;
            w += param[i];
            g += grad[i];
            tf += fwd[i];
            tb += bwd[i];
            live_f = std::max(live_f, in_act[i] + act[i] + work[i]);
            live_b = std::max(live_b, 2 * (in_act[i] + act[i]) + work[i]);
            StageCosts &c = table_[static_cast<std::size_t>(lo) * n +
                                   static_cast<std::size_t>(i)];
            c.w = w;
            c.grad = g;
            c.memF = w + live_f;
            c.memB = w + g + live_b;
            c.tf = tf;
            c.tb = tb;
        }
    }
}

PipelineEstimate
PipelineCostEvaluator::evaluate(const Partition &partition) const
{
    PipelineEstimate est;
    Workspace ws;
    schedule(partition, ws, &est);
    return est;
}

double
PipelineCostEvaluator::score(const Partition &partition,
                             Workspace &ws) const
{
    return schedule(partition, ws, nullptr);
}

double
PipelineCostEvaluator::schedule(const Partition &partition,
                                Workspace &ws,
                                PipelineEstimate *detail) const
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    checkPartition(partition, numLayers_);

    const int S = static_cast<int>(partition.size());
    const int N = env_.numGpus;
    const int M = cost_->cfg().numMicrobatches;
    const double B = env_.avgBandwidth;
    const Bytes G = env_.gpuMemBytes;

    StageSchedule *out = nullptr;
    if (detail) {
        detail->stages.resize(static_cast<std::size_t>(S));
        out = detail->stages.data();
    }
    ws.stages_.resize(static_cast<std::size_t>(S));
    ws.row_.resize(static_cast<std::size_t>(M));
    Workspace::Stage *st = ws.stages_.data();
    double *row = ws.row_.data();

    // Per-stage constants.
    for (int j = 0; j < S; ++j) {
        const StageRange &r = partition[j];
        const StageCosts &c = stageCosts(r.lo, r.hi);
        st[j].costs = &c;
        st[j].actTime = actTime_[r.hi - 1];

        // Eq. 4: S_j^e <= G.
        if (c.memF > G || c.memB > G) {
            if (detail) {
                detail->feasible = false;
                detail->infeasibleReason = strfmt(
                    "stage %d needs %s fwd / %s bwd, GPU has %s", j,
                    formatBytes(c.memF).c_str(),
                    formatBytes(c.memB).c_str(),
                    formatBytes(G).c_str());
            }
            return kInf;
        }
    }

    // ---------------- Forward ---------------------------------------
    // row[m] holds stage j-1's start of microbatch m until stage j
    // overwrites it, so one row carries the whole recurrence.
    for (int j = 0; j < S; ++j) {
        const StageCosts &c = *st[j].costs;
        // Weight readiness (Eq. 9 with prefetch Eq. 5-6).
        double ready;
        if (j < N) {
            // First stage on this GPU: blocking initial upload.
            ready = static_cast<double>(c.w) / B;
        } else {
            const Workspace::Stage &prev = st[j - N];
            double window_start = prev.fwdStart;
            double window_end = prev.fwdEnd;
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - prev.costs->memF; // Eq. 5 (memF <= G)
            Bytes by_time = static_cast<Bytes>(window * B); // Eq. 6
            Bytes prefetched = std::min({c.w, reserve, by_time});
            if (out)
                out[j].prefetchedFwd = prefetched;
            ready = window_end +
                static_cast<double>(c.w - prefetched) / B;
        }

        const double tf = c.tf;
        const double up = j > 0 ? st[j - 1].costs->tf : 0.0;
        const double up_act = j > 0 ? st[j - 1].actTime : 0.0;
        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (m > 0) // Eq. 10
                t = std::max(t, row[m - 1] + tf);
            if (j > 0) // Eq. 8: activation arrival
                t = std::max(t, row[m] + up + up_act);
            row[m] = t;
        }
        st[j].fwdStart = row[0];
        st[j].fwdEnd = row[M - 1] + tf;
        if (out) {
            out[j].fwdReady = ready;
            out[j].fwdStart = st[j].fwdStart;
            out[j].fwdEnd = st[j].fwdEnd;
        }
    }

    // ---------------- Backward --------------------------------------
    for (int j = S - 1; j >= 0; --j) {
        const StageCosts &c = *st[j].costs;
        bool resident =
            env_.keepResidentTail && j >= S - N && c.memB <= G;

        double ready;
        if (resident) {
            ready = st[j].fwdEnd;
        } else if (j >= S - N) {
            // Last-round stage that cannot stay resident: blocking
            // reload right after its own forward.
            ready = st[j].fwdEnd + static_cast<double>(c.w) / B;
        } else {
            const Workspace::Stage &next = st[j + N];
            double window_start = next.bwdStart;
            double window_end = next.bwdEnd;
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - next.costs->memB;
            Bytes by_time = static_cast<Bytes>(window * B);
            Bytes prefetched = std::min({c.w, reserve, by_time});
            if (out)
                out[j].prefetchedBwd = prefetched;
            ready = window_end +
                static_cast<double>(c.w - prefetched) / B;
        }

        const double tb = c.tb;
        const double down = j < S - 1 ? st[j + 1].costs->tb : 0.0;
        const double act = st[j].actTime;
        const double barrier = st[j].fwdEnd;
        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (j == S - 1) {
                // Eq. 11: backward begins once forward is complete.
                t = std::max(t, barrier);
            }
            if (m > 0)
                t = std::max(t, row[m - 1] + tb);
            if (j < S - 1) // Eq. 8 backward direction
                t = std::max(t, row[m] + down + act);
            row[m] = t;
        }
        st[j].bwdStart = row[0];
        st[j].bwdEnd = row[M - 1] + tb;
        if (out) {
            out[j].residentForBwd = resident;
            out[j].bwdReady = ready;
            out[j].bwdStart = st[j].bwdStart;
            out[j].bwdEnd = st[j].bwdEnd;
        }
    }

    // Step ends when the last gradient flush lands in DRAM.
    double step = 0.0;
    for (int j = 0; j < S; ++j) {
        step = std::max(step, st[j].bwdEnd +
                                  static_cast<double>(st[j].costs->grad) /
                                      B);
    }
    if (!detail)
        return step;
    detail->stepTime = step;
    detail->feasible = true;

    // Implied traffic (Eq. 1): weights down (twice minus resident
    // tail), checkpoints both ways, boundary activations between
    // stages, gradients up.
    Bytes comm = 0;
    for (int j = 0; j < S; ++j) {
        const StageCosts &c = *st[j].costs;
        comm += c.w;                      // forward upload
        if (!out[j].residentForBwd)
            comm += c.w;                  // backward re-upload
        comm += c.grad;                   // gradient flush
        comm += 2 * cost_->inActBytes(partition[j].lo) *
            static_cast<Bytes>(M);        // checkpoints
        if (j + 1 < S)
            comm += 2 * cost_->actBytes(partition[j].hi - 1) *
                static_cast<Bytes>(M);    // act + grad
    }
    detail->commBytes = comm;
    return step;
}

} // namespace mobius
