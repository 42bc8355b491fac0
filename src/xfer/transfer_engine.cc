#include "xfer/transfer_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "obs/prof.hh"
#include "xfer/fair_share.hh"

namespace mobius
{

TransferEngine::TransferEngine(EventQueue &queue, const Topology &topo,
                               UsageTracker *usage,
                               TransferEngineConfig cfg,
                               TraceRecorder *trace,
                               MetricsRegistry *metrics)
    : queue_(queue), topo_(topo), usage_(usage), cfg_(cfg),
      trace_(trace)
{
    // PCIe H2D/D2H engines plus dedicated NVLink send/receive
    // engines per GPU.
    engines_.resize(static_cast<std::size_t>(topo.numGpus()) * 4);
    poolCapacity_.resize(static_cast<std::size_t>(topo.numLinks()) * 2);
    for (int l = 0; l < topo.numLinks(); ++l) {
        poolCapacity_[static_cast<std::size_t>(l) * 2] =
            topo.link(l).capacity;
        poolCapacity_[static_cast<std::size_t>(l) * 2 + 1] =
            topo.link(l).capacity;
    }
    basePoolCapacity_ = poolCapacity_;
    poolUsers_.resize(poolCapacity_.size());
    poolMark_.resize(poolCapacity_.size(), 0);
    flows_.reserve(64);

    if (metrics && metrics->enabled()) {
        mLinkBytes_.resize(static_cast<std::size_t>(topo.numLinks()));
        for (int l = 0; l < topo.numLinks(); ++l) {
            mLinkBytes_[static_cast<std::size_t>(l)] =
                &metrics->counter("link." + topo.link(l).name +
                                  ".bytes");
        }
        mQueueDepth_ = &metrics->gauge("xfer.queue.depth");
        mActiveFlows_ = &metrics->gauge("xfer.flows.active");
        mSubmitted_ = &metrics->counter("xfer.flows.submitted");
        mCompleted_ = &metrics->counter("xfer.flows.completed");
        mFailed_ = &metrics->counter("xfer.flows.failed");
        mStalled_ = &metrics->counter("xfer.flows.stalled");
        mRecomputes_ = &metrics->counter("xfer.rate.recomputes");
        mFlowsTouched_ =
            &metrics->counter("xfer.rate.flows_touched");
        mFlowsSkipped_ =
            &metrics->counter("xfer.rate.flows_skipped");
        mBandwidth_ = &metrics->histogram("xfer.bandwidth");
        mFairShareRounds_ =
            &metrics->histogram("xfer.fair_share.rounds");
    }
}

void
TransferEngine::setLinkCapacityFactor(int link, double factor)
{
    if (link < 0 || link >= topo_.numLinks())
        panic("setLinkCapacityFactor: no link %d", link);
    if (!(factor > 0.0))
        panic("link capacity factor must be > 0, got %g", factor);
    std::vector<int> seeds;
    for (int d = 0; d < 2; ++d) {
        std::size_t pool = static_cast<std::size_t>(link) * 2 +
            static_cast<std::size_t>(d);
        poolCapacity_[pool] = basePoolCapacity_[pool] * factor;
        seeds.push_back(static_cast<int>(pool));
    }
    updateRates(seeds, nullptr);
}

FlowId
TransferEngine::submit(TransferRequest req)
{
    if (req.src == req.dst)
        panic("transfer with identical endpoints");

    Flow flow;
    flow.id = nextId_++;
    flow.seq = nextSeq_++;
    flow.req = std::move(req);
    flow.remaining = flow.req.bytes;
    flow.submitTime = queue_.now();

    // Route. GPU->GPU without P2P is staged through DRAM: model the
    // chunked staging as one cut-through flow across both legs.
    std::vector<Hop> hops;
    const Endpoint &src = flow.req.src;
    const Endpoint &dst = flow.req.dst;
    if (!src.isDram && !dst.isDram && !topo_.gpudirectP2p()) {
        auto up = topo_.route(src, Endpoint::dram());
        auto down = topo_.route(Endpoint::dram(), dst);
        hops = std::move(up);
        hops.insert(hops.end(), down.begin(), down.end());
    } else {
        hops = topo_.route(src, dst);
    }
    bool all_peer = !hops.empty();
    for (const auto &h : hops) {
        flow.pools.push_back(h.poolId());
        all_peer = all_peer && topo_.link(h.link).peer;
    }

    // Copy engines: sender's D2H and/or receiver's H2D. Pure-NVLink
    // routes use the dedicated NVLink engines instead.
    flow.peerOnly = all_peer;
    if (all_peer) {
        flow.engines.push_back(nvlinkEngineId(src.gpu, true));
        flow.engines.push_back(nvlinkEngineId(dst.gpu, false));
    } else {
        if (!src.isDram)
            flow.engines.push_back(engineId(src.gpu, true));
        if (!dst.isDram)
            flow.engines.push_back(engineId(dst.gpu, false));
    }

    // Usage tracking and stats attribution.
    if (!src.isDram)
        flow.commGpus.push_back(src.gpu);
    if (!dst.isDram)
        flow.commGpus.push_back(dst.gpu);
    if (flow.req.statsGpu < 0) {
        flow.req.statsGpu =
            !dst.isDram ? dst.gpu : (!src.isDram ? src.gpu : -1);
    }

    FlowId id = flow.id;
    flows_.emplace(id, std::move(flow));
    if (mSubmitted_) {
        mSubmitted_->add();
        ++waitingCount_;
        mQueueDepth_->set(waitingCount_);
    }
    enqueueOnEngines(flows_.at(id));
    tryStartFlows();
    return id;
}

void
TransferEngine::enqueueOnEngines(Flow &flow)
{
    for (int e : flow.engines) {
        auto &waiting = engines_[e].waiting;
        // Insert keeping (priority, seq) order.
        auto pos = waiting.end();
        for (auto it = waiting.begin(); it != waiting.end(); ++it) {
            const Flow &other = flows_.at(*it);
            if (other.req.priority > flow.req.priority ||
                (other.req.priority == flow.req.priority &&
                 other.seq > flow.seq)) {
                pos = it;
                break;
            }
        }
        waiting.insert(pos, flow.id);
    }
}

bool
TransferEngine::canStart(const Flow &flow) const
{
    for (int e : flow.engines) {
        const CopyEngine &eng = engines_[e];
        if (eng.current != 0)
            return false;
        if (eng.waiting.empty() || eng.waiting.front() != flow.id)
            return false;
    }
    return true;
}

void
TransferEngine::tryStartFlows()
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &eng : engines_) {
            if (eng.current != 0 || eng.waiting.empty())
                continue;
            FlowId id = eng.waiting.front();
            Flow &flow = flows_.at(id);
            if (flow.state != FlowState::Waiting)
                continue;
            if (canStart(flow)) {
                beginSetup(flow);
                progress = true;
            }
        }
    }
}

void
TransferEngine::beginSetup(Flow &flow)
{
    flow.state = FlowState::Setup;
    if (mQueueDepth_) {
        --waitingCount_;
        mQueueDepth_->set(waitingCount_);
        ++activeCount_;
        mActiveFlows_->set(activeCount_);
    }
    for (int e : flow.engines) {
        auto &eng = engines_[e];
        eng.waiting.pop_front();
        eng.current = flow.id;
    }
    if (usage_) {
        for (int g : flow.commGpus)
            usage_->commBegin(g);
    }
    FlowId id = flow.id;
    flow.pendingEvent = queue_.scheduleAfter(
        cfg_.setupLatency, [this, id] { beginData(id); });
}

void
TransferEngine::addToPools(Flow &flow)
{
    for (int pool : flow.pools)
        poolUsers_[static_cast<std::size_t>(pool)].push_back(&flow);
    ++movingCount_;
}

void
TransferEngine::removeFromPools(const Flow &flow)
{
    for (int pool : flow.pools) {
        auto &users = poolUsers_[static_cast<std::size_t>(pool)];
        users.erase(std::find(users.begin(), users.end(), &flow));
    }
    --movingCount_;
}

void
TransferEngine::beginData(FlowId id)
{
    Flow &flow = flows_.at(id);
    flow.state = FlowState::Moving;
    flow.pendingEvent = kNoEvent;
    flow.dataStart = queue_.now();
    flow.lastUpdate = queue_.now();
    addToPools(flow);
    if (flow.remaining == 0) {
        finish(id);
        return;
    }
    updateRates(flow.pools, &flow);
}

void
TransferEngine::updateRates(const std::vector<int> &seed_pools,
                            Flow *seed_flow)
{
    MOBIUS_PROF_ZONE("xfer.update_rates");
    // Walk the connected component of moving flows reachable from
    // the seeds through shared pools. Epoch stamps make the walk
    // allocation-free; the result is sorted so the solver sees flows
    // in submission order, exactly as a full recompute would.
    ++walkEpoch_;
    compFlows_.clear();
    compPools_.clear();
    auto visitPool = [this](int pool) {
        std::size_t p = static_cast<std::size_t>(pool);
        if (poolMark_[p] != walkEpoch_) {
            poolMark_[p] = walkEpoch_;
            compPools_.push_back(pool);
        }
    };
    auto visitFlow = [this, &visitPool](Flow &f) {
        if (f.mark != walkEpoch_) {
            f.mark = walkEpoch_;
            compFlows_.push_back(&f);
            for (int pool : f.pools)
                visitPool(pool);
        }
    };
    if (seed_flow)
        visitFlow(*seed_flow);
    for (int pool : seed_pools)
        visitPool(pool);
    for (std::size_t i = 0; i < compPools_.size(); ++i) {
        auto &users =
            poolUsers_[static_cast<std::size_t>(compPools_[i])];
        for (Flow *f : users)
            visitFlow(*f);
    }

    if (movingCount_ > 0 || !compFlows_.empty()) {
        ++fsActivity_.solves;
        fsActivity_.flowsTouched += compFlows_.size();
        fsActivity_.flowsSkipped +=
            static_cast<std::uint64_t>(movingCount_) -
            compFlows_.size();
        if (mFlowsTouched_) {
            mFlowsTouched_->add(
                static_cast<double>(compFlows_.size()));
            mFlowsSkipped_->add(static_cast<double>(
                static_cast<std::uint64_t>(movingCount_) -
                compFlows_.size()));
        }
    }
    if (compFlows_.empty())
        return;
    std::sort(compFlows_.begin(), compFlows_.end(),
              [](const Flow *a, const Flow *b) { return a->id < b->id; });

    // Integrate progress of every component flow since its last
    // update, and hand it to the solver (pool list read in place).
    // Untouched flows keep integrating at their unchanged rate;
    // their scheduled completion stays exact.
    for (Flow *fp : compFlows_) {
        Flow &f = *fp;
        double dt = queue_.now() - f.lastUpdate;
        if (dt > 0 && f.rate > 0) {
            double moved = f.rate * dt;
            if (moved >= static_cast<double>(f.remaining))
                f.remaining = 0;
            else
                f.remaining -= static_cast<Bytes>(moved);
        }
        f.lastUpdate = queue_.now();
        solver_.addFlow(f.pools, f.req.rateCap);
    }

    FairShareStats fsStats;
    const std::vector<double> &rates = solver_.solve(
        poolCapacity_, mRecomputes_ ? &fsStats : nullptr);
    if (mRecomputes_) {
        mRecomputes_->add();
        mFairShareRounds_->record(fsStats.rounds);
    }

    for (std::size_t i = 0; i < compFlows_.size(); ++i) {
        Flow &f = *compFlows_[i];
        f.rate = rates[i];
        if (f.pendingEvent != kNoEvent) {
            queue_.cancel(f.pendingEvent);
            f.pendingEvent = kNoEvent;
        }
        if (f.rate <= 0)
            panic("flow %llu got zero rate",
                  static_cast<unsigned long long>(f.id));
        double eta = static_cast<double>(f.remaining) / f.rate;
        FlowId id = f.id;
        f.pendingEvent =
            queue_.scheduleAfter(eta, [this, id] { finish(id); });
    }

    if (cfg_.fairShareCrossCheck)
        crossCheckRates();
}

void
TransferEngine::crossCheckRates()
{
    ++fsActivity_.crossChecks;
    std::vector<FlowId> moving;
    moving.reserve(static_cast<std::size_t>(movingCount_));
    for (const auto &[id, f] : flows_) {
        if (f.state == FlowState::Moving)
            moving.push_back(id);
    }
    std::sort(moving.begin(), moving.end());

    std::vector<FairShareFlow> fs(moving.size());
    for (std::size_t i = 0; i < moving.size(); ++i) {
        const Flow &f = flows_.at(moving[i]);
        fs[i].pools = f.pools;
        fs[i].rateCap = f.req.rateCap;
    }
    auto rates = maxMinFairRates(fs, poolCapacity_, nullptr);
    for (std::size_t i = 0; i < moving.size(); ++i) {
        const Flow &f = flows_.at(moving[i]);
        if (rates[i] != f.rate) {
            panic("fair-share cross-check: flow %llu has rate "
                  "%.17g, full recompute says %.17g",
                  static_cast<unsigned long long>(f.id), f.rate,
                  rates[i]);
        }
    }
}

void
TransferEngine::finish(FlowId id)
{
    Flow &flow = flows_.at(id);
    flow.pendingEvent = kNoEvent;
    flow.remaining = 0;

    // Record the achieved-bandwidth sample (setup latency excluded so
    // tiny transfers do not read as absurdly slow links).
    double duration = queue_.now() - flow.dataStart;
    BandwidthSample sample;
    sample.bytes = flow.req.bytes;
    sample.bandwidth = duration > 0
        ? static_cast<double>(flow.req.bytes) / duration
        : 0.0;
    sample.start = flow.dataStart;
    sample.finish = queue_.now();
    sample.gpu = flow.req.statsGpu;
    sample.kind = flow.req.kind;
    sample.peerOnly = flow.peerOnly;
    stats_.record(sample);

    // Uncontended bottleneck: the slowest link-direction on the
    // route (and the flow's own cap, if any). Finishing below it
    // means fair sharing stalled this flow; the shortfall is the
    // span's contention stretch in critical-path attribution.
    double bottleneck = flow.req.rateCap > 0.0
        ? flow.req.rateCap
        : std::numeric_limits<double>::infinity();
    for (int pool : flow.pools)
        bottleneck = std::min(
            bottleneck,
            poolCapacity_[static_cast<std::size_t>(pool)]);

    if (mCompleted_) {
        (flow.req.willFail ? mFailed_ : mCompleted_)->add();
        --activeCount_;
        mActiveFlows_->set(activeCount_);
        for (int pool : flow.pools) {
            mLinkBytes_[static_cast<std::size_t>(pool / 2)]->add(
                static_cast<double>(flow.req.bytes));
        }
        if (duration > 0 && flow.req.bytes > 0) {
            mBandwidth_->record(sample.bandwidth);
            if (std::isfinite(bottleneck) &&
                sample.bandwidth < 0.98 * bottleneck)
                mStalled_->add();
        }
    }

    if (trace_) {
        // Attribute the span to the GPU-side engine track.
        std::string track;
        const Endpoint &src = flow.req.src;
        const Endpoint &dst = flow.req.dst;
        if (flow.peerOnly) {
            track = "gpu" + std::to_string(src.gpu) + ".nvlink";
        } else if (!dst.isDram) {
            track = "gpu" + std::to_string(dst.gpu) + ".h2d";
        } else {
            track = "gpu" + std::to_string(src.gpu) + ".d2h";
        }
        TraceSpan s;
        s.track = std::move(track);
        s.name = flow.req.label.empty()
            ? trafficKindName(flow.req.kind)
            : flow.req.label;
        // A doomed attempt consumed the link for nothing: its whole
        // interval is fault time, and the retry records it as a
        // causal dependency (fault/fault_injector.hh).
        s.category = flow.req.willFail ? "fault" : "transfer";
        if (flow.req.willFail)
            s.name += "!fail";
        s.start = flow.dataStart;
        s.end = queue_.now();
        s.deps = std::move(flow.req.deps);
        // Ready once submitted and past the fixed setup cost; any
        // later start is queueing behind other DMA on the engines.
        s.queuedAt = flow.submitTime + cfg_.setupLatency;
        // Intrinsic seconds at the uncontended bottleneck rate.
        if (std::isfinite(bottleneck) && bottleneck > 0.0)
            s.work = static_cast<double>(flow.req.bytes) /
                bottleneck;
        s.gpu = flow.req.statsGpu;
        s.stage = flow.req.stage;
        lastSpan_ = trace_->record(std::move(s));
    }

    if (usage_) {
        for (int g : flow.commGpus)
            usage_->commEnd(g);
    }
    for (int e : flow.engines) {
        if (engines_[e].current != id)
            panic("copy engine %d does not own finishing flow", e);
        engines_[e].current = 0;
    }

    removeFromPools(flow);
    std::vector<int> freed_pools = std::move(flow.pools);
    auto on_complete = flow.req.willFail
        ? std::move(flow.req.onFail)
        : std::move(flow.req.onComplete);
    flows_.erase(id);

    updateRates(freed_pools, nullptr);
    tryStartFlows();

    if (on_complete)
        on_complete();
}

} // namespace mobius
