#include "simcore/job_pump.hh"

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

JobPump::JobPump(std::size_t count,
                 std::function<void(std::size_t)> body, int threads)
    : body_(std::move(body)),
      states_(count, State::Idle),
      errors_(count)
{
    fifo_.reserve(count);
    if (threads <= 0) {
        threads =
            static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0)
            threads = 1;
    }
    if (static_cast<std::size_t>(threads) > count)
        threads = count == 0 ? 1 : static_cast<int>(count);
    if (threads <= 1)
        return; // inline mode: no workers, threadsUsed_ stays 1
    threadsUsed_ = threads;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

int
JobPump::runAll(int count, const std::function<void(int)> &body,
                int threads)
{
    if (count <= 0)
        return 1;
    const std::size_t n = static_cast<std::size_t>(count);
    JobPump pump(
        n, [&body](std::size_t i) { body(static_cast<int>(i)); },
        threads);
    for (std::size_t i = 0; i < n; ++i)
        pump.enqueue(i);
    pump.drain();
    for (std::size_t i = 0; i < n; ++i)
        if (std::exception_ptr e = pump.error(i))
            std::rethrow_exception(e);
    return pump.threadsUsed();
}

JobPump::~JobPump()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    readyCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
JobPump::runBody(std::size_t i)
{
    MOBIUS_PROF_ZONE("simcore.pump_job");
    try {
        body_(i);
    } catch (...) {
        errors_[i] = std::current_exception();
    }
}

void
JobPump::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        readyCv_.wait(lock, [this] {
            return stop_ || fifoHead_ < fifo_.size();
        });
        // Drain remaining ready work even when stopping: every
        // enqueued job either runs or records its exception.
        if (fifoHead_ >= fifo_.size()) {
            if (stop_)
                return;
            continue;
        }
        std::size_t i = fifo_[fifoHead_++];
        states_[i] = State::Running;
        lock.unlock();
        runBody(i);
        lock.lock();
        states_[i] = State::Done;
        doneCv_.notify_all();
    }
}

void
JobPump::enqueue(std::size_t i)
{
    if (i >= states_.size())
        panic("JobPump::enqueue(%zu) out of range (count %zu)", i,
              states_.size());
    if (workers_.empty()) {
        if (states_[i] != State::Idle)
            panic("JobPump::enqueue(%zu): already enqueued", i);
        states_[i] = State::Ready;
        fifo_.push_back(i);
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (states_[i] != State::Idle)
            panic("JobPump::enqueue(%zu): already enqueued", i);
        states_[i] = State::Ready;
        fifo_.push_back(i);
    }
    readyCv_.notify_one();
}

void
JobPump::runInlineUntil(std::size_t i)
{
    const bool drain_all = i >= states_.size();
    while (drain_all ? fifoHead_ < fifo_.size()
                     : states_[i] != State::Done) {
        if (fifoHead_ >= fifo_.size())
            panic("JobPump::wait(%zu): job was never enqueued", i);
        std::size_t next = fifo_[fifoHead_++];
        states_[next] = State::Running;
        runBody(next);
        states_[next] = State::Done;
    }
}

void
JobPump::wait(std::size_t i)
{
    if (i >= states_.size())
        panic("JobPump::wait(%zu) out of range (count %zu)", i,
              states_.size());
    if (workers_.empty()) {
        runInlineUntil(i);
        return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (states_[i] == State::Idle)
        panic("JobPump::wait(%zu): job was never enqueued", i);
    doneCv_.wait(lock, [this, i] { return states_[i] == State::Done; });
}

void
JobPump::drain()
{
    if (workers_.empty()) {
        runInlineUntil(states_.size()); // sentinel: drain the FIFO
        return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [this] {
        for (std::size_t pos = 0; pos < fifo_.size(); ++pos)
            if (states_[fifo_[pos]] != State::Done)
                return false;
        return true;
    });
}

} // namespace mobius
