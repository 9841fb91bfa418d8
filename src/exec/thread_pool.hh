/**
 * @file
 * Fixed-size thread pool for the sweep and serve engines.
 *
 * Deliberately work-stealing-free: a single FIFO queue feeds a fixed
 * set of workers. It has two users:
 *  - the sweep engine submits coarse jobs (whole simulations, tens of
 *    milliseconds to minutes);
 *  - the serve engine submits short tasks in stages, up to 144 a
 *    round at its defaults (16 batch fills, 64 shard applies and 64
 *    shard evictions), with wait() as the barrier between stages.
 *
 * One FIFO queue is correct for both because execution order never
 * reaches a result: every job writes only its own pre-allocated slot
 * (a sweep result, a stream's batch, one shard) and draws randomness
 * only from its own seed, so which worker runs a job, and when, does
 * not matter. It is also cheap enough for both: a job costs one lock
 * acquisition at each end of the queue, while even the short serve
 * tasks run for about a tenth of a millisecond or more each.
 */

#ifndef PRISM_EXEC_THREAD_POOL_HH
#define PRISM_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prism
{

/** Fixed pool of worker threads draining one FIFO job queue. */
class ThreadPool
{
  public:
    /** @param threads Worker count; clamped to at least 1. */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue @p job; runs on some worker thread. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_idle_;
    std::size_t unfinished_ = 0; ///< queued + currently running
    bool stopping_ = false;
};

} // namespace prism

#endif // PRISM_EXEC_THREAD_POOL_HH
