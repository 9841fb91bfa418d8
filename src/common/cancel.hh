/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A CancelToken combines an optional wall-clock deadline with an
 * optional external stop flag (e.g. prism_bench's SIGINT handler).
 * Cancellation is cooperative: the simulation loop polls cancelled()
 * every few thousand steps and unwinds by throwing CancelledError,
 * which the job supervisor classifies as a timeout (deadline) or a
 * shutdown (stop flag). Cancellation never tears a thread down
 * mid-step, so no simulator state is ever observed half-written —
 * a cancelled attempt is simply discarded and, on retry, replayed
 * from scratch with identical seeds.
 */

#ifndef PRISM_COMMON_CANCEL_HH
#define PRISM_COMMON_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

namespace prism
{

/**
 * The steady_clock time point @p seconds after @p from (@p from
 * itself when @p seconds <= 0), or nullopt when the clock cannot hold
 * it: @p seconds is not finite, or the sum would overrun the clock's
 * 64-bit nanosecond count. Converting such a double with
 * duration_cast is undefined behaviour (on x86 it yields a time point
 * in the past). The limit keeps a second of slack, so rounding in the
 * conversion cannot cross it.
 */
inline std::optional<std::chrono::steady_clock::time_point>
deadlineAfter(std::chrono::steady_clock::time_point from,
              double seconds)
{
    using Clock = std::chrono::steady_clock;
    const std::chrono::duration<double> room =
        Clock::time_point::max() - from - std::chrono::seconds(1);
    if (!std::isfinite(seconds) || seconds >= room.count())
        return std::nullopt;
    if (seconds <= 0.0)
        return from;
    return from + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

/** Thrown by cancellation poll points to unwind a cancelled run. */
class CancelledError : public std::runtime_error
{
  public:
    CancelledError(bool by_deadline, const std::string &what)
        : std::runtime_error(what), by_deadline_(by_deadline)
    {
    }

    /** true: the deadline expired; false: an external stop request. */
    bool byDeadline() const { return by_deadline_; }

  private:
    bool by_deadline_;
};

/** Deadline + external-stop view polled by cancellation points. */
class CancelToken
{
  public:
    CancelToken() = default;

    /**
     * Arm a deadline @p seconds from now. A value that is not
     * positive, or one beyond the clock's range, disarms it.
     */
    void
    setDeadline(double seconds)
    {
        const auto deadline =
            seconds > 0.0
                ? deadlineAfter(std::chrono::steady_clock::now(),
                                seconds)
                : std::nullopt;
        has_deadline_ = deadline.has_value();
        if (deadline)
            deadline_ = *deadline;
    }

    /** Observe @p stop (non-owning; null detaches) as a stop source. */
    void linkStop(const std::atomic<bool> *stop) { stop_ = stop; }

    bool
    stopRequested() const
    {
        return stop_ && stop_->load(std::memory_order_relaxed);
    }

    bool
    deadlineExceeded() const
    {
        return has_deadline_ &&
               std::chrono::steady_clock::now() >= deadline_;
    }

    bool
    cancelled() const
    {
        return stopRequested() || deadlineExceeded();
    }

    /**
     * Throw CancelledError when cancelled; the simulation loop's poll
     * point. The stop flag wins the tie so a Ctrl-C never reports as
     * a spurious per-job timeout.
     */
    void
    poll() const
    {
        if (stopRequested())
            throw CancelledError(false, "run cancelled: stop requested");
        if (deadlineExceeded())
            throw CancelledError(true,
                                 "run cancelled: deadline exceeded");
    }

  private:
    const std::atomic<bool> *stop_ = nullptr;
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_{};
};

} // namespace prism

#endif // PRISM_COMMON_CANCEL_HH
