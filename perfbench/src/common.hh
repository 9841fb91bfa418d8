/**
 * @file
 * Shared plumbing of the performance benchmark: arguments, the result
 * report, wall-clock helpers and order statistics.
 *
 * Every workload fills one Report: end-to-end metrics (untraced run)
 * or per-layer metrics (traced run), the correctness checks it ran,
 * and the attempted/failed operation counts. main.cc serialises it.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nanoseconds between two time points. */
inline std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Command-line arguments shared by every workload. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes: every workload and check in a few seconds. */
    bool smoke = false;
    /** Worker threads for the parallel workloads. */
    unsigned threads = 1;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansOut;
};

/** One correctness check and its outcome. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** What a workload run reports. */
struct Report
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    std::map<std::string, Metric> metrics;
    std::vector<Check> checks;
    /** Operations attempted / failed (jobs, sweep jobs, rounds). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Free-form context (sample counts, sizes, hashes). */
    std::vector<std::pair<std::string, std::string>> info;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    void
    check(const std::string &name, bool ok, const std::string &detail = "")
    {
        checks.push_back(Check{name, ok, detail});
    }

    template <typename T>
    void
    note(const std::string &key, const T &value)
    {
        if constexpr (std::is_convertible_v<T, std::string>)
            info.emplace_back(key, std::string(value));
        else
            info.emplace_back(key, std::to_string(value));
    }

    bool
    allChecksPass() const
    {
        return std::all_of(checks.begin(), checks.end(),
                           [](const Check &c) { return c.ok; });
    }
};

/** Linear-interpolated quantile of @p v (copied, then sorted). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Set-up time samples. Workloads take a few before every measured unit,
 * so the reported median spans the whole run rather than the first
 * milliseconds of the process. A sample is the mean of a batch of
 * builds: on a shared host one build can take either of two speeds
 * that alternate over milliseconds, and a batch averages them.
 */
class SetupTimer
{
  public:
    /** Take @p samples samples, each of @p batch calls of @p build. */
    template <typename F>
    void
    sample(unsigned samples, unsigned batch, F &&build)
    {
        for (unsigned s = 0; s < samples; ++s) {
            const auto t0 = Clock::now();
            for (unsigned i = 0; i < batch; ++i)
                build();
            seconds_.push_back(secondsSince(t0) / batch);
        }
    }

    /** Add @p other's samples to this timer's. */
    void
    merge(const SetupTimer &other)
    {
        seconds_.insert(seconds_.end(), other.seconds_.begin(),
                        other.seconds_.end());
    }

    double median() const { return perfbench::median(seconds_); }
    std::size_t samples() const { return seconds_.size(); }

  private:
    std::vector<double> seconds_;
};

// Workload entry points (one translation unit each).
void runSim32(const Args &args, Report &report);
void runSweep4(const Args &args, Report &report);
void runServe(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
