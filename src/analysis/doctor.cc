#include "analysis/doctor.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <ostream>

#include "telemetry/window.hh"

namespace prism::analysis
{

const char *
findingStatusName(FindingStatus status)
{
    switch (status) {
      case FindingStatus::Pass:
        return "PASS";
      case FindingStatus::Warn:
        return "WARN";
      case FindingStatus::Fail:
        return "FAIL";
      case FindingStatus::Skip:
        return "SKIP";
    }
    return "?";
}

std::size_t
Verdict::count(FindingStatus status) const
{
    std::size_t n = 0;
    for (const Finding &f : findings)
        if (f.status == status)
            ++n;
    return n;
}

namespace
{

// Decision bounds, calibrated on the paper's evaluation machine.
// writeDoctorDocument() echoes each in the "thresholds" section.

/** max_i |C_i − T_i| at or below this counts as converged. */
constexpr double kConvergedError = 0.10;
/** Steady-state residual (mean of last quarter) bounds. */
constexpr double kResidualWarn = 0.15;
constexpr double kResidualFail = 0.30;
/** Late/early error ratio at or above this is "not decaying". */
constexpr double kDecayWarnRatio = 1.0;

/** Mean peak-to-peak E_i swing over the last half. */
constexpr double kOscAmplitudeWarn = 0.30;
/** ΔE_i sign-flip rate over the last half. */
constexpr double kSignFlipWarn = 0.6;
/** Steps smaller than this do not count as oscillation. */
constexpr double kFlipAmplitudeFloor = 0.01;

/** |Σ E_i − 1| bounds (per recorded interval). */
constexpr double kSumEWarn = 1e-6;
constexpr double kSumEFail = 1e-3;
/** Σ C_i may exceed 1 by at most this. */
constexpr double kSumCOverflow = 1e-6;
/** Distribution repairs per interval worth warning about. */
constexpr double kRenormRateWarn = 0.1;

/** Degraded-interval fraction bounds: any degraded interval warns. */
constexpr double kDegradedWarnFrac = 0.0;
constexpr double kDegradedFailFrac = 0.5;

/** Slack under the QoS IPC floor before failing. */
constexpr double kQosSlack = 0.02;
/** Fairness (min/max normalised progress) warning floor. */
constexpr double kFairnessWarn = 0.35;

// Serving-mode bounds (serve snapshots only). The slowdown model's
// miss penalty is the window's, telemetry::kMissPenalty.

/** Slack under a tenant's hit-ratio SLO floor before failing. */
constexpr double kServeSloSlack = 0.005;
/** Max/min tenant slowdown ratio worth warning about. */
constexpr double kFairSlowdownWarn = 4.0;
/** Relative EWMA drift (miss rate / fair slowdown) of the latest
 *  interval worth warning about — the online doctor's "workload
 *  shifted" signal (docs/OBSERVABILITY.md). */
constexpr double kDriftWarnFrac = 0.5;

/** Way-mask plane (PriSM-WM runs only): mean |alloc_i - T_i*ways|
 *  above this many ways warns, since the way-mask backend is then
 *  too coarse for the targets it is asked to enforce. */
constexpr double kWayQuantWarn = 1.0;

/** Severity order for aggregation (Skip never dominates). */
int
severity(FindingStatus s)
{
    switch (s) {
      case FindingStatus::Skip:
      case FindingStatus::Pass:
        return 0;
      case FindingStatus::Warn:
        return 1;
      case FindingStatus::Fail:
        return 2;
    }
    return 0;
}

FindingStatus
worse(FindingStatus a, FindingStatus b)
{
    return severity(b) > severity(a) ? b : a;
}

std::string
fmt(double v)
{
    return JsonWriter::formatDouble(v);
}

/** max_i |C_i − T_i| at sample @p t. */
double
maxTrackingError(const RunSeries &s, std::size_t t)
{
    double err = 0.0;
    const std::size_t n = std::min(s.occupancy[t].size(),
                                   s.target[t].size());
    for (std::size_t c = 0; c < n; ++c)
        err = std::max(err,
                       std::abs(s.occupancy[t][c] - s.target[t][c]));
    return err;
}

/** Mean of maxTrackingError over samples [lo, hi). */
double
meanError(const RunSeries &s, std::size_t lo, std::size_t hi)
{
    if (hi <= lo)
        return 0.0;
    double sum = 0.0;
    for (std::size_t t = lo; t < hi; ++t)
        sum += maxTrackingError(s, t);
    return sum / static_cast<double>(hi - lo);
}

class Checker
{
  public:
    explicit Checker(const RunSeries &s) : s_(s)
    {
        v_.run = s.name;
        v_.backend = s.plane;
    }

    Verdict take();

  private:
    Finding &add(const std::string &check, FindingStatus status);
    Finding &addValue(const std::string &check, FindingStatus status,
                      double value, double threshold);
    void skip(const std::string &check, const std::string &why);

    void tracking();
    void stability();
    void invariants();
    void attainment();
    void serve();
    void drift();
    void analyzePlane();
    void robustness();
    void telemetry();

    /** Counter check: Pass at 0, @p level above 0. */
    void counter(const std::string &check, std::uint64_t n,
                 FindingStatus level, const std::string &what);

    const RunSeries &s_;
    Verdict v_;
};

Finding &
Checker::add(const std::string &check, FindingStatus status)
{
    Finding f;
    f.check = check;
    f.status = status;
    v_.findings.push_back(std::move(f));
    return v_.findings.back();
}

Finding &
Checker::addValue(const std::string &check, FindingStatus status,
                  double value, double threshold)
{
    Finding &f = add(check, status);
    f.value = value;
    f.threshold = threshold;
    f.hasValue = true;
    return f;
}

void
Checker::skip(const std::string &check, const std::string &why)
{
    add(check, FindingStatus::Skip).detail = why;
}

void
Checker::tracking()
{
    if (!s_.hasSeries || !s_.prism || s_.occupancy.size() < 4) {
        const std::string why =
            !s_.hasSeries || !s_.prism
                ? "no occupancy/target series (counters-only input)"
                : "fewer than 4 recorded intervals";
        skip("tracking.converge_interval", why);
        skip("tracking.residual", why);
        skip("tracking.decay", why);
        return;
    }

    const std::size_t n = s_.occupancy.size();

    // First interval where the tracking error stays within bound.
    std::size_t converged = n;
    for (std::size_t t = 0; t < n; ++t) {
        if (maxTrackingError(s_, t) <= kConvergedError) {
            converged = t;
            break;
        }
    }
    if (converged < n) {
        Finding &f = addValue(
            "tracking.converge_interval", FindingStatus::Pass,
            static_cast<double>(s_.interval[converged]),
            kConvergedError);
        f.detail = "max|C-T| first within " + fmt(kConvergedError) +
                   " at interval " +
                   std::to_string(s_.interval[converged]);
    } else {
        const FindingStatus st = n >= 8 ? FindingStatus::Fail
                                        : FindingStatus::Warn;
        Finding &f = addValue("tracking.converge_interval", st,
                              maxTrackingError(s_, n - 1),
                              kConvergedError);
        f.detail = "never converged: final max|C-T| " +
                   fmt(maxTrackingError(s_, n - 1)) + " over " +
                   std::to_string(n) + " intervals";
    }

    // Steady-state residual: mean error over the last quarter.
    const std::size_t tail = std::max<std::size_t>(1, n / 4);
    const double residual = meanError(s_, n - tail, n);
    FindingStatus rst = FindingStatus::Pass;
    double bound = kResidualWarn;
    if (residual > kResidualFail) {
        rst = FindingStatus::Fail;
        bound = kResidualFail;
    } else if (residual > kResidualWarn) {
        rst = FindingStatus::Warn;
    }
    addValue("tracking.residual", rst, residual, bound).detail =
        "mean max|C-T| over last " + std::to_string(tail) +
        " intervals is " + fmt(residual);

    // Decay: the last quartile's error should sit below the first's.
    const std::size_t quart = std::max<std::size_t>(1, n / 4);
    const double early = meanError(s_, 0, quart);
    const double late = meanError(s_, n - quart, n);
    if (early <= kConvergedError) {
        Finding &f = addValue("tracking.decay", FindingStatus::Pass,
                              0.0, kDecayWarnRatio);
        f.detail = "already within tracking bound from the start";
    } else {
        const double ratio = late / early;
        const FindingStatus st = ratio >= kDecayWarnRatio
                                     ? FindingStatus::Warn
                                     : FindingStatus::Pass;
        addValue("tracking.decay", st, ratio, kDecayWarnRatio)
            .detail = "late/early error ratio " + fmt(ratio) +
                      " (early " + fmt(early) + ", late " + fmt(late) +
                      ")";
    }
}

void
Checker::stability()
{
    if (!s_.hasSeries || !s_.prism || s_.evProb.size() < 4) {
        const std::string why =
            !s_.hasSeries || !s_.prism
                ? "no eviction-probability series"
                : "fewer than 4 recorded intervals";
        skip("stability.osc_amplitude", why);
        skip("stability.sign_flips", why);
        skip("stability.entropy", why);
        return;
    }

    const std::size_t n = s_.evProb.size();
    const std::size_t lo = n / 2; // judge the settled half only
    const std::size_t cores = s_.evProb[lo].size();

    double amp_sum = 0.0;
    std::uint64_t flips = 0, steps = 0;
    for (std::size_t c = 0; c < cores; ++c) {
        double mn = 1.0, mx = 0.0;
        double prev_delta = 0.0;
        for (std::size_t t = lo; t < n; ++t) {
            const double e = c < s_.evProb[t].size()
                                 ? s_.evProb[t][c]
                                 : 0.0;
            mn = std::min(mn, e);
            mx = std::max(mx, e);
            if (t > lo) {
                const double prev = c < s_.evProb[t - 1].size()
                                        ? s_.evProb[t - 1][c]
                                        : 0.0;
                const double delta = e - prev;
                if (std::abs(delta) > kFlipAmplitudeFloor) {
                    ++steps;
                    if (prev_delta != 0.0 &&
                        std::signbit(delta) !=
                            std::signbit(prev_delta))
                        ++flips;
                    prev_delta = delta;
                }
            }
        }
        amp_sum += mx - mn;
    }
    const double amplitude =
        cores ? amp_sum / static_cast<double>(cores) : 0.0;
    const FindingStatus ast = amplitude > kOscAmplitudeWarn
                                  ? FindingStatus::Warn
                                  : FindingStatus::Pass;
    addValue("stability.osc_amplitude", ast, amplitude,
             kOscAmplitudeWarn)
        .detail = "mean peak-to-peak E_i swing " + fmt(amplitude) +
                  " over the last " + std::to_string(n - lo) +
                  " intervals";

    const double flip_rate =
        steps ? static_cast<double>(flips) /
                    static_cast<double>(steps)
              : 0.0;
    const FindingStatus fst = flip_rate > kSignFlipWarn
                                  ? FindingStatus::Warn
                                  : FindingStatus::Pass;
    addValue("stability.sign_flips", fst, flip_rate, kSignFlipWarn)
        .detail = std::to_string(flips) + " direction changes in " +
                  std::to_string(steps) + " significant E_i steps";

    // Normalised entropy of the final distribution: 1 = uniform,
    // 0 = all eviction pressure on one core. Informational.
    double entropy = 0.0;
    if (cores > 1) {
        const std::vector<double> &last = s_.evProb[n - 1];
        double sum = 0.0;
        for (const double e : last)
            sum += e;
        if (sum > 0.0) {
            for (const double e : last) {
                const double p = e / sum;
                if (p > 0.0)
                    entropy -= p * std::log2(p);
            }
            entropy /= std::log2(static_cast<double>(cores));
        }
    }
    addValue("stability.entropy", FindingStatus::Pass, entropy, 0.0)
        .detail = "normalised entropy of the final E distribution";
}

void
Checker::invariants()
{
    if (!s_.hasSeries || !s_.prism) {
        const std::string why =
            "no eviction-probability series (counters-only input)";
        skip("invariants.sum_e", why);
        skip("invariants.sum_c", why);
    } else {
        double max_e_err = 0.0;
        for (const std::vector<double> &row : s_.evProb) {
            double sum = 0.0;
            for (const double e : row)
                sum += e;
            max_e_err = std::max(max_e_err, std::abs(sum - 1.0));
        }
        FindingStatus est = FindingStatus::Pass;
        double bound = kSumEWarn;
        if (max_e_err > kSumEFail) {
            est = FindingStatus::Fail;
            bound = kSumEFail;
        } else if (max_e_err > kSumEWarn) {
            est = FindingStatus::Warn;
        }
        addValue("invariants.sum_e", est, max_e_err, bound).detail =
            "max |sum(E_i) - 1| across " +
            std::to_string(s_.evProb.size()) + " intervals";

        double max_c_over = 0.0;
        for (const std::vector<double> &row : s_.occupancy) {
            double sum = 0.0;
            for (const double c : row)
                sum += c;
            max_c_over = std::max(max_c_over, sum - 1.0);
        }
        max_c_over = std::max(max_c_over, 0.0);
        const FindingStatus cst = max_c_over > kSumCOverflow
                                      ? FindingStatus::Fail
                                      : FindingStatus::Pass;
        addValue("invariants.sum_c", cst, max_c_over, kSumCOverflow)
            .detail = "max overflow of sum(C_i) above capacity";
    }

    if (!s_.hasCounters || s_.intervals == 0) {
        skip("invariants.renorm_rate", "no interval counters");
        return;
    }
    const double rate = static_cast<double>(s_.distributionRepairs) /
                        static_cast<double>(s_.intervals);
    const FindingStatus rst = rate > kRenormRateWarn
                                  ? FindingStatus::Warn
                                  : FindingStatus::Pass;
    addValue("invariants.renorm_rate", rst, rate, kRenormRateWarn)
        .detail = std::to_string(s_.distributionRepairs) +
                  " distribution repairs in " +
                  std::to_string(s_.intervals) + " intervals";
}

void
Checker::attainment()
{
    if (s_.scheme == "PriSM-Q" && s_.hasPerf &&
        s_.qosTargetFrac > 0.0 && !s_.ipc.empty() &&
        s_.ipcStandalone[0] > 0.0) {
        const double attained = s_.ipc[0] / s_.ipcStandalone[0];
        const double floor = s_.qosTargetFrac - kQosSlack;
        const FindingStatus st = attained < floor
                                     ? FindingStatus::Fail
                                     : FindingStatus::Pass;
        addValue("qos.attainment", st, attained, floor).detail =
            "core 0 reached " + fmt(attained) +
            " of stand-alone IPC (target " + fmt(s_.qosTargetFrac) +
            ")";
    } else {
        skip("qos.attainment",
             s_.scheme == "PriSM-Q"
                 ? "no performance data for the QoS check"
                 : "not a QoS (PriSM-Q) run");
    }

    if (s_.scheme == "PriSM-F" && s_.hasPerf &&
        s_.ipc.size() == s_.ipcStandalone.size() &&
        !s_.ipc.empty()) {
        double mn = 0.0, mx = 0.0;
        bool first = true;
        for (std::size_t c = 0; c < s_.ipc.size(); ++c) {
            if (s_.ipcStandalone[c] <= 0.0)
                continue;
            const double progress = s_.ipc[c] / s_.ipcStandalone[c];
            mn = first ? progress : std::min(mn, progress);
            mx = first ? progress : std::max(mx, progress);
            first = false;
        }
        const double balance = mx > 0.0 ? mn / mx : 0.0;
        const FindingStatus st = balance < kFairnessWarn
                                     ? FindingStatus::Warn
                                     : FindingStatus::Pass;
        addValue("fairness.attainment", st, balance, kFairnessWarn)
            .detail = "min/max normalised progress ratio " +
                      fmt(balance);
    } else {
        skip("fairness.attainment",
             s_.scheme == "PriSM-F"
                 ? "no performance data for the fairness check"
                 : "not a fairness (PriSM-F) run");
    }
}

/**
 * Serving-mode checks (serve metrics snapshots). Emitted only when
 * the input is a serve session — simulator runs produce no serve.*
 * findings at all, not even SKIPs, so their doctor documents are
 * unchanged by the serving subsystem's existence.
 */
void
Checker::serve()
{
    if (!s_.serve)
        return;
    const std::size_t tenants = s_.serveHitRatio.size();

    // Per-tenant hit-ratio SLO attainment: the worst margin over
    // every tenant that declares a floor decides the finding.
    bool any_slo = false;
    double worst_margin = 0.0;
    std::size_t worst_tenant = 0;
    for (std::size_t t = 0; t < tenants &&
                            t < s_.serveSloFloor.size();
         ++t) {
        const double floor = s_.serveSloFloor[t];
        if (floor <= 0.0)
            continue;
        const double margin = s_.serveHitRatio[t] - floor;
        if (!any_slo || margin < worst_margin) {
            worst_margin = margin;
            worst_tenant = t;
        }
        any_slo = true;
    }
    if (!any_slo) {
        skip("serve.slo_attainment",
             "no tenant declares a hit-ratio SLO floor");
    } else {
        const FindingStatus st = worst_margin < -kServeSloSlack
                                     ? FindingStatus::Fail
                                     : FindingStatus::Pass;
        addValue("serve.slo_attainment", st, worst_margin,
                 -kServeSloSlack)
            .detail = "worst SLO margin " + fmt(worst_margin) +
                      " (tenant " + std::to_string(worst_tenant) +
                      " hit ratio " +
                      fmt(s_.serveHitRatio[worst_tenant]) +
                      " vs floor " +
                      fmt(s_.serveSloFloor[worst_tenant]) + ")";
    }

    // Fair slowdown: a tenant's slowdown under sharing is the
    // window's model (telemetry::fairSlowdown of its miss ratio);
    // the max/min ratio across tenants is the serving analogue of
    // the paper's fairness metric (1 = perfectly even service
    // degradation).
    if (tenants < 2) {
        skip("serve.fair_slowdown",
             "fewer than two tenants to compare");
    } else {
        double mn = 0.0, mx = 0.0;
        bool first = true;
        for (const double hit_ratio : s_.serveHitRatio) {
            const double slowdown =
                telemetry::fairSlowdown(1.0 - hit_ratio);
            mn = first ? slowdown : std::min(mn, slowdown);
            mx = first ? slowdown : std::max(mx, slowdown);
            first = false;
        }
        const double ratio = mn > 0.0 ? mx / mn : 0.0;
        const FindingStatus st = ratio > kFairSlowdownWarn
                                     ? FindingStatus::Warn
                                     : FindingStatus::Pass;
        addValue("serve.fair_slowdown", st, ratio,
                 kFairSlowdownWarn)
            .detail = "max/min tenant slowdown ratio " +
                      fmt(ratio) + " at modelled miss penalty " +
                      fmt(telemetry::kMissPenalty) + "x";
    }

    // Victim match: realised per-tenant eviction counts should be
    // consistent with the Equation 1 distributions that steered
    // them. Pearson chi-square against the per-interval expectation
    // sum_k E_k[t] * evictions_k, critical value at alpha = 0.001
    // via the Wilson-Hilferty cube approximation.
    const std::size_t rows =
        std::min(s_.evProb.size(), s_.serveEvictions.size());
    std::vector<double> expected(tenants, 0.0);
    std::vector<double> observed(tenants, 0.0);
    double total_evictions = 0.0;
    for (std::size_t k = 0; k < rows; ++k) {
        double row_total = 0.0;
        for (std::size_t t = 0;
             t < tenants && t < s_.serveEvictions[k].size(); ++t) {
            observed[t] += s_.serveEvictions[k][t];
            row_total += s_.serveEvictions[k][t];
        }
        for (std::size_t t = 0;
             t < tenants && t < s_.evProb[k].size(); ++t)
            expected[t] += s_.evProb[k][t] * row_total;
        total_evictions += row_total;
    }
    if (rows == 0 ||
        total_evictions < 5.0 * static_cast<double>(tenants)) {
        skip("serve.victim_match",
             "too few recorded evictions for the chi-square test");
        return;
    }
    double chi2 = 0.0;
    std::size_t cells = 0;
    for (std::size_t t = 0; t < tenants; ++t) {
        if (expected[t] < 1e-9)
            continue;
        const double delta = observed[t] - expected[t];
        chi2 += delta * delta / expected[t];
        ++cells;
    }
    if (cells < 2) {
        skip("serve.victim_match",
             "eviction pressure concentrated on a single tenant");
        return;
    }
    const double df = static_cast<double>(cells - 1);
    constexpr double kZ = 3.090232; // standard-normal alpha=0.001
    const double term =
        1.0 - 2.0 / (9.0 * df) + kZ * std::sqrt(2.0 / (9.0 * df));
    const double critical = df * term * term * term;
    const FindingStatus st = chi2 > critical ? FindingStatus::Warn
                                             : FindingStatus::Pass;
    addValue("serve.victim_match", st, chi2, critical).detail =
        "chi-square " + fmt(chi2) + " vs critical " +
        fmt(critical) + " (df " + fmt(df) + ", " +
        fmt(total_evictions) + " evictions)";
}

/**
 * EWMA drift checks (live-window inputs). Like the serve.* family,
 * these are emitted only for serving-mode runs, so every existing
 * sim-side doctor document is unchanged; serve inputs without window
 * statistics SKIP them explicitly.
 */
void
Checker::drift()
{
    if (!s_.serve)
        return;
    if (!s_.hasDrift) {
        const std::string why =
            "no sliding-window drift statistics in this input";
        skip("drift.miss_rate", why);
        skip("drift.fair_slowdown", why);
        return;
    }

    const auto worstDrift =
        [](const std::vector<double> &drift, std::size_t &tenant) {
            double worst = 0.0;
            tenant = 0;
            for (std::size_t t = 0; t < drift.size(); ++t)
                if (drift[t] > worst) {
                    worst = drift[t];
                    tenant = t;
                }
            return worst;
        };

    std::size_t worst_t = 0;
    const double miss_drift = worstDrift(s_.driftMissRate, worst_t);
    FindingStatus st = miss_drift > kDriftWarnFrac
                           ? FindingStatus::Warn
                           : FindingStatus::Pass;
    addValue("drift.miss_rate", st, miss_drift, kDriftWarnFrac)
        .detail = "max relative EWMA miss-rate drift " +
                  fmt(miss_drift) + " (tenant " +
                  std::to_string(worst_t) + ")";

    const double slow_drift = worstDrift(s_.driftSlowdown, worst_t);
    st = slow_drift > kDriftWarnFrac ? FindingStatus::Warn
                                       : FindingStatus::Pass;
    addValue("drift.fair_slowdown", st, slow_drift,
             kDriftWarnFrac)
        .detail = "max relative EWMA slowdown drift " +
                  fmt(slow_drift) + " (tenant " +
                  std::to_string(worst_t) + ")";
}

/**
 * Way-mask plane checks (PriSM-WM runs). Like the serve.* family,
 * these are emitted only when the run came from the way-mask
 * backend — sim and store runs produce no plane.* findings at all,
 * so their doctor documents are unchanged by the backend's
 * existence.
 */
void
Checker::analyzePlane()
{
    if (s_.plane != "way-mask")
        return;
    if (!s_.hasWayQuant) {
        skip("plane.way_quant_error",
             "no way-quantisation statistics in this input");
        return;
    }
    const FindingStatus st = s_.wayQuantError > kWayQuantWarn
                                 ? FindingStatus::Warn
                                 : FindingStatus::Pass;
    addValue("plane.way_quant_error", st, s_.wayQuantError,
             kWayQuantWarn)
        .detail = "mean |alloc_i - T_i*ways| of " +
                  fmt(s_.wayQuantError) +
                  " ways between the continuous targets and the "
                  "enforced way masks";
}

void
Checker::counter(const std::string &check, std::uint64_t n,
                 FindingStatus level, const std::string &what)
{
    const FindingStatus st = n ? level : FindingStatus::Pass;
    addValue(check, st, static_cast<double>(n), 0.0).detail =
        std::to_string(n) + " " + what;
}

void
Checker::robustness()
{
    if (!s_.hasCounters) {
        for (const char *check :
             {"robustness.fallbacks", "robustness.degraded",
              "robustness.dropped_recomputes",
              "robustness.ownership_repairs",
              "robustness.clamped_inputs",
              "robustness.invariant_violations"})
            skip(check, "no robustness counters in this input");
        return;
    }

    counter("robustness.fallbacks", s_.fallbackEntries,
            FindingStatus::Fail,
            "entries into the degraded fallback partitioner");

    if (s_.intervals == 0) {
        counter("robustness.degraded", s_.degradedIntervals,
                FindingStatus::Warn, "degraded intervals");
    } else {
        const double frac =
            static_cast<double>(s_.degradedIntervals) /
            static_cast<double>(s_.intervals);
        FindingStatus st = FindingStatus::Pass;
        double bound = kDegradedWarnFrac;
        if (frac > kDegradedFailFrac) {
            st = FindingStatus::Fail;
            bound = kDegradedFailFrac;
        } else if (frac > kDegradedWarnFrac) {
            st = FindingStatus::Warn;
        }
        addValue("robustness.degraded", st, frac, bound).detail =
            std::to_string(s_.degradedIntervals) + " of " +
            std::to_string(s_.intervals) + " intervals degraded";
    }

    counter("robustness.dropped_recomputes", s_.droppedRecomputes,
            FindingStatus::Warn, "recomputes dropped");
    counter("robustness.ownership_repairs", s_.ownershipRepairs,
            FindingStatus::Warn, "ownership repairs");
    counter("robustness.clamped_inputs", s_.clampedEq1Inputs,
            FindingStatus::Warn, "Equation 1 inputs clamped");
    counter("robustness.invariant_violations",
            s_.invariantViolations, FindingStatus::Fail,
            "invariant violations detected");
}

void
Checker::telemetry()
{
    counter("telemetry.drops", s_.droppedSamples + s_.droppedEvents,
            FindingStatus::Warn,
            "telemetry ring drops (samples + events)");
}

Verdict
Checker::take()
{
    tracking();
    stability();
    invariants();
    attainment();
    serve();
    drift();
    analyzePlane();
    robustness();
    telemetry();
    for (const Finding &f : v_.findings)
        v_.overall = worse(v_.overall, f.status);
    return std::move(v_);
}

} // namespace

Verdict
analyze(const RunSeries &s)
{
    return Checker(s).take();
}

Verdict
analyzeExec(const ExecSeries &s)
{
    Verdict v;
    v.run = "exec";

    const auto counter = [&v](const std::string &check,
                              std::uint64_t n, FindingStatus level,
                              const std::string &what) -> Finding & {
        Finding f;
        f.check = check;
        f.status = n ? level : FindingStatus::Pass;
        f.value = static_cast<double>(n);
        f.hasValue = true;
        f.detail = std::to_string(n) + " " + what;
        v.findings.push_back(std::move(f));
        return v.findings.back();
    };

    counter("exec.retries", s.retries, FindingStatus::Warn,
            "retried job attempts");
    counter("exec.timeouts", s.timeouts, FindingStatus::Warn,
            "attempts cancelled by the per-job deadline");

    Finding &quarantined =
        counter("exec.quarantined", s.quarantined,
                FindingStatus::Fail, "jobs quarantined");
    if (s.quarantined > 0 && !s.failedIds.empty()) {
        constexpr std::size_t kMaxIds = 4;
        std::string ids;
        const std::size_t n =
            std::min(kMaxIds, s.failedIds.size());
        for (std::size_t i = 0; i < n; ++i)
            ids += (i ? ", " : "") + s.failedIds[i];
        if (s.failedIds.size() > kMaxIds)
            ids += ", +" +
                   std::to_string(s.failedIds.size() - kMaxIds) +
                   " more";
        quarantined.detail += " (" + ids + ")";
    }

    const auto unrecorded = [&v](const char *check,
                                 const std::string &what) {
        Finding f;
        f.check = check;
        f.status = FindingStatus::Skip;
        f.detail = "the input does not record " + what;
        v.findings.push_back(std::move(f));
    };

    // A sweep stopped by a signal writes no trace, and a trace's
    // exec process holds no record of skipped jobs.
    if (s.input == ExecInput::Trace)
        unrecorded("exec.skipped", "skipped jobs");
    else
        counter("exec.skipped", s.skipped, FindingStatus::Warn,
                "jobs skipped by shutdown request");
    if (s.input == ExecInput::Live) {
        counter("exec.torn_writes", s.tornWrites, FindingStatus::Warn,
                "torn checkpoint flushes injected");
        counter("exec.checkpoint", s.checkpointCorrupt,
                FindingStatus::Fail,
                "corrupt checkpoints discarded at resume");
    } else {
        for (const char *check : {"exec.torn_writes", "exec.checkpoint"})
            unrecorded(check, "checkpoint writes");
    }
    // Trace inputs only: a resumed sweep's trace grades fewer jobs
    // than the sweep ran.
    if (s.restoredJobs > 0)
        counter("exec.restored_jobs", s.restoredJobs,
                FindingStatus::Warn,
                "jobs restored from a checkpoint, which keeps no "
                "series, are missing from this trace");

    for (const Finding &f : v.findings)
        v.overall = worse(v.overall, f.status);
    return v;
}

Verdict
failedJobVerdict(std::string_view id, bool skipped,
                 std::uint64_t attempts, std::string_view lastFailure)
{
    Verdict v;
    v.run = id;
    Finding f;
    if (skipped) {
        f.check = "exec.job_skipped";
        f.status = FindingStatus::Warn;
        f.detail = "not executed (shutdown requested)";
    } else {
        f.check = "exec.job_quarantined";
        f.status = FindingStatus::Fail;
        f.detail =
            "quarantined after " + std::to_string(attempts) + " attempts";
        if (!lastFailure.empty())
            f.detail += " (last: " + std::string(lastFailure) + ")";
    }
    f.value = static_cast<double>(attempts);
    f.hasValue = true;
    v.overall = f.status;
    v.findings.push_back(std::move(f));
    return v;
}

FindingStatus
worstOf(const std::vector<Verdict> &jobs)
{
    FindingStatus w = FindingStatus::Pass;
    for (const Verdict &v : jobs)
        w = worse(w, v.overall);
    return w;
}

Verdict
rollup(const std::vector<Verdict> &jobs)
{
    Verdict v;
    v.run = "sweep";
    v.overall = worstOf(jobs);
    for (const FindingStatus st :
         {FindingStatus::Pass, FindingStatus::Warn,
          FindingStatus::Fail}) {
        Finding f;
        f.check = std::string("sweep.jobs_") +
                  findingStatusName(st);
        // The roll-up counts jobs; its findings never escalate the
        // overall verdict beyond what the jobs already did.
        f.status = FindingStatus::Pass;
        std::size_t n = 0;
        for (const Verdict &j : jobs)
            if (j.overall == st)
                ++n;
        f.value = static_cast<double>(n);
        f.hasValue = true;
        f.detail = std::to_string(n) + " of " +
                   std::to_string(jobs.size()) + " jobs " +
                   findingStatusName(st);
        v.findings.push_back(std::move(f));
    }
    return v;
}

void
writeVerdictJson(JsonWriter &w, const Verdict &v)
{
    w.beginObject();
    w.kv("run", v.run);
    w.kv("backend", v.backend);
    w.kv("overall", findingStatusName(v.overall));
    writeFindingsJson(w, v.findings);
    w.endObject();
}

void
writeFindingsJson(JsonWriter &w, const std::vector<Finding> &findings)
{
    w.key("findings");
    w.beginArray();
    for (const Finding &f : findings) {
        w.beginObject();
        w.kv("check", f.check);
        w.kv("status", findingStatusName(f.status));
        if (f.hasValue) {
            w.kv("value", f.value);
            w.kv("threshold", f.threshold);
        }
        w.kv("detail", f.detail);
        w.endObject();
    }
    w.endArray();
}

void
writeDoctorDocument(std::ostream &os, std::string_view source,
                    const std::vector<Verdict> &jobs)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-doctor-v1");
    w.kv("source", source);
    w.kv("verdict", findingStatusName(worstOf(jobs)));
    w.key("jobs");
    w.beginArray();
    for (const Verdict &v : jobs)
        writeVerdictJson(w, v);
    w.endArray();
    w.key("summary");
    w.beginObject();
    w.kv("jobs", static_cast<std::uint64_t>(jobs.size()));
    for (const FindingStatus st :
         {FindingStatus::Pass, FindingStatus::Warn,
          FindingStatus::Fail}) {
        std::uint64_t n = 0;
        for (const Verdict &v : jobs)
            if (v.overall == st)
                ++n;
        std::string key = findingStatusName(st);
        std::transform(key.begin(), key.end(), key.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(
                               std::tolower(c));
                       });
        w.kv(key, n);
    }
    w.endObject();
    w.key("thresholds");
    w.beginObject();
    w.kv("converged_error", kConvergedError);
    w.kv("residual_warn", kResidualWarn);
    w.kv("residual_fail", kResidualFail);
    w.kv("decay_warn_ratio", kDecayWarnRatio);
    w.kv("osc_amplitude_warn", kOscAmplitudeWarn);
    w.kv("sign_flip_warn", kSignFlipWarn);
    w.kv("flip_amplitude_floor", kFlipAmplitudeFloor);
    w.kv("sum_e_warn", kSumEWarn);
    w.kv("sum_e_fail", kSumEFail);
    w.kv("sum_c_overflow", kSumCOverflow);
    w.kv("renorm_rate_warn", kRenormRateWarn);
    w.kv("degraded_warn_frac", kDegradedWarnFrac);
    w.kv("degraded_fail_frac", kDegradedFailFrac);
    w.kv("qos_slack", kQosSlack);
    w.kv("fairness_warn", kFairnessWarn);
    w.kv("serve_slo_slack", kServeSloSlack);
    w.kv("serve_miss_penalty", telemetry::kMissPenalty);
    w.kv("fair_slowdown_warn", kFairSlowdownWarn);
    w.kv("drift_warn_frac", kDriftWarnFrac);
    w.kv("way_quant_warn", kWayQuantWarn);
    w.endObject();
    w.endObject();
    os << '\n';
}

void
printReport(std::ostream &os, const Verdict &v)
{
    os << "=== prism_doctor: " << v.run << " ===\n";
    for (const Finding &f : v.findings) {
        os << "  [" << findingStatusName(f.status) << "] " << f.check;
        if (f.hasValue) {
            os << " = " << JsonWriter::formatDouble(f.value);
            if (f.status != FindingStatus::Pass ||
                f.threshold != 0.0)
                os << " (bound "
                   << JsonWriter::formatDouble(f.threshold) << ")";
        }
        if (!f.detail.empty())
            os << " -- " << f.detail;
        os << '\n';
    }
    os << "  overall: " << findingStatusName(v.overall) << '\n';
}

} // namespace prism::analysis
