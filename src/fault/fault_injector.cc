#include "fault/fault_injector.hh"

#include <limits>

#include "common/parse.hh"

namespace prism
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CorruptOccupancy:
        return "occ";
      case FaultKind::StaleSnapshot:
        return "stale";
      case FaultKind::DropRecompute:
        return "drop";
      case FaultKind::PoisonNan:
        return "nan";
      case FaultKind::PoisonInf:
        return "inf";
      case FaultKind::QuantSaturate:
        return "quant";
      case FaultKind::ShadowSkew:
        return "shadow";
      case FaultKind::JobCrash:
        return "job_crash";
      case FaultKind::JobStall:
        return "job_stall";
      case FaultKind::TornWrite:
        return "torn_write";
      case FaultKind::AllocFail:
        return "alloc_fail";
    }
    return "?";
}

bool
isExecFaultKind(FaultKind kind)
{
    switch (kind) {
      case FaultKind::JobCrash:
      case FaultKind::JobStall:
      case FaultKind::TornWrite:
      case FaultKind::AllocFail:
        return true;
      default:
        return false;
    }
}

namespace
{

bool
parseKind(const std::string &word, FaultKind &out)
{
    for (unsigned k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (word == faultKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace

Status
parseFaultSpec(const std::string &spec, std::vector<FaultClause> &out)
{
    std::vector<FaultClause> clauses;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string clause = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (clause.empty()) {
            if (spec.empty())
                break;
            return Status::error("fault spec: empty clause in '" +
                                 spec + "'");
        }

        const std::size_t at = clause.find('@');
        if (at == std::string::npos)
            return Status::error(
                "fault spec clause '" + clause +
                "': expected kind@period[+phase][*attempts]");

        FaultClause fc;
        if (!parseKind(clause.substr(0, at), fc.kind))
            return Status::error("fault spec clause '" + clause +
                                 "': unknown fault kind '" +
                                 clause.substr(0, at) +
                                 "' (occ|stale|drop|nan|inf|quant|"
                                 "shadow|job_crash|job_stall|"
                                 "torn_write|alloc_fail)");

        std::string sched = clause.substr(at + 1);
        const std::size_t star = sched.find('*');
        if (star != std::string::npos) {
            const std::string attempts_s = sched.substr(star + 1);
            if (!isExecFaultKind(fc.kind))
                return Status::error(
                    "fault spec clause '" + clause +
                    "': '*attempts' is only valid for exec-level "
                    "kinds");
            if (!parseU64(attempts_s, fc.attempts))
                return Status::error("fault spec clause '" + clause +
                                     "': bad attempt count '" +
                                     attempts_s + "'");
            sched = sched.substr(0, star);
        }
        const std::size_t plus = sched.find('+');
        std::string period_s = sched.substr(0, plus);
        if (!parseU64(period_s, fc.period) || fc.period == 0)
            return Status::error("fault spec clause '" + clause +
                                 "': bad period '" + period_s + "'");
        if (plus != std::string::npos) {
            const std::string phase_s = sched.substr(plus + 1);
            if (!parseU64(phase_s, fc.phase) || fc.phase == 0)
                return Status::error("fault spec clause '" + clause +
                                     "': bad phase '" + phase_s + "'");
        }
        clauses.push_back(fc);
    }
    if (clauses.empty())
        return Status::error("fault spec: no clauses in '" + spec +
                             "'");
    out = std::move(clauses);
    return Status();
}

FaultInjector::FaultInjector(std::vector<FaultClause> clauses,
                             std::uint64_t seed)
    : clauses_(std::move(clauses)), rng_(seed)
{
}

bool
FaultInjector::fires(FaultKind kind, std::uint64_t interval) const
{
    for (const FaultClause &c : clauses_)
        if (c.kind == kind && c.firesAt(interval))
            return true;
    return false;
}

bool
FaultInjector::corruptOccupancy(std::vector<std::uint64_t> &occupancy,
                                std::uint64_t total_blocks,
                                std::uint64_t interval)
{
    if (occupancy.empty() || !fires(FaultKind::CorruptOccupancy, interval))
        return false;
    const std::size_t core = rng_.below(occupancy.size());
    switch (rng_.below(3)) {
      case 0: // lost counter
        occupancy[core] = 0;
        break;
      case 1: // overcount by a quarter of the cache
        occupancy[core] += total_blocks / 4 + 1;
        break;
      default: // dropped increments
        occupancy[core] /= 2;
        break;
    }
    count(FaultKind::CorruptOccupancy);
    return true;
}

bool
FaultInjector::skewShadow(IntervalSnapshot &snap, std::uint64_t interval)
{
    if (snap.cores.empty() || !fires(FaultKind::ShadowSkew, interval))
        return false;
    const std::size_t core = rng_.below(snap.cores.size());
    // Lost samples, 4x overcount, or sign corruption.
    static constexpr double factors[] = {0.0, 4.0, -1.0};
    const double f = factors[rng_.below(3)];
    auto &cs = snap.cores[core];
    cs.shadowMisses *= f;
    for (double &h : cs.shadowHitsAtPosition)
        h *= f;
    count(FaultKind::ShadowSkew);
    return true;
}

bool
FaultInjector::poisonInputs(std::vector<double> &occ_frac,
                            std::vector<double> &miss_frac,
                            std::uint64_t interval)
{
    if (occ_frac.empty())
        return false;
    bool any = false;
    if (fires(FaultKind::PoisonNan, interval)) {
        std::vector<double> &v =
            rng_.chance(0.5) ? occ_frac : miss_frac;
        v[rng_.below(v.size())] =
            std::numeric_limits<double>::quiet_NaN();
        count(FaultKind::PoisonNan);
        any = true;
    }
    if (fires(FaultKind::PoisonInf, interval)) {
        std::vector<double> &v =
            rng_.chance(0.5) ? occ_frac : miss_frac;
        const double inf = std::numeric_limits<double>::infinity();
        v[rng_.below(v.size())] = rng_.chance(0.5) ? inf : -inf;
        count(FaultKind::PoisonInf);
        any = true;
    }
    return any;
}

bool
FaultInjector::staleSnapshot(std::uint64_t interval)
{
    if (!fires(FaultKind::StaleSnapshot, interval))
        return false;
    count(FaultKind::StaleSnapshot);
    return true;
}

bool
FaultInjector::dropRecompute(std::uint64_t interval)
{
    if (!fires(FaultKind::DropRecompute, interval))
        return false;
    count(FaultKind::DropRecompute);
    return true;
}

bool
FaultInjector::saturateQuantisation(std::vector<double> &e,
                                    std::uint64_t interval)
{
    if (e.empty() || !fires(FaultKind::QuantSaturate, interval))
        return false;
    const double gain = 4.0 + static_cast<double>(rng_.below(5));
    for (double &v : e) {
        v *= gain;
        if (v > 1.0)
            v = 1.0;
    }
    count(FaultKind::QuantSaturate);
    return true;
}

} // namespace prism
