#include "analysis/online_doctor.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/series.hh"
#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/prism_assert.hh"

namespace prism::analysis
{

ServeLiveObserver::ServeLiveObserver(
    const serve::ServeConfig &config, LiveObserverOptions options)
    : config_(config), options_(std::move(options)),
      window_(static_cast<std::uint32_t>(config.tenants.size()),
              options_.windowCapacity),
      history_(std::max<std::size_t>(1, config.recorderCapacity))
{
    // The copied config is data only; the engine's hook pointers
    // must not dangle into a previous run.
    config_.observer = nullptr;
    config_.stopFlag = nullptr;
}

void
ServeLiveObserver::onIntervalClosed(
    const telemetry::IntervalSample &sample,
    std::span<const std::uint64_t> /*evictions*/,
    const serve::ServeLiveState &state)
{
    window_.push(sample);
    history_.record(sample);
    last_ = state;
}

void
ServeLiveObserver::onRoundEnd(const serve::ServeLiveState &state)
{
    last_ = state;
    const std::uint64_t every = options_.metricsEvery;
    if (every > 0 && state.rounds > 0 && state.rounds % every == 0) {
        Status st = flush();
        if (exportStatus_.ok() && !st)
            exportStatus_ = st;
    }
}

void
ServeLiveObserver::onRunEnd(const serve::ServeLiveState &state)
{
    last_ = state;
    ended_ = true;
}

Status
ServeLiveObserver::flush() const
{
    if (options_.metricsJsonPath.empty() &&
        options_.metricsPromPath.empty())
        return Status();
    // One verdict serves both renderings.
    const std::optional<Verdict> verdict = embeddedVerdict();
    if (!options_.metricsJsonPath.empty()) {
        std::ostringstream os;
        renderJson(os, verdict);
        os << "\n";
        Status st = writeFileAtomic(options_.metricsJsonPath, os.str());
        if (!st)
            return st;
    }
    if (!options_.metricsPromPath.empty()) {
        std::ostringstream os;
        renderPrometheus(os, verdict);
        Status st = writeFileAtomic(options_.metricsPromPath, os.str());
        if (!st)
            return st;
    }
    return Status();
}

Status
ServeLiveObserver::flushFinal() const
{
    if (Status st = flush(); !st)
        return st;
    return exportStatus_;
}

void
ServeLiveObserver::writeJson(std::ostream &os) const
{
    renderJson(os, embeddedVerdict());
}

void
ServeLiveObserver::writePrometheus(std::ostream &os) const
{
    renderPrometheus(os, embeddedVerdict());
}

std::optional<Verdict>
ServeLiveObserver::embeddedVerdict() const
{
    if (!options_.onlineDoctor)
        return std::nullopt;
    return grade();
}

Verdict
ServeLiveObserver::grade() const
{
    std::ostringstream text;
    renderJson(text, std::nullopt);
    JsonValue doc;
    Status st = parseJson(text.str(), doc);
    RunSeries series;
    if (st.ok())
        st = seriesFromMetricsJson(doc, series);
    if (!st.ok())
        panic("online doctor: cannot read back its own snapshot: " +
              st.message());
    return analyze(series);
}

} // namespace prism::analysis
