#include "common/zipf.hh"

#include <map>
#include <mutex>

namespace prism
{

std::shared_ptr<const PowerLawTable>
PowerLawTable::shared(double theta)
{
    // Checked before the lookup: a NaN key would break the map's order.
    panicIf(!(theta > 0.0), "PowerLawTable: theta <= 0");

    static std::mutex mutex;
    static std::map<double, std::weak_ptr<const PowerLawTable>> tables;

    const std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = tables.find(theta); it != tables.end())
        if (auto table = it->second.lock())
            return table;
    // Drop the entries whose tables are gone, so the registry stays
    // as small as the set of exponents in use.
    std::erase_if(tables,
                  [](const auto &entry) { return entry.second.expired(); });
    auto table = std::make_shared<const PowerLawTable>(theta);
    tables[theta] = table;
    return table;
}

} // namespace prism
