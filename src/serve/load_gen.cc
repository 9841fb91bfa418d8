#include "serve/load_gen.hh"

#include "common/parse.hh"
#include "common/prism_assert.hh"

namespace prism::serve
{

Status
parseTenantSpec(std::string_view text, TenantSpec &out)
{
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view field =
            comma == std::string_view::npos ? text
                                            : text.substr(0, comma);
        text = comma == std::string_view::npos
                   ? std::string_view()
                   : text.substr(comma + 1);
        if (field.empty())
            continue;

        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos)
            return Status::error("tenant spec field '" +
                                 std::string(field) +
                                 "' is not key=value");
        const std::string_view key = field.substr(0, eq);
        const std::string_view value = field.substr(eq + 1);

        bool ok = true;
        if (key == "keys")
            ok = parseU64(value, out.keys) && out.keys > 0;
        else if (key == "zipf")
            ok = parseDouble(value, out.zipf) && out.zipf >= 0.0;
        else if (key == "get")
            ok = parseDouble(value, out.getFrac) &&
                 out.getFrac >= 0.0 && out.getFrac <= 1.0;
        else if (key == "vmin") {
            std::uint64_t v = 0;
            ok = parseU64(value, v) && v > 0 && v <= 0xFFFFFFFFull;
            out.vmin = static_cast<std::uint32_t>(v);
        } else if (key == "vmax") {
            std::uint64_t v = 0;
            ok = parseU64(value, v) && v > 0 && v <= 0xFFFFFFFFull;
            out.vmax = static_cast<std::uint32_t>(v);
        } else if (key == "weight")
            ok = parseDouble(value, out.weight) && out.weight >= 0.0;
        else if (key == "slo-hit")
            ok = parseDouble(value, out.sloHit) &&
                 out.sloHit >= 0.0 && out.sloHit <= 1.0;
        else if (key == "floor")
            ok = parseDouble(value, out.floorFrac) &&
                 out.floorFrac >= 0.0 && out.floorFrac < 1.0;
        else
            return Status::error("unknown tenant spec key '" +
                                 std::string(key) + "'");
        if (!ok)
            return Status::error("bad tenant spec value '" +
                                 std::string(field) + "'");
    }
    if (out.vmin > out.vmax)
        return Status::error("tenant spec has vmin > vmax");
    return Status();
}

LoadGen::LoadGen(std::vector<TenantSpec> specs,
                 std::uint32_t streams, std::uint64_t seed)
    : specs_(std::move(specs))
{
    fatalIf(specs_.empty(), "LoadGen: no tenants");
    fatalIf(streams == 0, "LoadGen: no streams");
    zipf_.reserve(specs_.size());
    for (const TenantSpec &spec : specs_)
        zipf_.emplace_back(spec.keys, spec.zipf);
    rngs_.reserve(streams);
    for (std::uint32_t s = 0; s < streams; ++s)
        rngs_.emplace_back(deriveSeed(seed, 0x57AE0000ull + s));
    value_salt_ = deriveSeed(seed, "value-size");
}

std::uint32_t
LoadGen::valueBytes(std::uint32_t tenant, std::uint64_t key) const
{
    const TenantSpec &spec = specs_[tenant];
    const std::uint64_t span = spec.vmax - spec.vmin + 1;
    const std::uint64_t h = Rng::mix64(
        value_salt_ ^ Rng::mix64(key + 0x9E3779B97F4A7C15ULL *
                                           (tenant + 1)));
    return spec.vmin + static_cast<std::uint32_t>(h % span);
}

void
LoadGen::fill(std::uint32_t stream, std::span<Request> batch)
{
    Rng &rng = rngs_[stream];
    const auto tenants =
        static_cast<std::uint32_t>(specs_.size());
    for (Request &req : batch) {
        req.tenant =
            tenants == 1
                ? 0
                : static_cast<std::uint32_t>(rng.below(tenants));
        req.key = zipf_[req.tenant].next(rng);
        req.isPut = !rng.chance(specs_[req.tenant].getFrac);
        req.valueBytes = valueBytes(req.tenant, req.key);
    }
}

} // namespace prism::serve
