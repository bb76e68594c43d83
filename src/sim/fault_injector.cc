#include "sim/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace sentinel::sim {

namespace {

/// A malformed spec is rejected input, not a runtime failure: callers
/// (harness::validate()) map std::invalid_argument to a ConfigError.
template <typename... Args>
[[noreturn]] void
reject(const char *fmt, Args... args)
{
    throw std::invalid_argument(strprintf(fmt, args...));
}

/// splitmix64: tiny, well-mixed, and stateless — exactly what the
/// per-(seed, step, layer) jitter needs to stay order-independent.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hashed key.
double
hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = mix64(seed ^ mix64(a ^ mix64(b)));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream is(text);
    while (std::getline(is, cur, sep))
        if (!cur.empty()) out.push_back(cur);
    return out;
}

ChannelSel
parseChannel(const std::string &v, const std::string &clause)
{
    if (v == "promote") return ChannelSel::Promote;
    if (v == "demote") return ChannelSel::Demote;
    if (v == "both") return ChannelSel::Both;
    reject("chaos clause '%s': bad channel '%s' "
                   "(want promote|demote|both)",
                   clause.c_str(), v.c_str());
}

double
parseDouble(const std::string &v, const std::string &clause)
{
    char *end = nullptr;
    double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        reject("chaos clause '%s': bad number '%s'", clause.c_str(),
                       v.c_str());
    return d;
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    for (const std::string &clause : splitOn(text, ';')) {
        auto colon = clause.find(':');
        if (colon == std::string::npos)
            reject("chaos clause '%s': want kind:key=val,...",
                           clause.c_str());
        std::string kind = clause.substr(0, colon);

        FaultEvent ev;
        bool have_step = false;
        if (kind == "bw") {
            ev.kind = FaultKind::BwDegrade;
        } else if (kind == "stall") {
            ev.kind = FaultKind::ChannelStall;
        } else if (kind == "shrink") {
            ev.kind = FaultKind::CapacityShrink;
        } else if (kind == "jitter") {
            ev.kind = FaultKind::ComputeJitter;
        } else if (kind == "drift") {
            ev.kind = FaultKind::TrafficDrift;
        } else {
            reject("chaos clause '%s': unknown kind '%s' "
                           "(want bw|stall|shrink|jitter|drift)",
                           clause.c_str(), kind.c_str());
        }

        for (const std::string &kv : splitOn(clause.substr(colon + 1), ',')) {
            auto eq = kv.find('=');
            if (eq == std::string::npos)
                reject("chaos clause '%s': bad key=val '%s'",
                               clause.c_str(), kv.c_str());
            std::string key = kv.substr(0, eq);
            std::string val = kv.substr(eq + 1);
            if (key == "step") {
                ev.step = static_cast<int>(parseDouble(val, clause));
                have_step = true;
            } else if (key == "factor") {
                ev.factor = parseDouble(val, clause);
            } else if (key == "amp") {
                ev.amplitude = parseDouble(val, clause);
            } else if (key == "ms") {
                ev.duration =
                    static_cast<Tick>(parseDouble(val, clause) * kMsec);
            } else if (key == "us") {
                ev.duration =
                    static_cast<Tick>(parseDouble(val, clause) * kUsec);
            } else if (key == "ch") {
                ev.channel = parseChannel(val, clause);
            } else if (key == "tier") {
                if (ev.kind != FaultKind::CapacityShrink)
                    reject("chaos clause '%s': key 'tier' is only "
                                   "valid for shrink",
                                   clause.c_str());
                double t = parseDouble(val, clause);
                if (t < 0.0 || t >= static_cast<double>(kMaxFaultTiers))
                    reject("chaos clause '%s': tier must be in "
                                   "[0, %u)",
                                   clause.c_str(), kMaxFaultTiers);
                ev.tier = static_cast<unsigned>(t);
            } else {
                reject("chaos clause '%s': unknown key '%s'",
                               clause.c_str(), key.c_str());
            }
        }

        if (!have_step)
            reject("chaos clause '%s': missing step=", clause.c_str());
        switch (ev.kind) {
        case FaultKind::BwDegrade:
        case FaultKind::CapacityShrink:
        case FaultKind::TrafficDrift:
            if (ev.factor <= 0.0)
                reject("chaos clause '%s': factor must be > 0",
                               clause.c_str());
            break;
        case FaultKind::ChannelStall:
            if (ev.duration <= 0)
                reject("chaos clause '%s': want ms= or us= > 0",
                               clause.c_str());
            break;
        case FaultKind::ComputeJitter:
            if (ev.amplitude <= 0.0 || ev.amplitude >= 1.0)
                reject("chaos clause '%s': amp must be in (0, 1)",
                               clause.c_str());
            break;
        }
        spec.events.push_back(ev);
    }
    if (spec.events.empty())
        reject("empty chaos spec '%s'", text.c_str());
    return spec;
}

FaultInjector::FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

void
FaultInjector::beginStep(int step)
{
    step_ = step;
    any_active_ = false;
    promote_scale_ = 1.0;
    demote_scale_ = 1.0;
    for (double &s : capacity_scales_)
        s = 1.0;
    traffic_scale_ = 1.0;
    jitter_amp_ = 0.0;
    stalls_ = StepStalls{};

    // Re-fold from scratch every step: the accessors report *absolute*
    // scales relative to the profiled baseline, so repeated application
    // cannot compound.
    for (const FaultEvent &ev : spec_.events) {
        if (step < ev.step) continue;
        any_active_ = true;
        switch (ev.kind) {
        case FaultKind::BwDegrade:
            if (ev.channel != ChannelSel::Demote)
                promote_scale_ *= ev.factor;
            if (ev.channel != ChannelSel::Promote)
                demote_scale_ *= ev.factor;
            break;
        case FaultKind::ChannelStall:
            if (step == ev.step) {
                if (ev.channel != ChannelSel::Demote)
                    stalls_.promote = std::max(stalls_.promote, ev.duration);
                if (ev.channel != ChannelSel::Promote)
                    stalls_.demote = std::max(stalls_.demote, ev.duration);
            }
            break;
        case FaultKind::CapacityShrink:
            capacity_scales_[ev.tier] *= ev.factor;
            break;
        case FaultKind::ComputeJitter:
            jitter_amp_ = std::max(jitter_amp_, ev.amplitude);
            break;
        case FaultKind::TrafficDrift:
            traffic_scale_ *= ev.factor;
            break;
        }
    }
}

double
FaultInjector::computeScale(int layer) const
{
    if (jitter_amp_ <= 0.0) return 1.0;
    double u = hash01(spec_.seed, static_cast<std::uint64_t>(step_),
                      static_cast<std::uint64_t>(layer));
    return 1.0 + jitter_amp_ * (2.0 * u - 1.0);
}

} // namespace sentinel::sim
