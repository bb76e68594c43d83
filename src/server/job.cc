#include "server/job.hh"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "harness/experiment.hh"

namespace sentinel::server {

namespace {

/** Split on whitespace (any run of spaces/tabs). */
std::vector<std::string>
tokens(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && (text[i] == ' ' || text[i] == '\t'))
            ++i;
        std::size_t j = i;
        while (j < text.size() && text[j] != ' ' && text[j] != '\t')
            ++j;
        if (j > i)
            out.push_back(text.substr(i, j - i));
        i = j;
    }
    return out;
}

int
parseInt(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    long x = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        throw harness::ConfigError(strprintf(
            "job spec: %s wants an integer, got '%s'", key.c_str(),
            v.c_str()));
    return static_cast<int>(x);
}

double
parseDouble(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        throw harness::ConfigError(strprintf(
            "job spec: %s wants a number, got '%s'", key.c_str(),
            v.c_str()));
    return x;
}

} // namespace

JobSpec
JobSpec::parse(const std::string &text)
{
    JobSpec spec;
    for (const std::string &tok : tokens(text)) {
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            throw harness::ConfigError(strprintf(
                "job spec: expected k=v fields, got '%s'", tok.c_str()));
        std::string key = tok.substr(0, eq);
        std::string val = tok.substr(eq + 1);
        if (key == "name") {
            spec.name = val;
        } else if (key == "model") {
            spec.model = val;
        } else if (key == "batch") {
            spec.batch = parseInt(key, val);
        } else if (key == "policy") {
            spec.policy = val;
        } else if (key == "quota") {
            // A fraction of the node tier, or "<N>mb" for bytes.
            if (val.size() > 2 &&
                (val.compare(val.size() - 2, 2, "mb") == 0 ||
                 val.compare(val.size() - 2, 2, "MB") == 0)) {
                spec.quota_bytes =
                    static_cast<std::uint64_t>(parseInt(
                        key, val.substr(0, val.size() - 2)))
                    << 20;
            } else {
                spec.quota_fraction = parseDouble(key, val);
            }
        } else if (key == "quota-mb") {
            spec.quota_bytes =
                static_cast<std::uint64_t>(parseInt(key, val)) << 20;
        } else if (key == "prio") {
            spec.priority = parseInt(key, val);
        } else if (key == "arrival-ms") {
            // Checked before the cast, and written so NaN fails too:
            // only a finite, non-negative, in-range value has a Tick.
            double ticks =
                parseDouble(key, val) * static_cast<double>(kMsec);
            if (!(std::isfinite(ticks) && ticks >= 0.0 &&
                  ticks < static_cast<double>(
                              std::numeric_limits<Tick>::max())))
                throw harness::ConfigError(strprintf(
                    "job spec: arrival-ms must be finite and >= 0 (got "
                    "'%s')",
                    val.c_str()));
            spec.arrival = static_cast<Tick>(ticks);
        } else if (key == "steps") {
            spec.steps = parseInt(key, val);
        } else if (key == "warmup") {
            spec.warmup = parseInt(key, val);
        } else if (key == "chaos") {
            spec.chaos = val;
        } else if (key == "chaos-seed") {
            spec.chaos_seed = std::strtoull(val.c_str(), nullptr, 0);
        } else {
            throw harness::ConfigError(strprintf(
                "job spec: unknown key '%s' (in '%s')", key.c_str(),
                tok.c_str()));
        }
    }
    if (spec.priority < 1)
        throw harness::ConfigError(strprintf(
            "job spec: prio must be >= 1 (got %d)", spec.priority));
    if (spec.quota_bytes == 0 &&
        !(spec.quota_fraction > 0.0 && spec.quota_fraction <= 1.0))
        throw harness::ConfigError(strprintf(
            "job spec: quota fraction must lie in (0, 1] (got %g)",
            spec.quota_fraction));
    return spec;
}

std::vector<JobSpec>
JobSpec::parseList(const std::string &text)
{
    std::vector<JobSpec> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t semi = text.find(';', start);
        std::string part =
            text.substr(start, semi == std::string::npos
                                   ? std::string::npos
                                   : semi - start);
        if (!tokens(part).empty())
            out.push_back(parse(part));
        if (semi == std::string::npos)
            break;
        start = semi + 1;
    }
    return out;
}

std::string
JobSpec::toSpecString() const
{
    std::string s = "model=" + model;
    if (!name.empty())
        s += " name=" + name;
    if (batch != 0)
        s += strprintf(" batch=%d", batch);
    if (policy != "sentinel")
        s += " policy=" + policy;
    if (quota_bytes != 0)
        s += strprintf(" quota-mb=%llu",
                       static_cast<unsigned long long>(quota_bytes >> 20));
    else
        s += strprintf(" quota=%.17g", quota_fraction);
    if (priority != 1)
        s += strprintf(" prio=%d", priority);
    if (arrival != 0)
        s += strprintf(" arrival-ms=%.17g",
                       toMillis(arrival));
    if (steps != 0)
        s += strprintf(" steps=%d", steps);
    if (warmup >= 0)
        s += strprintf(" warmup=%d", warmup);
    if (!chaos.empty())
        s += " chaos=" + chaos;
    if (chaos_seed != 0x5e97195eull)
        s += strprintf(" chaos-seed=0x%llx",
                       static_cast<unsigned long long>(chaos_seed));
    return s;
}

} // namespace sentinel::server
