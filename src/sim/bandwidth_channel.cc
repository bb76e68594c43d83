#include "sim/bandwidth_channel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sentinel::sim {

BandwidthChannel::BandwidthChannel(std::string name, double bytes_per_sec,
                                   Tick startup_latency)
    : name_(std::move(name)), bytes_per_sec_(bytes_per_sec),
      startup_latency_(startup_latency)
{
    SENTINEL_ASSERT(bytes_per_sec_ > 0.0,
                    "channel '%s' needs positive bandwidth", name_.c_str());
    SENTINEL_ASSERT(startup_latency_ >= 0, "negative startup latency");
}

Tick
BandwidthChannel::submit(Tick ready, std::uint64_t bytes)
{
    return submitWithStartup(ready, bytes, startup_latency_);
}

Tick
BandwidthChannel::submitWithStartup(Tick ready, std::uint64_t bytes,
                                    Tick startup)
{
    Tick start = std::max(ready, busy_until_);
    Tick duration = startup + transferTime(bytes, bytes_per_sec_);
    busy_until_ = start + duration;
    bytes_transferred_ += bytes;
    num_transfers_ += 1;
    busy_time_ += duration;
    return busy_until_;
}

ArrivalCurve
BandwidthChannel::submitRun(const ArrivalCurve &ready, std::uint64_t count,
                            std::uint64_t bytes_each, Tick startup)
{
    SENTINEL_ASSERT(count > 0, "empty transfer run on '%s'", name_.c_str());
    const Tick T = transferTime(bytes_each, bytes_per_sec_);
    ArrivalCurve out;
    out.add(std::max(ready.at(0), busy_until_) + startup + T, T);
    for (unsigned i = 0; i < ready.lines; ++i)
        if (ready.stride[i] > T)
            out.add(ready.base[i] + T, ready.stride[i]);
    busy_until_ = out.at(count - 1);
    bytes_transferred_ += count * bytes_each;
    num_transfers_ += count;
    busy_time_ += startup + static_cast<Tick>(count) * T;
    return out;
}

Tick
BandwidthChannel::estimateCompletion(Tick ready, std::uint64_t bytes) const
{
    Tick start = std::max(ready, busy_until_);
    return start + startup_latency_ + transferTime(bytes, bytes_per_sec_);
}

void
BandwidthChannel::setBandwidth(double bytes_per_sec)
{
    SENTINEL_ASSERT(bytes_per_sec > 0.0,
                    "channel '%s' needs positive bandwidth", name_.c_str());
    bytes_per_sec_ = bytes_per_sec;
}

void
BandwidthChannel::blockUntil(Tick until)
{
    if (until <= busy_until_) return;
    busy_time_ += until - busy_until_;
    busy_until_ = until;
}

void
BandwidthChannel::reset()
{
    busy_until_ = 0;
    bytes_transferred_ = 0;
    num_transfers_ = 0;
    busy_time_ = 0;
}

} // namespace sentinel::sim
