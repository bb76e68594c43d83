#include "core/runtime.hh"

#include <cmath>

#include "common/logging.hh"

namespace sentinel::core {

std::vector<mem::TierParams>
RuntimeConfig::tierChain() const
{
    std::vector<mem::TierParams> chain;
    chain.push_back(fast);
    if (single_tier) {
        SENTINEL_ASSERT(mids.empty(),
                        "single_tier excludes middle tiers");
        return chain;
    }
    for (const mem::TierParams &t : mids)
        chain.push_back(t);
    chain.push_back(slow);
    return chain;
}

std::vector<mem::MigrationParams>
RuntimeConfig::linkChain() const
{
    if (single_tier)
        return {};
    if (!links.empty()) {
        SENTINEL_ASSERT(links.size() == mids.size() + 1,
                        "links must cover every tier pair (%zu links "
                        "for %zu tiers)",
                        links.size(), mids.size() + 2);
        return links;
    }
    return std::vector<mem::MigrationParams>(mids.size() + 1, migration);
}

void
RuntimeConfig::insertMidTiers(int count, std::uint64_t bytes_each,
                              double bw_override)
{
    SENTINEL_ASSERT(count > 0, "need at least one middle tier");
    SENTINEL_ASSERT(!single_tier && mids.empty() && links.empty(),
                    "insertMidTiers() wants a pristine two-tier config");
    auto lerp = [](double a, double b, double w) {
        // Geometric interpolation: tier parameters span orders of
        // magnitude, so the middle of HBM and NVMe is their geometric
        // mean, not their average.
        return std::pow(a, 1.0 - w) * std::pow(b, w);
    };
    int n = count + 2; // chain length
    for (int j = 1; j <= count; ++j) {
        double w = static_cast<double>(j) / static_cast<double>(n - 1);
        mem::TierParams mid;
        mid.name = count == 1 ? "mid" : "mid" + std::to_string(j);
        mid.capacity = bytes_each;
        mid.read_bw = bw_override > 0.0
                          ? bw_override
                          : lerp(fast.read_bw, slow.read_bw, w);
        mid.write_bw = bw_override > 0.0
                           ? bw_override
                           : lerp(fast.write_bw, slow.write_bw, w);
        mid.read_latency = static_cast<Tick>(
            lerp(static_cast<double>(fast.read_latency),
                 static_cast<double>(slow.read_latency), w));
        mid.write_latency = static_cast<Tick>(
            lerp(static_cast<double>(fast.write_latency),
                 static_cast<double>(slow.write_latency), w));
        mids.push_back(mid);
    }
    // Link 0 keeps the profiled migration channel; the far legs run at
    // the override (when given) so a staged prefetch's early hops are
    // visibly cheaper or dearer than its final fast-bound hop.
    links.assign(static_cast<std::size_t>(count) + 1, migration);
    if (bw_override > 0.0) {
        for (std::size_t i = 1; i < links.size(); ++i) {
            links[i].promote_bw = bw_override;
            links[i].demote_bw = bw_override;
        }
    }
}

RuntimeConfig
RuntimeConfig::optane(std::uint64_t fast_bytes)
{
    RuntimeConfig cfg;
    // DDR4-2666, 6 channels per socket.
    cfg.fast = { "dram", fast_bytes, 76e9, 50e9, 85, 90 };
    // Optane DC PMM, 6 DIMMs, App-Direct mode.
    cfg.slow = { "pmm", 512ull << 30, 30e9, 10e9, 300, 120 };
    // move_pages() through two helper threads.
    cfg.migration = { 8.0e9, 6.0e9, 2 * kUsec };
    // Dual-socket Cascade Lake; sustained FP32 throughput of TF CPU
    // training kernels (far below peak AVX-512).
    cfg.exec = { 0.6e12, 2 * kUsec };
    cfg.profiler = {};
    cfg.sentinel = {};
    return cfg;
}

RuntimeConfig
RuntimeConfig::cxl(std::uint64_t fast_bytes)
{
    RuntimeConfig cfg = optane(fast_bytes);
    // CXL 2.0 attached DDR: near-DRAM bandwidth, ~2-3x the latency.
    cfg.slow = { "cxl", 512ull << 30, 48e9, 40e9, 210, 180 };
    cfg.migration = { 12.0e9, 10.0e9, 2 * kUsec };
    return cfg;
}

RuntimeConfig
RuntimeConfig::gpu(std::uint64_t hbm_bytes)
{
    RuntimeConfig cfg;
    // V100: HBM2.
    cfg.fast = { "hbm", hbm_bytes, 800e9, 750e9, 300, 300 };
    // Host memory reached from the GPU over PCIe 3.0 x16.
    cfg.slow = { "host", 512ull << 30, 11e9, 11e9, 1 * kUsec, 1 * kUsec };
    // cudaMemPrefetchAsync over PCIe, one channel per direction.
    cfg.migration = { 11e9, 11e9, 10 * kUsec };
    // Sustained FP32 throughput + kernel-launch overhead.
    cfg.exec = { 10.0e12, 8 * kUsec };
    cfg.profiler.gpu_pinned = true;
    cfg.profiler.gpu_link_bw = 11e9;
    cfg.sentinel.gpu_mode = true;
    return cfg;
}

prof::ProfileResult
profileStep(const df::Graph &graph, const RuntimeConfig &rc)
{
    mem::HeterogeneousMemory hm(rc.tierChain(), rc.linkChain());
    prof::Profiler profiler(rc.profiler);
    return profiler.profile(graph, hm, rc.exec);
}

Runtime::Runtime(df::Graph graph, RuntimeConfig cfg)
    : graph_(std::move(graph)), cfg_(std::move(cfg))
{
    SENTINEL_ASSERT(graph_.finalized(), "graph must be finalized");
    if (cfg_.telemetry.enabled)
        telemetry_ = std::make_unique<telemetry::Session>(cfg_.telemetry);
    hm_ = std::make_unique<mem::HeterogeneousMemory>(cfg_.tierChain(),
                                                     cfg_.linkChain());
    hm_->setTelemetry(telemetry_.get());
}

void
Runtime::ensureProfiled()
{
    // The real implementation profiles the 11th step in place; here
    // it runs on a scratch memory system (see profileStep).
    if (!profile_)
        profile_ = profileStep(graph_, cfg_);
}

void
Runtime::ensureExecutor()
{
    ensureProfiled();
    if (executor_)
        return;
    policy_ = std::make_unique<SentinelPolicy>(profile_->db,
                                               cfg_.sentinel);
    policy_->setTelemetry(telemetry_.get());
    executor_ = std::make_unique<df::Executor>(graph_, *hm_, cfg_.exec,
                                               *policy_);
    executor_->setTelemetry(telemetry_.get());
}

const prof::ProfileResult &
Runtime::profileResult()
{
    ensureProfiled();
    return *profile_;
}

std::vector<df::StepStats>
Runtime::train(int steps)
{
    ensureExecutor();
    return executor_->run(steps);
}

const SentinelPolicy &
Runtime::policy() const
{
    SENTINEL_ASSERT(policy_ != nullptr, "train() has not run yet");
    return *policy_;
}

} // namespace sentinel::core
