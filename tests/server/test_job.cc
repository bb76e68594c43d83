#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "server/job.hh"

namespace sentinel::server {
namespace {

TEST(JobSpec, ParsesFullSpec)
{
    JobSpec s = JobSpec::parse(
        "name=web model=resnet32 batch=8 policy=ial quota=0.3 prio=2 "
        "arrival-ms=5 steps=7 warmup=2");
    EXPECT_EQ(s.name, "web");
    EXPECT_EQ(s.model, "resnet32");
    EXPECT_EQ(s.batch, 8);
    EXPECT_EQ(s.policy, "ial");
    EXPECT_DOUBLE_EQ(s.quota_fraction, 0.3);
    EXPECT_EQ(s.quota_bytes, 0u);
    EXPECT_EQ(s.priority, 2);
    EXPECT_EQ(s.arrival, 5 * kMsec);
    EXPECT_EQ(s.steps, 7);
    EXPECT_EQ(s.warmup, 2);
}

TEST(JobSpec, DefaultsAreSane)
{
    JobSpec s = JobSpec::parse("model=lstm");
    EXPECT_EQ(s.model, "lstm");
    EXPECT_EQ(s.batch, 0);
    EXPECT_EQ(s.policy, "sentinel");
    EXPECT_DOUBLE_EQ(s.quota_fraction, 0.25);
    EXPECT_EQ(s.priority, 1);
    EXPECT_EQ(s.arrival, 0);
    EXPECT_EQ(s.steps, 0);
    EXPECT_EQ(s.warmup, -1);
}

TEST(JobSpec, ParsesAbsoluteQuota)
{
    EXPECT_EQ(JobSpec::parse("quota=64mb").quota_bytes, 64ull << 20);
    EXPECT_EQ(JobSpec::parse("quota=64MB").quota_bytes, 64ull << 20);
    EXPECT_EQ(JobSpec::parse("quota-mb=128").quota_bytes, 128ull << 20);
}

TEST(JobSpec, ChaosValueMayContainEqualsAndCommas)
{
    JobSpec s =
        JobSpec::parse("model=lstm chaos=shrink:step=2,factor=0.5");
    EXPECT_EQ(s.chaos, "shrink:step=2,factor=0.5");
}

TEST(JobSpec, ParseListSplitsOnSemicolons)
{
    auto specs = JobSpec::parseList(
        "model=resnet32 quota=0.4; model=synthetic:9 quota=0.2 prio=3;");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].model, "resnet32");
    EXPECT_EQ(specs[1].model, "synthetic:9");
    EXPECT_EQ(specs[1].priority, 3);
}

TEST(JobSpec, RejectsMalformedInput)
{
    EXPECT_THROW(JobSpec::parse("bogus-key=1"), harness::ConfigError);
    EXPECT_THROW(JobSpec::parse("model"), harness::ConfigError);
    EXPECT_THROW(JobSpec::parse("batch=abc"), harness::ConfigError);
    EXPECT_THROW(JobSpec::parse("prio=0"), harness::ConfigError);
    EXPECT_THROW(JobSpec::parse("arrival-ms=-1"), harness::ConfigError);
    EXPECT_THROW(JobSpec::parse("quota=0"), harness::ConfigError);
    EXPECT_THROW(JobSpec::parse("quota=1.5"), harness::ConfigError);
    // strtod accepts these; NaN passes a plain `<= 0 || > 1` check and
    // would reach an integer cast.
    for (const char *v : { "nan", "inf", "-inf" }) {
        EXPECT_THROW(JobSpec::parse(std::string("quota=") + v),
                     harness::ConfigError)
            << v;
        EXPECT_THROW(JobSpec::parse(std::string("arrival-ms=") + v),
                     harness::ConfigError)
            << v;
    }
    EXPECT_THROW(JobSpec::parse("arrival-ms=1e300"), harness::ConfigError);
    // chaos-seed takes the whole value, decimal or 0x hex, like the
    // CLI's --chaos-seed: no prefix parse, no silent zero.
    for (const char *v : { "12abc", "banana", "", "0x", "-1", "0x1g",
                           "99999999999999999999" }) {
        EXPECT_THROW(JobSpec::parse(std::string("chaos-seed=") + v),
                     harness::ConfigError)
            << v;
    }
    EXPECT_EQ(JobSpec::parse("chaos-seed=12").chaos_seed, 12u);
    EXPECT_EQ(JobSpec::parse("chaos-seed=0x1f").chaos_seed, 0x1fu);
}

TEST(JobSpec, SpecStringRoundTrips)
{
    JobSpec s = JobSpec::parse(
        "name=a model=synthetic:7 batch=4 policy=numa quota=0.35 "
        "prio=2 arrival-ms=3 steps=6 warmup=2 "
        "chaos=shrink:step=2,factor=0.5");
    JobSpec t = JobSpec::parse(s.toSpecString());
    EXPECT_EQ(t.name, s.name);
    EXPECT_EQ(t.model, s.model);
    EXPECT_EQ(t.batch, s.batch);
    EXPECT_EQ(t.policy, s.policy);
    EXPECT_DOUBLE_EQ(t.quota_fraction, s.quota_fraction);
    EXPECT_EQ(t.priority, s.priority);
    EXPECT_EQ(t.arrival, s.arrival);
    EXPECT_EQ(t.steps, s.steps);
    EXPECT_EQ(t.warmup, s.warmup);
    EXPECT_EQ(t.chaos, s.chaos);
}

} // namespace
} // namespace sentinel::server
