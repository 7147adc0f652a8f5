// End-to-end integration tests: full serving systems driven by the fleet
// harness on the three-continent topology. These validate the pipeline the
// figure benches rely on, plus cross-system invariants (prefix-aware
// systems beat RR on hit rate, cross-region forwarding actually happens
// under skew, Region-Local never forwards, etc.).

#include <gtest/gtest.h>

#include <string>

#include "src/harness/fleet.h"
#include "src/net/topology.h"

namespace skywalker {
namespace {

// Small Arena conversations from `clients_per_region` clients per region on
// a {2, 1, 1} fleet.
FleetSpec SmallFleet(SystemKind kind, int clients_per_region) {
  FleetSpec spec;
  spec.topology = Topology::ThreeContinents();
  spec.system = kind;
  spec.replicas_per_region = {2, 1, 1};
  spec.replica_config.kv_capacity_tokens = 16384;
  spec.conversation = ConversationWorkloadConfig::Arena();
  // Keep prompts small so tests run fast.
  spec.conversation.lengths.input_mu = 4.0;
  spec.conversation.lengths.output_mu = 4.6;
  spec.conversation.lengths.output_max = 2000;
  spec.clients_per_region = clients_per_region;
  spec.client.think_time_mean = Milliseconds(500);
  spec.client.program_gap_mean = Milliseconds(500);
  spec.warmup = Seconds(20);
  spec.measure = Seconds(60);
  return spec;
}

class AllSystemsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystemsTest, CompletesRequestsWithSaneTimestamps) {
  ExperimentResult result =
      RunFleetExperiment(SmallFleet(GetParam(), 6)).metrics;
  EXPECT_GT(result.completed, 50u) << result.system;
  EXPECT_GT(result.throughput_tok_s, 0.0);
  // TTFT must include at least one network round trip plus prefill.
  EXPECT_GT(result.ttft_p50_s, 0.001);
  // E2E dominates TTFT.
  EXPECT_GE(result.e2e_p50_s, result.ttft_p50_s);
  // Nothing should take minutes in this small setup.
  EXPECT_LT(result.e2e_p90_s, 120.0);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystemsTest,
    ::testing::Values(SystemKind::kGkeGateway, SystemKind::kRoundRobin,
                      SystemKind::kLeastLoad, SystemKind::kConsistentHash,
                      SystemKind::kSglRouter, SystemKind::kSkyWalker),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name(SystemKindName(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(IntegrationTest, PrefixAwareBeatsRoundRobinOnHitRate) {
  ExperimentResult rr =
      RunFleetExperiment(SmallFleet(SystemKind::kRoundRobin, 6)).metrics;
  for (SystemKind kind : {SystemKind::kSglRouter, SystemKind::kSkyWalker}) {
    ExperimentResult aware = RunFleetExperiment(SmallFleet(kind, 6)).metrics;
    EXPECT_GT(aware.cache_hit_rate, rr.cache_hit_rate) << aware.system;
  }
  FleetSpec sky_ch = SmallFleet(SystemKind::kSkyWalker, 6);
  sky_ch.lb.routing.policy = RoutingPolicyKind::kConsistentHash;
  EXPECT_GT(RunFleetExperiment(sky_ch).metrics.cache_hit_rate,
            rr.cache_hit_rate);
}

TEST(IntegrationTest, SkewedLoadTriggersForwarding) {
  // Region 0 heavily loaded; the others idle.
  FleetSpec spec = SmallFleet(SystemKind::kSkyWalker, 0);
  spec.replicas_per_region = {1, 1, 1};
  spec.conversation.lengths.output_mu = 4.8;
  ClientGroup heavy;
  heavy.region = 0;
  heavy.count = 30;
  heavy.client.think_time_mean = Milliseconds(200);
  heavy.client.program_gap_mean = Milliseconds(200);
  spec.groups.push_back(heavy);
  EXPECT_GT(RunFleetExperiment(spec).metrics.forwarded_fraction, 0.05)
      << "overloaded region should offload cross-region";
}

TEST(IntegrationTest, RegionLocalNeverForwards) {
  FleetSpec spec = SmallFleet(SystemKind::kSkyWalker, 8);
  spec.lb.routing.enable_forwarding = false;
  ExperimentResult result = RunFleetExperiment(spec).metrics;
  EXPECT_EQ(result.forwarded_fraction, 0.0);
  EXPECT_GT(result.completed, 50u);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  FleetSpec spec = SmallFleet(SystemKind::kSkyWalker, 4);
  spec.collect_trace = true;
  FleetResult a = RunFleetExperiment(spec);
  FleetResult b = RunFleetExperiment(spec);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_EQ(a.metrics.throughput_tok_s, b.metrics.throughput_tok_s);
  EXPECT_EQ(a.metrics.ttft_p50_s, b.metrics.ttft_p50_s);
}

}  // namespace
}  // namespace skywalker
