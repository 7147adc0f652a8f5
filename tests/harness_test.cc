// Tests for the experiment harness: every serving system the figures run
// (each SystemKind plus the SkyWalker-CH and Region-Local configurations)
// builds, completes requests with sane per-outcome timestamps, places its
// frontends where the paper does, and replays deterministically.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/harness/fleet.h"
#include "src/net/topology.h"
#include "src/obs/trace.h"

namespace skywalker {
namespace {

// A system under test: a frontend kind plus the SkyWalker knobs that turn
// it into SkyWalker-CH or Region-Local.
struct TestSystem {
  const char* name;
  SystemKind kind;
  RoutingPolicyKind policy = RoutingPolicyKind::kPrefixTree;
  bool forwarding = true;
};

const TestSystem kAllSystems[] = {
    {"GKE_Gateway", SystemKind::kGkeGateway},
    {"RR", SystemKind::kRoundRobin},
    {"LL", SystemKind::kLeastLoad},
    {"CH", SystemKind::kConsistentHash},
    {"SGL", SystemKind::kSglRouter},
    {"SkyWalker_CH", SystemKind::kSkyWalker,
     RoutingPolicyKind::kConsistentHash},
    {"SkyWalker", SystemKind::kSkyWalker},
    {"Region_Local", SystemKind::kSkyWalker, RoutingPolicyKind::kPrefixTree,
     /*forwarding=*/false},
};

// One replica per continent, four Arena clients per region.
FleetSpec TinyFleet(const TestSystem& system, uint64_t seed) {
  FleetSpec spec;
  spec.topology = Topology::ThreeContinents();
  spec.system = system.kind;
  spec.lb.routing.policy = system.policy;
  spec.lb.routing.enable_forwarding = system.forwarding;
  spec.replicas_per_region = {1, 1, 1};
  spec.replica_config.kv_capacity_tokens = 16384;
  spec.conversation = ConversationWorkloadConfig::Arena();
  spec.conversation.lengths.output_max = 1500;
  spec.clients_per_region = 4;
  spec.client.think_time_mean = Milliseconds(300);
  spec.client.program_gap_mean = Milliseconds(300);
  spec.seed = seed;
  spec.warmup = Seconds(10);
  spec.measure = Seconds(40);
  spec.collect_trace = true;
  return spec;
}

// One parsed line of FleetResult::trace.
struct TraceOutcome {
  long long id = 0;
  int client_region = 0;
  int served_region = 0;
  int replica = 0;
  long long submit = 0;
  long long first_token = 0;
  long long completion = 0;
  long long prompt = 0;
  long long cached = 0;
  long long output = 0;
  int hops = 0;
  bool forwarded = false;
};

std::vector<TraceOutcome> ParseTrace(const std::string& trace) {
  std::vector<TraceOutcome> outcomes;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    TraceOutcome o;
    char flag = 0;
    const int fields = std::sscanf(
        line.c_str(),
        "%lld r%d>r%d@%d s%lld f%lld c%lld p%lld k%lld o%lld h%d %c", &o.id, &o.client_region, &o.served_region, &o.replica, &o.submit,
        &o.first_token, &o.completion, &o.prompt, &o.cached, &o.output,
        &o.hops, &flag);
    EXPECT_GE(fields, 11) << line;
    o.forwarded = fields == 12 && flag == 'F';
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST(FleetHarnessTest, ResultFieldsAreConsistent) {
  FleetResult fleet = RunFleetExperiment(TinyFleet(kAllSystems[6], 5));
  const ExperimentResult& result = fleet.metrics;
  EXPECT_EQ(result.system, "SkyWalker");
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.ttft.count(), result.completed);
  EXPECT_EQ(result.e2e.count(), result.completed);
  EXPECT_GE(result.throughput_tok_s, result.output_throughput_tok_s);
  EXPECT_GE(result.ttft_p90_s, result.ttft_p50_s);
  EXPECT_GE(result.e2e_p90_s, result.e2e_p50_s);
  EXPECT_GE(result.cache_hit_rate, 0.0);
  EXPECT_LE(result.cache_hit_rate, 1.0);
  EXPECT_GE(result.forwarded_fraction, 0.0);
  EXPECT_LE(result.forwarded_fraction, 1.0);
  EXPECT_GE(fleet.completed_total, static_cast<int64_t>(result.completed));
}

// Property: every outcome of every system, across seeds, has
// submit <= first token <= completion, a partial cache hit, a replica of
// the three-replica fleet in its own region, and hops that agree with the
// forwarded flag.
class HarnessPropertyTest
    : public ::testing::TestWithParam<std::tuple<TestSystem, uint64_t>> {};

TEST_P(HarnessPropertyTest, TtftNeverExceedsE2e) {
  const auto& [system, seed] = GetParam();
  FleetResult result = RunFleetExperiment(TinyFleet(system, seed));
  const std::vector<TraceOutcome> outcomes = ParseTrace(result.trace);
  ASSERT_GT(outcomes.size(), 10u) << system.name;
  for (const TraceOutcome& o : outcomes) {
    EXPECT_LE(o.submit, o.first_token);
    EXPECT_LE(o.first_token, o.completion);
    EXPECT_GE(o.cached, 0);
    EXPECT_LT(o.cached, o.prompt);
    EXPECT_GE(o.replica, 0);
    EXPECT_LT(o.replica, 3);
    EXPECT_EQ(o.served_region, o.replica);  // Replica i sits in region i.
    EXPECT_TRUE(o.hops == 1 || o.hops == 2);
    EXPECT_EQ(o.hops == 2, o.forwarded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, HarnessPropertyTest,
    ::testing::Combine(::testing::ValuesIn(kAllSystems),
                       ::testing::Values(11u, 22u, 33u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// Property: deterministic replay — identical specs give byte-identical
// outcome streams and metrics for every system.
class DeterminismPropertyTest : public ::testing::TestWithParam<TestSystem> {
};

TEST_P(DeterminismPropertyTest, IdenticalAcrossRuns) {
  FleetResult a = RunFleetExperiment(TinyFleet(GetParam(), 9));
  FleetResult b = RunFleetExperiment(TinyFleet(GetParam(), 9));
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_EQ(a.metrics.throughput_tok_s, b.metrics.throughput_tok_s);
  EXPECT_EQ(a.metrics.ttft_p90_s, b.metrics.ttft_p90_s);
  EXPECT_EQ(a.metrics.cache_hit_rate, b.metrics.cache_hit_rate);
  EXPECT_EQ(a.metrics.outstanding_imbalance, b.metrics.outstanding_imbalance);
}

INSTANTIATE_TEST_SUITE_P(Systems, DeterminismPropertyTest,
                         ::testing::ValuesIn(kAllSystems),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// Regions in which some balancer queued a request.
std::set<int> LbRegions(const TestSystem& system) {
  Tracer tracer(3);
  FleetSpec spec = TinyFleet(system, 3);
  spec.tracer = &tracer;
  RunFleetExperiment(spec);
  std::set<int> regions;
  for (const TraceRecord& record : tracer.Merged()) {
    if (record.type == static_cast<uint16_t>(TraceEventType::kLbEnqueue)) {
      regions.insert(record.region);
    }
  }
  return regions;
}

TEST(FleetHarnessTest, CentralBaselinesQueueInRegionZero) {
  for (const TestSystem& system : kAllSystems) {
    if (system.kind == SystemKind::kSkyWalker ||
        system.kind == SystemKind::kGkeGateway) {
      continue;
    }
    EXPECT_EQ(LbRegions(system), (std::set<int>{0})) << system.name;
  }
}

TEST(FleetHarnessTest, RegionalSystemsQueueInEveryRegion) {
  EXPECT_EQ(LbRegions(kAllSystems[6]), (std::set<int>{0, 1, 2}));
}

// One shard runs every region on one thread, so the central baselines'
// direct cross-region calls and LB fail/recover faults are safe there. Any
// num_shards <= 1 means that one shard.
TEST(FleetHarnessTest, OneShardRunsBaselinesAndLbFaults) {
  FleetSpec baseline = TinyFleet(kAllSystems[1], 1);  // Central RR.
  baseline.num_shards = 1;
  const FleetResult rr = RunFleetExperiment(baseline);
  EXPECT_EQ(rr.num_shards, 1);
  EXPECT_GT(rr.metrics.completed, 0u);
  baseline.num_shards = 0;
  EXPECT_EQ(RunFleetExperiment(baseline).trace, rr.trace);

  FleetSpec faulted = TinyFleet(kAllSystems[6], 1);  // SkyWalker.
  faulted.num_shards = 1;
  FleetFault fail;
  fail.kind = FleetFault::kLbFail;
  fail.region = 1;
  fail.at = Seconds(15);
  FleetFault recover = fail;
  recover.kind = FleetFault::kLbRecover;
  recover.at = Seconds(25);
  faulted.faults = {fail, recover};
  const FleetResult lb_faults = RunFleetExperiment(faulted);
  EXPECT_EQ(lb_faults.num_shards, 1);
  EXPECT_GT(lb_faults.metrics.completed, 0u);
}

// Runs on more than one shard must be rejected before anything is built
// when they would race: LB recovery and failover touch two regions' LBs,
// and baselines call replicas in other regions directly.
TEST(FleetHarnessDeathTest, ShardedRunRejectsLbFail) {
  FleetSpec spec = TinyFleet(kAllSystems[6], 1);
  spec.num_shards = 3;
  FleetFault fault;
  fault.kind = FleetFault::kLbFail;
  fault.at = Seconds(5);
  spec.faults.push_back(fault);
  EXPECT_DEATH(RunFleetExperiment(spec),
               "more than one shard requires SkyWalker");
}

TEST(FleetHarnessDeathTest, ShardedRunRejectsLbRecover) {
  FleetSpec spec = TinyFleet(kAllSystems[6], 1);
  spec.num_shards = 3;
  FleetFault fault;
  fault.kind = FleetFault::kLbRecover;
  fault.at = Seconds(5);
  spec.faults.push_back(fault);
  EXPECT_DEATH(RunFleetExperiment(spec),
               "more than one shard requires SkyWalker");
}

TEST(FleetHarnessDeathTest, ShardedRunRejectsBaselineSystems) {
  for (const TestSystem& system : kAllSystems) {
    if (system.kind == SystemKind::kSkyWalker) {
      continue;
    }
    FleetSpec spec = TinyFleet(system, 1);
    spec.num_shards = 2;
    EXPECT_DEATH(RunFleetExperiment(spec),
                 "more than one shard requires SkyWalker")
        << system.name;
  }
}

TEST(FleetHarnessDeathTest, BaselinesRejectLbFaults) {
  FleetSpec spec = TinyFleet(kAllSystems[1], 1);
  FleetFault fault;
  fault.kind = FleetFault::kLbFail;
  spec.faults.push_back(fault);
  EXPECT_DEATH(RunFleetExperiment(spec), "need SkyWalker LBs");
}

}  // namespace
}  // namespace skywalker
