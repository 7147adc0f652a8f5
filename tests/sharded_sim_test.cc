// Region-sharded parallel simulation (ISSUE 6): shard assignment and
// lookahead derivation, keyed event ordering, cross-shard message delivery,
// and the headline determinism contract — fleet results bit-identical
// across shard counts and thread counts, with one shard as the reference.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/fleet.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/event_queue.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

TEST(ShardedSimulatorTest, ShardMapIsRegionModShards) {
  Topology topo = Topology::FourRegions();
  ShardedSimulator sim(topo, /*num_shards=*/2, /*num_threads=*/1);
  EXPECT_EQ(sim.num_shards(), 2);
  EXPECT_EQ(sim.ShardOf(0), 0);
  EXPECT_EQ(sim.ShardOf(1), 1);
  EXPECT_EQ(sim.ShardOf(2), 0);
  EXPECT_EQ(sim.ShardOf(3), 1);
  EXPECT_EQ(sim.SimForRegion(2), sim.shard(0));
}

TEST(ShardedSimulatorTest, ShardCountClampedToRegions) {
  ShardedSimulator sim(Topology::FourRegions(), /*num_shards=*/16);
  EXPECT_EQ(sim.num_shards(), 4);
}

// The tightest per-pair bound over all ordered shard pairs, diagonal
// included (kSimTimeMax there).
SimDuration MinPairLookahead(const ShardedSimulator& sim) {
  SimDuration min = kSimTimeMax;
  for (int src = 0; src < sim.num_shards(); ++src) {
    for (int dst = 0; dst < sim.num_shards(); ++dst) {
      min = std::min(min, sim.PairLookahead(src, dst));
    }
  }
  return min;
}

TEST(ShardedSimulatorTest, LookaheadIsMinCrossShardLatency) {
  Topology topo = Topology::FourRegions();
  // 4 shards: every inter-region link is cross-shard; min is us-east <->
  // us-west at 33 ms.
  ShardedSimulator four(topo, 4);
  EXPECT_EQ(MinPairLookahead(four), Milliseconds(33));
  // 2 shards ({0,2} vs {1,3}): the 0<->2 (40 ms) link goes intra-shard but
  // 0<->1 (33 ms) still crosses.
  ShardedSimulator two(topo, 2);
  EXPECT_EQ(MinPairLookahead(two), Milliseconds(33));
  // Single shard: no cross-shard links, unbounded window.
  ShardedSimulator one(topo, 1);
  EXPECT_EQ(MinPairLookahead(one), kSimTimeMax);
}

TEST(ShardedSimulatorTest, OneShardRunUntilRunsEventsAtEachDeadline) {
  // A single shard has no incoming edges, so each RunUntil is one round up
  // to deadline + 1: an event at exactly the deadline runs, the clock ends
  // on the deadline, and repeating a deadline executes nothing.
  ShardedSimulator sim(Topology::FourRegions(), /*num_shards=*/1);
  Simulator* shard = sim.shard(0);
  std::vector<SimTime> ran;
  shard->SetCurrentRegion(0);
  shard->ScheduleAt(Milliseconds(5), [&] { ran.push_back(shard->now()); });
  shard->ScheduleAt(Milliseconds(9), [&] { ran.push_back(shard->now()); });

  EXPECT_EQ(sim.RunUntil(Milliseconds(5)), 1u);
  EXPECT_EQ(ran, (std::vector<SimTime>{Milliseconds(5)}));
  EXPECT_EQ(shard->now(), Milliseconds(5));
  EXPECT_EQ(sim.RunUntil(Milliseconds(5)), 0u);
  EXPECT_EQ(shard->now(), Milliseconds(5));

  EXPECT_EQ(sim.RunUntil(Milliseconds(9)), 1u);
  EXPECT_EQ(ran, (std::vector<SimTime>{Milliseconds(5), Milliseconds(9)}));
  EXPECT_EQ(shard->now(), Milliseconds(9));
  EXPECT_EQ(sim.RunUntil(Milliseconds(9)), 0u);
  EXPECT_EQ(shard->now(), Milliseconds(9));
  EXPECT_EQ(sim.windows(), 2u);
}

TEST(EventQueueTest, KeyedPopOrderIsTimeThenKey) {
  EventQueue queue;
  std::vector<int> order;
  // Same timestamp, keys from different origins, inserted out of order: pop
  // order must follow (time, key), not insertion.
  queue.Push(10, MakeOrderKey(2, 1), 2, [&] { order.push_back(21); });
  queue.Push(10, MakeOrderKey(0, 2), 0, [&] { order.push_back(2); });
  queue.Push(5, MakeOrderKey(3, 7), 3, [&] { order.push_back(37); });
  queue.Push(10, MakeOrderKey(0, 1), 0, [&] { order.push_back(1); });
  queue.Push(10, MakeOrderKey(1, 5), 1, [&] { order.push_back(15); });
  while (!queue.empty()) {
    EventQueue::Event event = queue.Pop();
    event.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{37, 1, 2, 15, 21}));
}

TEST(SimulatorTest, KeyedSchedulingTracksCurrentRegion) {
  Simulator sim;
  std::vector<int> order;
  // Region 1 schedules first but region 0's key sorts first at equal time.
  sim.SetCurrentRegion(1);
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.SetCurrentRegion(0);
  sim.ScheduleAt(100, [&] { order.push_back(0); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SimulatorTest, StepRestoresRegionScopeFromEvent) {
  Simulator sim;
  EventRegion seen = kInvalidEventRegion;
  sim.SetCurrentRegion(2);
  sim.ScheduleAt(1, [&] {
    seen = sim.current_region();
    // Self-rescheduling inside the handler keys to the handler's region.
    sim.ScheduleAfter(1, [&] { seen = sim.current_region(); });
  });
  sim.SetCurrentRegion(0);  // Clobbered before the event runs.
  sim.Run();
  EXPECT_EQ(seen, 2);
}

TEST(ShardedSimulatorDeathTest, SchedulingOutsideRegionScopeFails) {
  // Shards start unscoped: setup code that forgets SetCurrentRegion would
  // otherwise key its events to an arbitrary region.
  ShardedSimulator sim(Topology::FourRegions(), /*num_shards=*/2,
                       /*num_threads=*/1);
  EXPECT_DEATH(sim.shard(0)->ScheduleAt(1, [] {}),
               "scheduling outside any region scope");
}

// Relays a token around all four regions via `net`, whose simulator `sim`
// (one Simulator or a ShardedSimulator) runs it; the arrival log must not
// depend on how regions are grouped into simulators or on threading.
template <typename Sim>
std::vector<std::string> RunRelay(Sim& sim, Network& net) {
  const int kRegions = 4;
  // Per-region logs: only region r's shard appends to logs[r].
  std::vector<std::vector<std::string>> logs(kRegions);

  struct Relay {
    Network* net;
    std::vector<std::vector<std::string>>* logs;
    void Hop(RegionId at, int hops_left) {
      (*logs)[static_cast<size_t>(at)].push_back(
          std::to_string(net->SimForRegion(at)->now()) + ":" +
          std::to_string(hops_left));
      if (hops_left == 0) {
        return;
      }
      RegionId to = (at + 1) % 4;
      net->Send(at, to, [this, to, hops_left] { Hop(to, hops_left - 1); });
    }
  };
  Relay relay{&net, &logs};

  // Two counter-rotating relays starting from different regions.
  Simulator* sim0 = net.SimForRegion(0);
  sim0->SetCurrentRegion(0);
  sim0->ScheduleAt(0, [&relay] { relay.Hop(0, 40); });
  Simulator* sim2 = net.SimForRegion(2);
  sim2->SetCurrentRegion(2);
  sim2->ScheduleAt(0, [&relay] { relay.Hop(2, 40); });

  sim.RunUntil(Seconds(10));
  std::vector<std::string> flat;
  for (const auto& log : logs) {
    flat.insert(flat.end(), log.begin(), log.end());
  }
  return flat;
}

std::vector<std::string> RunShardedRelay(int num_shards, int num_threads) {
  ShardedSimulator sim(Topology::FourRegions(), num_shards, num_threads);
  Network net(&sim);
  return RunRelay(sim, net);
}

TEST(ShardedSimulatorTest, RelayIdenticalAcrossShardsAndThreads) {
  Simulator plain;
  Network plain_net(&plain, Topology::FourRegions());
  const std::vector<std::string> reference = RunRelay(plain, plain_net);
  ASSERT_FALSE(reference.empty());
  // {4, 2} and {4, 3} give the coordinator two shards of its own, with
  // uneven ownership across threads in {4, 3}.
  for (auto [shards, threads] : {std::pair<int, int>{1, 1},
                                 {2, 1},
                                 {2, 2},
                                 {4, 1},
                                 {4, 2},
                                 {4, 3},
                                 {4, 4}}) {
    EXPECT_EQ(RunShardedRelay(shards, threads), reference)
        << "shards=" << shards << " threads=" << threads;
  }
}

TEST(ShardedSimulatorTest, TimingCoversAllShards) {
  std::vector<std::string> ignored = RunShardedRelay(2, 2);
  ShardedSimulator sim(Topology::FourRegions(), 2, 2);
  Network net(&sim);
  Simulator* sim0 = net.SimForRegion(0);
  sim0->SetCurrentRegion(0);
  sim0->ScheduleAt(0, [] {});
  sim.RunUntil(Seconds(1));
  auto timing = sim.Timing();
  ASSERT_EQ(timing.size(), 2u);
  EXPECT_GE(sim.windows(), 1u);
  uint64_t executed = 0;
  for (const auto& shard : timing) {
    executed += shard.executed_events;
  }
  EXPECT_EQ(executed, sim.executed_events());
}

FleetSpec SmallFleet() {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region = {2, 2, 2, 2};
  spec.clients_per_region = 3;
  spec.warmup = Seconds(2);
  spec.measure = Seconds(6);
  spec.seed = 11;
  spec.collect_trace = true;
  return spec;
}

// Mixed Tree on the fleet harness: a heavy 4-branch ToT client and 2-branch
// ToT clients beside WildChat conversation groups, all as FleetSpec::groups
// (no base population).
FleetSpec MixedTreeFleet() {
  FleetSpec spec = SmallFleet();
  spec.clients_per_region = 0;
  ClientGroup heavy;
  heavy.kind = ClientGroup::Kind::kToT;
  heavy.region = 0;
  heavy.count = 1;
  heavy.tot.branching = 4;
  heavy.client = ToTClientConfig();
  spec.groups.push_back(heavy);
  for (RegionId region = 0; region < 4; ++region) {
    ClientGroup tot;
    tot.kind = ClientGroup::Kind::kToT;
    tot.region = region;
    tot.count = 2;
    tot.client = ToTClientConfig();
    spec.groups.push_back(tot);
    ClientGroup chat;
    chat.region = region;
    chat.count = 2;
    chat.client = ChatClientConfig();
    spec.groups.push_back(chat);
  }
  return spec;
}

// The tentpole determinism contract: the full fleet — LBs, replicas,
// clients, probes, forwarding — produces bit-identical request traces and
// summary metrics for every shard/thread combination, against the one-shard
// reference.
void ExpectBitIdenticalAcrossShards(const FleetSpec& base) {
  FleetSpec spec = base;
  spec.num_shards = 1;  // One-shard reference.
  FleetResult reference = RunFleetExperiment(spec);
  ASSERT_GT(reference.metrics.completed, 0u);
  ASSERT_FALSE(reference.trace.empty());

  struct Config {
    int shards;
    int threads;
  };
  for (Config config : std::vector<Config>{{2, 1}, {2, 8}, {4, 1}, {4, 8}}) {
    FleetSpec run_spec = base;
    run_spec.num_shards = config.shards;
    run_spec.num_threads = config.threads;
    FleetResult result = RunFleetExperiment(run_spec);
    SCOPED_TRACE("shards=" + std::to_string(config.shards) +
                 " threads=" + std::to_string(config.threads));
    // Trace equality covers every per-request observable bit for bit.
    EXPECT_EQ(result.trace, reference.trace);
    EXPECT_EQ(result.metrics.completed, reference.metrics.completed);
    EXPECT_EQ(result.metrics.throughput_tok_s,
              reference.metrics.throughput_tok_s);
    EXPECT_EQ(result.metrics.ttft_p50_s, reference.metrics.ttft_p50_s);
    EXPECT_EQ(result.metrics.ttft_p90_s, reference.metrics.ttft_p90_s);
    EXPECT_EQ(result.metrics.e2e_p50_s, reference.metrics.e2e_p50_s);
    EXPECT_EQ(result.metrics.e2e_p90_s, reference.metrics.e2e_p90_s);
    EXPECT_EQ(result.metrics.cache_hit_rate,
              reference.metrics.cache_hit_rate);
    EXPECT_EQ(result.metrics.forwarded_fraction,
              reference.metrics.forwarded_fraction);
    EXPECT_EQ(result.metrics.outstanding_imbalance,
              reference.metrics.outstanding_imbalance);
    EXPECT_EQ(result.messages_sent, reference.messages_sent);
    EXPECT_EQ(result.cross_region_messages,
              reference.cross_region_messages);
    EXPECT_EQ(result.executed_events, reference.executed_events);
    EXPECT_EQ(result.issued, reference.issued);
    EXPECT_EQ(result.completed_total, reference.completed_total);
  }
}

TEST(FleetDeterminismTest, BitIdenticalAcrossShardsThreadsAndReference) {
  ExpectBitIdenticalAcrossShards(SmallFleet());
}

TEST(FleetDeterminismTest, MixedTreeBitIdenticalAcrossShardsAndThreads) {
  FleetSpec spec = MixedTreeFleet();
  ExpectBitIdenticalAcrossShards(spec);
  // The ToT groups actually ran: dropping them loses completions.
  spec.num_shards = 4;
  spec.num_threads = 8;
  FleetResult result = RunFleetExperiment(spec);
  FleetSpec chat_only = spec;
  chat_only.groups.clear();
  for (const ClientGroup& group : spec.groups) {
    if (group.kind == ClientGroup::Kind::kConversation) {
      chat_only.groups.push_back(group);
    }
  }
  EXPECT_GT(result.completed_total,
            RunFleetExperiment(chat_only).completed_total);
}

// Repeated identical runs must agree exactly (no hidden global state, e.g.
// the request-id atomic, leaks into fleet results).
TEST(FleetDeterminismTest, RepeatedRunsIdentical) {
  FleetSpec spec = SmallFleet();
  spec.num_shards = 4;
  spec.num_threads = 4;
  FleetResult a = RunFleetExperiment(spec);
  FleetResult b = RunFleetExperiment(spec);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

}  // namespace
}  // namespace skywalker
