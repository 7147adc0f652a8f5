// Unit tests for the SkyWalker regional LB: two-layer routing (Listing 1),
// selective pushing, cross-region forwarding and terminal placement,
// snapshot-trie affinity, GDPR constraints, and failure handling.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/skywalker_lb.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

// A two-region world with one SkyWalker LB per region.
struct TwoRegionBench {
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<SkyWalkerLb> lb_a;
  std::unique_ptr<SkyWalkerLb> lb_b;

  explicit TwoRegionBench(SkyWalkerConfig config = {},
                          ReplicaConfig rconfig = {}, int replicas_per = 1) {
    Topology topology;
    RegionId a = topology.AddRegion("a", Milliseconds(1));
    RegionId b = topology.AddRegion("b", Milliseconds(1));
    topology.SetLatency(a, b, Milliseconds(50));
    net = std::make_unique<Network>(&sim, topology);
    lb_a = std::make_unique<SkyWalkerLb>(&sim, net.get(), 0, a, config);
    lb_b = std::make_unique<SkyWalkerLb>(&sim, net.get(), 1, b, config);
    lb_a->AddPeer(lb_b.get());
    lb_b->AddPeer(lb_a.get());
    ReplicaId next = 0;
    for (int i = 0; i < replicas_per; ++i) {
      replicas.push_back(std::make_unique<Replica>(&sim, next++, a, rconfig));
      lb_a->AttachReplica(replicas.back().get());
      replicas.push_back(std::make_unique<Replica>(&sim, next++, b, rconfig));
      lb_b->AttachReplica(replicas.back().get());
    }
    lb_a->Start();
    lb_b->Start();
  }

  Replica* replica_in_a(int i = 0) { return replicas[2 * i].get(); }
  Replica* replica_in_b(int i = 0) { return replicas[2 * i + 1].get(); }
};

Request MakeRequest(RequestId id, int64_t prompt_len, int64_t output_len,
                    const std::string& key = "k", Token base = 0,
                    RegionId client_region = 0) {
  Request req;
  req.id = id;
  req.client_region = client_region;
  req.routing_key = key;
  for (int64_t i = 0; i < prompt_len; ++i) {
    req.prompt.push_back(base + static_cast<Token>(i));
  }
  for (int64_t i = 0; i < output_len; ++i) {
    req.output.push_back(900000 + base + static_cast<Token>(i));
  }
  return req;
}

TEST(SkyWalkerLbTest, ServesLocallyWhenAvailable) {
  TwoRegionBench bench;
  int completed = 0;
  RequestOutcome last;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) {
    ++completed;
    last = o;
  };
  bench.lb_a->HandleRequest(MakeRequest(1, 64, 8), callbacks);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 1);
  EXPECT_FALSE(last.forwarded);
  EXPECT_EQ(last.hops, 1);
  EXPECT_EQ(last.served_region, 0);
  EXPECT_EQ(bench.lb_a->engine().stats().dispatched, 1);
  EXPECT_EQ(bench.lb_a->stats().forwarded_out, 0);
}

TEST(SkyWalkerLbTest, ForwardsWhenAllLocalReplicasFull) {
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1024;
  rconfig.output_reserve_tokens = 256;
  TwoRegionBench bench(config, rconfig);

  int completed = 0;
  int forwarded = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) {
    ++completed;
    if (o.forwarded) {
      ++forwarded;
    }
  };
  // Let probes establish availability first.
  bench.sim.RunFor(Milliseconds(300));
  // Flood region A beyond its single small replica.
  for (int i = 0; i < 12; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 300, 150, "k",
                    static_cast<Token>(i) * 10000),
        callbacks);
  }
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 12);
  EXPECT_GT(forwarded, 0) << "overflow should offload to region B";
  EXPECT_GT(bench.replica_in_b()->stats().enqueued, 0);
  EXPECT_EQ(bench.lb_a->stats().forwarded_out, forwarded);
  EXPECT_EQ(bench.lb_b->stats().received_forwarded, forwarded);
}

TEST(SkyWalkerLbTest, ForwardedRequestsAreTerminal) {
  // Region B is overloaded while region A sits idle and available. B
  // offloads its own clients' overflow to A, but requests another region
  // already forwarded into B must wait there (no forwarding loops).
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 900;
  rconfig.output_reserve_tokens = 256;
  // Floods B with 20 requests, as client requests or as requests forwarded
  // in from A, and returns how many B forwarded out.
  auto flood_b = [&](bool forwarded_in) {
    TwoRegionBench bench(config, rconfig);
    bench.sim.RunFor(Milliseconds(300));
    int completed = 0;
    RequestCallbacks callbacks;
    callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
    for (int i = 0; i < 20; ++i) {
      Request req = MakeRequest(static_cast<RequestId>(i), 300, 150, "k",
                                static_cast<Token>(i) * 10000,
                                /*client_region=*/1);
      if (forwarded_in) {
        bench.lb_b->HandleForwarded(std::move(req), callbacks,
                                    /*origin_lb_region=*/0);
      } else {
        bench.lb_b->HandleRequest(std::move(req), callbacks);
      }
    }
    bench.sim.RunFor(Seconds(600));
    EXPECT_EQ(completed, 20);
    return bench.lb_b->stats().forwarded_out;
  };
  EXPECT_GT(flood_b(/*forwarded_in=*/false), 0)
      << "B's own overflow should offload to idle A";
  EXPECT_EQ(flood_b(/*forwarded_in=*/true), 0)
      << "forwarded-in requests must not be re-forwarded";
}

TEST(SkyWalkerLbTest, ForwardedResponsePathAddsHops) {
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1024;
  rconfig.output_reserve_tokens = 256;
  TwoRegionBench bench(config, rconfig);
  bench.sim.RunFor(Milliseconds(300));

  std::vector<RequestOutcome> outcomes;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) {
    outcomes.push_back(o);
  };
  for (int i = 0; i < 12; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 300, 150, "k",
                    static_cast<Token>(i) * 10000, /*client_region=*/0),
        callbacks);
  }
  bench.sim.RunFor(Seconds(600));
  for (const auto& o : outcomes) {
    if (o.forwarded) {
      EXPECT_EQ(o.hops, 2);
      EXPECT_EQ(o.served_region, 1);
    } else {
      EXPECT_EQ(o.hops, 1);
    }
  }
}

TEST(SkyWalkerLbTest, PrefixTrieKeepsConversationsSticky) {
  SkyWalkerConfig config;
  config.routing.policy = RoutingPolicyKind::kPrefixTree;
  TwoRegionBench bench(config, ReplicaConfig{}, /*replicas_per=*/2);
  bench.sim.RunFor(Milliseconds(300));

  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };

  // A growing conversation: each turn extends the previous prompt.
  TokenSeq context;
  for (Token t = 0; t < 200; ++t) {
    context.push_back(t);
  }
  for (int turn = 0; turn < 5; ++turn) {
    Request req;
    req.id = static_cast<RequestId>(turn + 1);
    req.client_region = 0;
    req.routing_key = "conv";
    req.prompt = context;
    for (int k = 0; k < 40; ++k) {
      req.output.push_back(10000 + turn * 100 + k);
    }
    context.insert(context.end(), req.output.begin(), req.output.end());
    bench.lb_a->HandleRequest(req, callbacks);
    bench.sim.RunFor(Seconds(120));  // Complete the turn first.
  }
  EXPECT_EQ(completed, 5);
  // All turns should land on one region-A replica (trie affinity).
  int replicas_used = 0;
  for (int i = 0; i < 2; ++i) {
    if (bench.replica_in_a(i)->stats().enqueued > 0) {
      ++replicas_used;
    }
  }
  EXPECT_EQ(replicas_used, 1);
  Replica* used = bench.replica_in_a(0)->stats().enqueued > 0
                      ? bench.replica_in_a(0)
                      : bench.replica_in_a(1);
  EXPECT_GT(used->cache().HitRate(), 0.5);
}

TEST(SkyWalkerLbTest, ConsistentHashVariantStickyByKey) {
  SkyWalkerConfig config;
  config.routing.policy = RoutingPolicyKind::kConsistentHash;
  TwoRegionBench bench(config, ReplicaConfig{}, /*replicas_per=*/3);
  bench.sim.RunFor(Milliseconds(300));
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  for (int i = 0; i < 6; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 64, 8, "same-user",
                    static_cast<Token>(i) * 5000),
        callbacks);
    bench.sim.RunFor(Seconds(600));
  }
  EXPECT_EQ(completed, 6);
  int used = 0;
  for (int i = 0; i < 3; ++i) {
    if (bench.replica_in_a(i)->stats().enqueued > 0) {
      ++used;
    }
  }
  EXPECT_EQ(used, 1);
}

TEST(SkyWalkerLbTest, GdprConstraintBlocksForwarding) {
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  config.forward_allowed = [](RegionId /*from*/, RegionId /*to*/) {
    return false;  // Forwarding prohibited everywhere.
  };
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1024;
  rconfig.output_reserve_tokens = 256;
  TwoRegionBench bench(config, rconfig);
  bench.sim.RunFor(Milliseconds(300));

  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome& o) {
    ++completed;
    EXPECT_FALSE(o.forwarded);
  };
  for (int i = 0; i < 12; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 300, 150, "k",
                    static_cast<Token>(i) * 10000),
        callbacks);
  }
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(bench.lb_a->stats().forwarded_out, 0);
  EXPECT_EQ(bench.replica_in_b()->stats().enqueued, 0);
}

TEST(SkyWalkerLbTest, DirectionalGdprAllowsOneWay) {
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  // Only region 1 -> region 0 allowed (e.g. non-EU may offload to EU).
  config.forward_allowed = [](RegionId from, RegionId to) {
    return from == 1 && to == 0;
  };
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1024;
  rconfig.output_reserve_tokens = 256;
  TwoRegionBench bench(config, rconfig);
  bench.sim.RunFor(Milliseconds(300));
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  for (int i = 0; i < 10; ++i) {
    bench.lb_b->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 300, 150, "k",
                    static_cast<Token>(i) * 10000, /*client=*/1),
        callbacks);
  }
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 10);
  EXPECT_GT(bench.lb_b->stats().forwarded_out, 0);
}

TEST(SkyWalkerLbTest, FailedLbRejectsAndFlushesQueue) {
  TwoRegionBench bench;
  int errors = 0;
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  callbacks.on_error = [&] { ++errors; };
  bench.lb_a->Fail();
  bench.lb_a->HandleRequest(MakeRequest(1, 64, 8), callbacks);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(completed, 0);
  EXPECT_FALSE(bench.lb_a->healthy());
  EXPECT_EQ(bench.lb_a->AvailableReplicaCount(), 0);
}

TEST(SkyWalkerLbTest, RecoverRestoresService) {
  TwoRegionBench bench;
  bench.lb_a->Fail();
  bench.lb_a->Recover();
  bench.sim.RunFor(Milliseconds(300));
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  bench.lb_a->HandleRequest(MakeRequest(1, 64, 8), callbacks);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 1);
}

TEST(SkyWalkerLbTest, PeersObserveFailureViaProbes) {
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1024;
  rconfig.output_reserve_tokens = 256;
  TwoRegionBench bench(config, rconfig);
  bench.sim.RunFor(Milliseconds(300));
  bench.lb_b->Fail();
  bench.sim.RunFor(Milliseconds(300));
  // Region A overloaded but peer failed: requests queue locally instead of
  // being forwarded into a dead LB.
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  for (int i = 0; i < 10; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 300, 150, "k",
                    static_cast<Token>(i) * 10000),
        callbacks);
  }
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(bench.lb_a->stats().forwarded_out, 0);
  EXPECT_EQ(bench.replica_in_b()->stats().enqueued, 0);
}

TEST(SkyWalkerLbTest, DetachReplicaStopsRouting) {
  SkyWalkerConfig config;
  config.routing.enable_forwarding = false;  // Keep all traffic in region A.
  TwoRegionBench bench(config, ReplicaConfig{}, 2);
  bench.sim.RunFor(Milliseconds(300));
  bench.lb_a->DetachReplica(bench.replica_in_a(0)->id());
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  for (int i = 0; i < 6; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 64, 8, "k",
                    static_cast<Token>(i) * 4000),
        callbacks);
  }
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(bench.replica_in_a(0)->stats().enqueued, 0);
  EXPECT_EQ(bench.replica_in_a(1)->stats().enqueued, 6);
}

TEST(SkyWalkerLbTest, QueueTauGatesPeerAvailability) {
  // Listing 1 line 12: a peer is available only while its queue, plus the
  // forwards sent to it since the last peer probe, is within τ. An idle
  // peer (empty queue) therefore takes exactly kQueueTau + 1 requests in
  // the first offload burst; the rest wait for a fresh peer probe.
  SkyWalkerConfig config;
  config.engine.push_slack = 1;
  ReplicaConfig rconfig;
  rconfig.kv_capacity_tokens = 1024;
  rconfig.output_reserve_tokens = 256;
  TwoRegionBench bench(config, rconfig);
  bench.sim.RunFor(Milliseconds(300));
  int completed = 0;
  RequestCallbacks callbacks;
  callbacks.on_complete = [&](const RequestOutcome&) { ++completed; };
  const int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    bench.lb_a->HandleRequest(
        MakeRequest(static_cast<RequestId>(i), 300, 150, "ka",
                    static_cast<Token>(i) * 30000),
        callbacks);
  }
  // The burst leaves A at one instant, so it lands in B at one instant.
  while (bench.lb_b->stats().received_forwarded == 0 &&
         bench.sim.now() < Seconds(10)) {
    bench.sim.RunFor(Milliseconds(1));
  }
  EXPECT_EQ(bench.lb_b->stats().received_forwarded,
            static_cast<int64_t>(kQueueTau) + 1);
  bench.sim.RunFor(Seconds(600));
  EXPECT_EQ(completed, kRequests);
}

}  // namespace
}  // namespace skywalker
