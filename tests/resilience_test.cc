// End-to-end resilience tests on the fleet harness (ISSUE 7): a region
// blackout loses no request forever once request timeouts + retries are on,
// and passive latency ejection fires against a gray straggler and does not
// cost goodput.

#include <gtest/gtest.h>

#include "src/harness/fleet.h"

namespace skywalker {
namespace {

// A small four-region fleet with a post-measure drain long enough for
// lost-forever accounting to converge (see FleetSpec::drain).
FleetSpec SmallFleet() {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region.assign(4, 4);
  spec.clients_per_region = 2;
  spec.client.think_time_mean = Milliseconds(500);
  spec.client.program_gap_mean = Seconds(1);
  spec.replica_config.max_running_requests = 8;
  spec.warmup = Seconds(1);
  spec.measure = Seconds(7);
  spec.drain = Seconds(25);
  spec.client.stop_issuing_after = spec.warmup + spec.measure;
  spec.seed = 1234;
  return spec;
}

OutlierConfig Resilience() {
  OutlierConfig outlier;
  outlier.enabled = true;
  outlier.request_timeout = Seconds(8);
  outlier.base_ejection_time = Seconds(5);
  return outlier;
}

void AddBlackout(FleetSpec& spec, SimTime fail_at, SimTime recover_at) {
  FleetFault lb_fail;
  lb_fail.kind = FleetFault::kLbFail;
  lb_fail.at = fail_at;
  lb_fail.region = 1;
  FleetFault replicas_fail;
  replicas_fail.kind = FleetFault::kReplicaFail;
  replicas_fail.at = fail_at;
  replicas_fail.region = 1;
  FleetFault replicas_recover;
  replicas_recover.kind = FleetFault::kReplicaRecover;
  replicas_recover.at = recover_at;
  replicas_recover.region = 1;
  FleetFault lb_recover;
  lb_recover.kind = FleetFault::kLbRecover;
  lb_recover.at = recover_at + Milliseconds(100);
  lb_recover.region = 1;
  spec.faults = {lb_fail, replicas_fail, replicas_recover, lb_recover};
}

TEST(ResilienceTest, BlackoutLosesNothingForeverWithTimeoutsOn) {
  FleetSpec spec = SmallFleet();
  spec.num_shards = 1;  // Controller failover is cross-shard: one shard.
  spec.controller.auto_recovery_delay = 0;
  spec.lb.engine.outlier = Resilience();
  AddBlackout(spec, Seconds(3), Seconds(6));

  FleetResult result = RunFleetExperiment(spec);
  EXPECT_GT(result.completed_total, 0);
  EXPECT_GT(result.issued, 0);
  // Every request swallowed by the blackout timed out, errored back to its
  // client, and was retried until it completed.
  EXPECT_EQ(result.lost_forever, 0);
  EXPECT_EQ(result.issued, result.completed_total + result.client_errors);
  // The dead region's replicas were ejected by probe misses / timeouts.
  EXPECT_GT(result.ejections, 0);
  EXPECT_GT(result.failovers, 0);
}

TEST(ResilienceTest, BlackoutWithoutResilienceStrandsInFlightRequests) {
  FleetSpec spec = SmallFleet();
  spec.num_shards = 1;
  spec.controller.auto_recovery_delay = 0;
  AddBlackout(spec, Seconds(3), Seconds(6));

  FleetResult result = RunFleetExperiment(spec);
  // No timeouts: whatever was in flight on the dead replicas hangs forever.
  EXPECT_GT(result.lost_forever, 0);
  EXPECT_EQ(result.client_errors, 0);
  EXPECT_EQ(result.ejections, 0);
}

TEST(ResilienceTest, GrayStragglerGetsLatencyEjected) {
  FleetSpec base = SmallFleet();
  base.num_shards = 4;
  base.num_threads = 4;
  // Enough clients that the straggler takes traffic and the three replicas
  // latency detection needs report decode samples; enough drain that its
  // 8x-held victims finish inside the run.
  base.clients_per_region = 4;
  base.drain = Seconds(90);
  FleetFault slow;
  slow.kind = FleetFault::kReplicaSlowdown;
  slow.at = Seconds(1);
  slow.region = 0;
  slow.replica_index = 0;
  slow.factor = 8.0;
  base.faults.push_back(slow);

  FleetSpec with_ejection = base;
  OutlierConfig outlier = Resilience();
  // Latency-only: the straggler answers probes and never "fails".
  outlier.request_timeout = 0;
  with_ejection.lb.engine.outlier = outlier;

  FleetResult off = RunFleetExperiment(base);
  FleetResult on = RunFleetExperiment(with_ejection);

  EXPECT_EQ(off.ejections, 0);
  // The per-step decode-latency EWMA makes the 8x straggler probe-visible
  // within a few steps; it must be ejected during the run.
  EXPECT_GT(on.ejections, 0);
  // Routing around the straggler never costs completions.
  EXPECT_GE(on.completed_total, off.completed_total);
  EXPECT_EQ(on.lost_forever, 0);
}

TEST(ResilienceTest, IdleRequestTimeoutsAreInert) {
  // A request timeout that never fires must leave a fault-free run exactly
  // as it was: same outcomes in the same order, same summary metrics.
  FleetSpec spec = SmallFleet();
  spec.collect_trace = true;
  OutlierConfig outlier = Resilience();
  outlier.request_timeout = 0;
  spec.lb.engine.outlier = outlier;
  FleetResult unarmed = RunFleetExperiment(spec);
  spec.lb.engine.outlier.request_timeout = Seconds(3600);
  FleetResult armed = RunFleetExperiment(spec);

  EXPECT_FALSE(unarmed.trace.empty());
  EXPECT_EQ(armed.trace, unarmed.trace);
  EXPECT_EQ(armed.request_timeouts, 0);
  EXPECT_EQ(unarmed.request_timeouts, 0);
  EXPECT_EQ(armed.issued, unarmed.issued);
  EXPECT_EQ(armed.completed_total, unarmed.completed_total);
  EXPECT_EQ(armed.messages_sent, unarmed.messages_sent);
  EXPECT_EQ(armed.metrics.completed, unarmed.metrics.completed);
  EXPECT_EQ(armed.metrics.throughput_tok_s, unarmed.metrics.throughput_tok_s);
  EXPECT_EQ(armed.metrics.ttft_p50_s, unarmed.metrics.ttft_p50_s);
  EXPECT_EQ(armed.metrics.ttft_p90_s, unarmed.metrics.ttft_p90_s);
  EXPECT_EQ(armed.metrics.e2e_p50_s, unarmed.metrics.e2e_p50_s);
  EXPECT_EQ(armed.metrics.e2e_p90_s, unarmed.metrics.e2e_p90_s);
  EXPECT_EQ(armed.metrics.cache_hit_rate, unarmed.metrics.cache_hit_rate);
}

}  // namespace
}  // namespace skywalker
