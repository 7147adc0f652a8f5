// Tests for the passive outlier-ejection vocabulary (src/routing/health.h):
// the max-ejection-fraction clamp, the consecutive-failure path, the
// latency-strike path, half-open recovery, and the ejection backoff — all
// pure state-machine tests, no simulator.

#include <gtest/gtest.h>

#include "src/routing/health.h"

namespace skywalker {
namespace {

OutlierConfig TestConfig() {
  OutlierConfig config;
  config.enabled = true;
  config.base_ejection_time = Seconds(5);
  return config;
}

TEST(EjectionAllowedTest, FirstEjectionAlwaysAllowed) {
  // Even when the fraction rounds to less than one host (1 * 0.5), a small
  // fleet must still be able to shed its one straggler.
  EXPECT_TRUE(EjectionAllowed(0, 1));
  EXPECT_TRUE(EjectionAllowed(0, 2));
}

TEST(EjectionAllowedTest, FractionClampsFurtherEjections) {
  // 4 hosts at the 0.5 max-ejection fraction: two may be out at once,
  // never three.
  EXPECT_TRUE(EjectionAllowed(0, 4));
  EXPECT_TRUE(EjectionAllowed(1, 4));
  EXPECT_FALSE(EjectionAllowed(2, 4));
}

TEST(ReplicaHealthTest, StartsHealthyAndServing) {
  ReplicaHealth health;
  EXPECT_EQ(health.status(), HealthStatus::kHealthy);
  EXPECT_TRUE(CanServe(health.status()));
}

TEST(ReplicaHealthTest, FirstFailureDegradesThresholdEjects) {
  ReplicaHealth health;
  EXPECT_FALSE(health.RecordFailure());  // 1st: degrade.
  EXPECT_EQ(health.status(), HealthStatus::kDegraded);
  EXPECT_TRUE(CanServe(health.status()));  // Degraded still serves.
  EXPECT_FALSE(health.RecordFailure());  // 2nd: still below.
  EXPECT_TRUE(health.RecordFailure());   // 3rd: wants ejection.
}

TEST(ReplicaHealthTest, ProbeSuccessClearsConsecutiveFailures) {
  ReplicaHealth health;
  health.RecordFailure();
  health.RecordFailure();
  health.RecordProbeSuccess();
  // The streak restarts: two more failures stay below the threshold.
  EXPECT_FALSE(health.RecordFailure());
  EXPECT_FALSE(health.RecordFailure());
  EXPECT_TRUE(health.RecordFailure());
}

TEST(ReplicaHealthTest, EjectionTimerAndLinearBackoff) {
  const OutlierConfig config = TestConfig();
  ReplicaHealth health;
  health.Eject(config, /*now=*/Seconds(100));
  EXPECT_EQ(health.status(), HealthStatus::kEjected);
  EXPECT_FALSE(CanServe(health.status()));
  EXPECT_EQ(health.ejected_until(), Seconds(105));
  EXPECT_FALSE(health.EjectionExpired(Seconds(104)));
  EXPECT_TRUE(health.EjectionExpired(Seconds(105)));

  // Second ejection doubles the duration; the cap bounds repeat offenders.
  health.BeginRecovery();
  health.Eject(config, Seconds(200));
  EXPECT_EQ(health.ejected_until(), Seconds(210));
  for (int i = 0; i < kMaxEjectionBackoff + 2; ++i) {
    health.BeginRecovery();
    health.Eject(config, Seconds(300));
  }
  EXPECT_EQ(health.ejected_until(),
            Seconds(300) + config.base_ejection_time * kMaxEjectionBackoff);
}

TEST(ReplicaHealthTest, HalfOpenSuccessRecoversFailureReEjects) {
  const OutlierConfig config = TestConfig();
  ReplicaHealth health;
  health.Eject(config, 0);
  health.BeginRecovery();
  EXPECT_EQ(health.status(), HealthStatus::kRecovering);
  EXPECT_TRUE(CanServe(health.status()));  // Half-open takes one request.

  // Any failure while half-open is immediately disqualifying.
  EXPECT_TRUE(health.RecordFailure());

  health.Eject(config, 0);
  health.BeginRecovery();
  EXPECT_TRUE(health.RecordSuccess());
  EXPECT_EQ(health.status(), HealthStatus::kHealthy);
}

TEST(ReplicaHealthTest, BeginRecoveryOnlyFromEjected) {
  ReplicaHealth health;
  health.BeginRecovery();
  EXPECT_EQ(health.status(), HealthStatus::kHealthy);
}

TEST(ReplicaHealthTest, LatencyStrikesDegradeThenEject) {
  ReplicaHealth health;
  EXPECT_EQ(health.EvaluateLatency(/*outlier=*/true, true),
            LatencyVerdict::kDegraded);
  EXPECT_EQ(health.status(), HealthStatus::kDegraded);
  EXPECT_EQ(health.EvaluateLatency(true, true), LatencyVerdict::kNone);
  EXPECT_EQ(health.EvaluateLatency(true, true),
            LatencyVerdict::kWantsEject);
}

TEST(ReplicaHealthTest, CleanRoundHealsLatencyDegradedOnly) {
  ReplicaHealth latency_degraded;
  latency_degraded.EvaluateLatency(true, true);
  ASSERT_EQ(latency_degraded.status(), HealthStatus::kDegraded);
  EXPECT_EQ(latency_degraded.EvaluateLatency(false, true),
            LatencyVerdict::kNone);
  EXPECT_EQ(latency_degraded.status(), HealthStatus::kHealthy);

  // Degraded-by-failure heals through RecordSuccess, not a clean latency
  // round (the failure streak is still open).
  ReplicaHealth failure_degraded;
  failure_degraded.RecordFailure();
  ASSERT_EQ(failure_degraded.status(), HealthStatus::kDegraded);
  failure_degraded.EvaluateLatency(false, true);
  EXPECT_EQ(failure_degraded.status(), HealthStatus::kDegraded);
  failure_degraded.RecordSuccess();
  failure_degraded.EvaluateLatency(false, true);
  EXPECT_EQ(failure_degraded.status(), HealthStatus::kHealthy);
}

TEST(ReplicaHealthTest, HalfOpenLatencyNeedsFreshSample) {
  const OutlierConfig config = TestConfig();
  ReplicaHealth health;
  health.Eject(config, 0);
  health.BeginRecovery();
  // Probe reachability alone (stale EWMA) must not close the half-open
  // state in either direction.
  EXPECT_EQ(health.EvaluateLatency(true, /*fresh_sample=*/false),
            LatencyVerdict::kNone);
  EXPECT_EQ(health.status(), HealthStatus::kRecovering);
  // A fresh sample that is still an outlier re-ejects ...
  EXPECT_EQ(health.EvaluateLatency(true, true),
            LatencyVerdict::kWantsEject);
  // ... and a clean fresh sample recovers.
  health.Eject(config, 0);
  health.BeginRecovery();
  EXPECT_EQ(health.EvaluateLatency(false, true),
            LatencyVerdict::kRecovered);
  EXPECT_EQ(health.status(), HealthStatus::kHealthy);
}

TEST(ReplicaHealthTest, ResetRestoresPristineState) {
  const OutlierConfig config = TestConfig();
  ReplicaHealth health;
  health.Eject(config, Seconds(50));
  health.BeginRecovery();
  health.RecordSuccess();
  health.RecordFailure();
  health.RecordFailure();
  health.Reset();
  EXPECT_EQ(health.status(), HealthStatus::kHealthy);
  EXPECT_EQ(health.ejection_count(), 0);
  EXPECT_EQ(health.ejected_until(), 0);
  // The failure streak is gone: a fresh streak needs the full threshold.
  EXPECT_FALSE(health.RecordFailure());
  EXPECT_FALSE(health.RecordFailure());
  // Backoff history is gone: the next ejection uses the base duration.
  health.Eject(config, 0);
  EXPECT_EQ(health.ejected_until(), config.base_ejection_time);
}

}  // namespace
}  // namespace skywalker
