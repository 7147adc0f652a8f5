#include "src/routing/health.h"

#include <algorithm>

namespace skywalker {

namespace {

// Consecutive failures (request timeouts + probe misses) that eject.
constexpr int kConsecutiveFailuresToEject = 3;

// Latency-outlier rounds in a row that eject; the first strike degrades.
constexpr int kLatencyStrikesToEject = 3;

// At most this fraction of the fleet may be ejected at once.
constexpr double kMaxEjectionFraction = 0.5;

}  // namespace

bool EjectionAllowed(int currently_ejected, size_t fleet_size) {
  if (currently_ejected == 0) return true;
  return static_cast<double>(currently_ejected + 1) <=
         kMaxEjectionFraction * static_cast<double>(fleet_size);
}

bool ReplicaHealth::RecordSuccess() {
  consecutive_failures_ = 0;
  if (status_ == HealthStatus::kRecovering) {
    status_ = HealthStatus::kHealthy;
    latency_strikes_ = 0;
    ++recovery_successes_;
    return true;
  }
  return false;
}

void ReplicaHealth::RecordProbeSuccess() { consecutive_failures_ = 0; }

bool ReplicaHealth::RecordFailure() {
  // Any failure while half-open is disqualifying: the target had one chance
  // and blew it.
  if (status_ == HealthStatus::kRecovering) return true;
  if (status_ == HealthStatus::kEjected) return false;
  ++consecutive_failures_;
  if (consecutive_failures_ >= kConsecutiveFailuresToEject) return true;
  // Below the threshold: deprioritize so the failover ladder already routes
  // around a target that has started misbehaving.
  if (status_ == HealthStatus::kHealthy) status_ = HealthStatus::kDegraded;
  return false;
}

LatencyVerdict ReplicaHealth::EvaluateLatency(bool outlier,
                                              bool fresh_sample) {
  if (status_ == HealthStatus::kEjected) return LatencyVerdict::kNone;
  if (status_ == HealthStatus::kRecovering) {
    // Probe reachability alone must not close the half-open state: a
    // latency-ejected straggler answers probes instantly. Require a sample
    // the EWMA has seen since the ejection.
    if (!fresh_sample) return LatencyVerdict::kNone;
    if (outlier) return LatencyVerdict::kWantsEject;
    status_ = HealthStatus::kHealthy;
    latency_strikes_ = 0;
    ++recovery_successes_;
    return LatencyVerdict::kRecovered;
  }
  if (!outlier) {
    latency_strikes_ = 0;
    // Degraded-by-latency targets heal on a clean round; degraded-by-failure
    // targets heal through RecordSuccess, which is indistinguishable here —
    // consecutive_failures_ > 0 keeps them degraded.
    if (status_ == HealthStatus::kDegraded && consecutive_failures_ == 0) {
      status_ = HealthStatus::kHealthy;
    }
    return LatencyVerdict::kNone;
  }
  ++latency_strikes_;
  if (latency_strikes_ >= kLatencyStrikesToEject) {
    return LatencyVerdict::kWantsEject;
  }
  if (status_ == HealthStatus::kHealthy) {
    status_ = HealthStatus::kDegraded;
    return LatencyVerdict::kDegraded;
  }
  return LatencyVerdict::kNone;
}

void ReplicaHealth::Eject(const OutlierConfig& config, SimTime now) {
  ++ejection_count_;
  int multiplier = std::min(ejection_count_, kMaxEjectionBackoff);
  status_ = HealthStatus::kEjected;
  ejected_until_ = now + config.base_ejection_time * multiplier;
  consecutive_failures_ = 0;
  latency_strikes_ = 0;
}

void ReplicaHealth::BeginRecovery() {
  if (status_ != HealthStatus::kEjected) return;
  status_ = HealthStatus::kRecovering;
}

void ReplicaHealth::Reset() {
  status_ = HealthStatus::kHealthy;
  consecutive_failures_ = 0;
  latency_strikes_ = 0;
  ejection_count_ = 0;
  recovery_successes_ = 0;
  ejected_until_ = 0;
}

}  // namespace skywalker
