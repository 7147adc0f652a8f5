// Baseline load-balancer frontend (paper §5.1): a thin Frontend shell over
// the shared dispatch engine in src/routing/. The engine owns the FCFS
// queue, per-replica probe state, the heartbeat probe loop, and the three
// pushing disciplines of §3.3 (kBlind / kSelectiveOutstanding /
// kSelectivePending); this class only adapts requests into the engine and
// injects the placement policy as a ReplicaSelector (src/lb/policies.h).

#ifndef SKYWALKER_LB_LOAD_BALANCER_H_
#define SKYWALKER_LB_LOAD_BALANCER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/sim_time.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/routing/dispatch_engine.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

struct LbConfig {
  // Engine knobs (push mode, probe interval, slack, gates, outlier
  // detection), in the shared DispatchConfig vocabulary. Baselines default
  // to blind pushing; paper §4.1 probes every 100 ms.
  DispatchConfig engine;

  // --- SGL cache-aware policy knobs (policy-owned, not engine state) ---

  // Capacity of the policy-owned routing trie (SGL policy).
  int64_t routing_trie_capacity = 4'000'000;

  // SGL cache-aware threshold: route by prefix only when the best match
  // covers at least this fraction of the prompt.
  double sgl_match_threshold = 0.5;

  // SGL fallback bookkeeping: once a worker's approximate tree-size estimate
  // exceeds this (≈ its KV budget), all estimates decay, mirroring worker
  // eviction.
  int64_t sgl_tree_decay_tokens = 49152;
};

class LoadBalancer : public Frontend {
 public:
  using Stats = DispatchEngine::Stats;

  // `selector` provides the placement policy; see src/lb/policies.h for the
  // four baselines. The selector is notified of replica attach/detach.
  LoadBalancer(Simulator* sim, Network* net, LbId id, RegionId region,
               const LbConfig& config,
               std::unique_ptr<ReplicaSelector> selector);
  ~LoadBalancer() override;

  LoadBalancer(const LoadBalancer&) = delete;
  LoadBalancer& operator=(const LoadBalancer&) = delete;

  // Registers a replica this LB manages. May be called before or after
  // Start().
  void AttachReplica(Replica* replica);

  // Starts the probe loop (no-op for kBlind).
  void Start();
  void Stop();

  // Frontend:
  RegionId region() const override { return region_; }
  void HandleRequest(Request req, RequestCallbacks callbacks) override;

  LbId id() const { return id_; }
  const LbConfig& config() const { return config_; }
  const Stats& stats() const { return engine_.stats(); }
  size_t queue_length() const { return engine_.queue_size(); }

 protected:
  DispatchEngine* engine() { return &engine_; }
  const DispatchEngine* engine() const { return &engine_; }
  ReplicaSelector* selector() { return selector_.get(); }

 private:
  LbId id_;
  RegionId region_;
  LbConfig config_;
  std::unique_ptr<ReplicaSelector> selector_;
  DispatchEngine engine_;
};

}  // namespace skywalker

#endif  // SKYWALKER_LB_LOAD_BALANCER_H_
