// SkyWalker regional load balancer (paper §3, Listing 1).
//
// One instance runs per region as the first point of contact for local
// clients. The replica half of §3.1 — FCFS queue, probe loop, selective
// pushing by pending requests (§3.3), and the passive health machinery of
// DESIGN.md §10 — is the shared dispatch engine in src/routing/; this class
// carries only the cross-region half and plugs into the engine as its
// ReplicaSelector: SelectReplica is the local placement policy, and the
// selector's hooks (queue head, unplaced head, probe ticks) are the
// forwarding half. It implements:
//
//  * Two-layer cross-region routing (§3.1): requests are placed on local
//    replicas whenever any is available; otherwise they are forwarded to an
//    *available* peer LB, which makes the final placement in its region.
//    Forwarded requests are terminal — they are never re-forwarded.
//
//  * Multi-region prefix-aware routing (§3.2) in two flavours:
//      - kConsistentHash (SkyWalker-CH): ring hash on the request's routing
//        key at both layers (replica ring + peer-LB ring), skipping
//        unavailable virtual nodes;
//      - kPrefixTree (SkyWalker): a local-replica prefix trie plus a
//        *regional snapshot* trie recording which prompts this region has
//        forwarded to which peers. When the best prefix hit ratio is below
//        `explore_threshold`, the balancer explores under-utilized replicas
//        instead (§5.1).
//
//  * Peer availability (Listing 1, line 12): a peer LB is available iff it
//    has >= 1 available replica and a queue shorter than the τ buffer.
//
//  * Custom routing constraints (§4.1/§7): an optional predicate restricts
//    which (from-region, to-region) forwarding pairs are allowed (e.g. GDPR
//    policies).
//
// Health (ISSUE 7): the LB is a HealthSource — the controller's failover
// detection, DNS resolution, and peer availability all read Status()/
// Serving() instead of private booleans. Every knob — engine and routing
// alike — is fixed when the balancer is built.

#ifndef SKYWALKER_CORE_SKYWALKER_LB_H_
#define SKYWALKER_CORE_SKYWALKER_LB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/cache/hash_ring.h"
#include "src/cache/routing_trie.h"
#include "src/common/sim_time.h"
#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/routing/dispatch_engine.h"
#include "src/routing/health.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

// SkyWalker proper pushes selectively by pending requests (§3.3); the
// engine's own default is the blind-pushing baseline (BP).
inline DispatchConfig SkyWalkerEngineDefaults() {
  DispatchConfig config;
  config.push_mode = PushMode::kSelectivePending;
  return config;
}

enum class RoutingPolicyKind {
  kConsistentHash,  // SkyWalker-CH
  kPrefixTree,      // SkyWalker
};

// τ: small queue buffer for newly arriving requests (Listing 1, line 12). A
// peer LB whose (probed + optimistically forwarded) queue exceeds τ is not
// available for forwarding.
inline constexpr size_t kQueueTau = 4;

// The cross-region routing knobs of SkyWalkerLb.
struct RoutingConfig {
  RoutingPolicyKind policy = RoutingPolicyKind::kPrefixTree;

  // Flap damping: forward only after local replicas have been continuously
  // unavailable for this long. Saturated replicas flap between full and
  // momentarily-free at probe granularity; offloading on every flap migrates
  // conversations back and forth, and each migration re-prefills the whole
  // context in the other region. Persistent overload (the case offloading
  // is for) easily exceeds this window.
  SimDuration forward_patience = Milliseconds(250);

  // kPrefixTree: when the regional snapshot shows at least this fraction of
  // the prompt is cached at an available peer, the request stays with that
  // peer even if local replicas are free. Without stickiness an offloaded
  // conversation migrates home on the next availability flap and re-prefills
  // its entire context in both regions, turn after turn.
  double remote_affinity_threshold = 0.5;

  // kPrefixTree: below this prompt hit ratio, prefer under-utilized
  // replicas over prefix affinity (§5.1 "explores other replicas").
  double explore_threshold = 0.5;

  // Enables cross-region forwarding. Disabling yields the Region-Local
  // deployment baseline of Fig. 10.
  bool enable_forwarding = true;

  // §7 extension ("more advanced policies"): prompts shorter than this skip
  // prefix matching and go to the least-loaded available replica — short
  // prompts have little prefill to save, so balancing load is worth more
  // than cache affinity. 0 disables the heuristic.
  int64_t short_prompt_threshold = 0;
};

struct SkyWalkerConfig {
  DispatchConfig engine = SkyWalkerEngineDefaults();
  RoutingConfig routing;

  // Optional constraint on forwarding pairs (GDPR, §7). Null allows all.
  std::function<bool(RegionId from, RegionId to)> forward_allowed;
};

class SkyWalkerLb : public Frontend,
                    public HealthSource,
                    private ReplicaSelector {
 public:
  // Cross-region counters; the local-placement half (dispatches, probes,
  // queue waits, resilience) is engine().stats().
  struct Stats {
    int64_t received_forwarded = 0;
    int64_t forwarded_out = 0;
    int64_t errors_reported = 0;
  };

  SkyWalkerLb(Simulator* sim, Network* net, LbId id, RegionId region,
              const SkyWalkerConfig& config);
  ~SkyWalkerLb() override;

  SkyWalkerLb(const SkyWalkerLb&) = delete;
  SkyWalkerLb& operator=(const SkyWalkerLb&) = delete;

  // --- topology management (controller API) ---
  void AttachReplica(Replica* replica);
  void DetachReplica(ReplicaId replica_id);
  void AddPeer(SkyWalkerLb* peer);
  std::vector<Replica*> ManagedReplicas() const;

  void Start();
  void Stop();

  // --- HealthSource: the one availability authority for this LB ---
  HealthStatus Status() const override { return status_; }

  // --- Frontend ---
  RegionId region() const override { return region_; }
  bool healthy() const override { return Serving(); }
  void HandleRequest(Request req, RequestCallbacks callbacks) override;

  // Peer entry point: a request another region decided to offload here.
  // `origin_lb_region` is the forwarding LB's region (response path hop).
  void HandleForwarded(Request req, RequestCallbacks callbacks,
                       RegionId origin_lb_region);

  // --- peer-visible probe state (PROBELB in Listing 1) ---
  int AvailableReplicaCount() const;
  size_t QueueSize() const { return engine_.queue_size(); }
  // True when this LB's own local capacity has been exhausted beyond the
  // patience window, i.e. it is (or is about to start) offloading. Peers
  // never forward into an overloaded region: that would only displace its
  // traffic and bounce conversations across regions.
  bool IsOverloaded() const;

  // --- fault injection (§4.2) ---
  // Fails the LB: pending queued requests error out (clients re-resolve);
  // probe loop stops; peers observe unavailability on their next probe.
  void Fail();
  void Recover();

  LbId id() const { return id_; }
  const SkyWalkerConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  size_t num_replicas() const { return engine_.num_replicas(); }
  size_t num_peers() const { return peers_.size(); }

  // Engine counters and health introspection (tests, scenario assertions).
  const DispatchEngine& engine() const { return engine_; }

 private:
  struct PeerState {
    SkyWalkerLb* peer = nullptr;
    int probed_avail_replicas = 0;
    size_t probed_queue_size = 0;
    bool probed_overloaded = false;
    int forwards_since_probe = 0;
    bool probed_once = false;
  };

  // --- ReplicaSelector: SELECTCANDIDATE over local replicas (Listing 1,
  // lines 17-26). ---
  ReplicaId SelectReplica(const Queued& queued,
                          const DispatchEngine& engine) override;
  void OnReplicaAttached(Replica* replica) override;
  void OnReplicaDetached(ReplicaId replica_id) override;

  // --- ReplicaSelector hooks: the cross-region half ---
  bool ShouldDispatch() const override { return Serving(); }
  HeadAction OnQueueHead(Queued& head) override;
  HeadAction OnUnplaced(Queued& head) override;
  void OnLocalDispatch(const Queued& queued, ReplicaId replica_id) override;
  void OnProbeTick() override;
  void OnAfterReplicaProbes() override;
  void OnReplicaProbeResult() override;

  bool PeerAvailable(const PeerState& state) const;
  // A known peer that is available and that forward_allowed permits.
  bool PeerForwardable(LbId peer_id) const;

  // SELECTCANDIDATE over peer LBs.
  LbId SelectPeer(const Queued& queued);
  // Available peer already holding this prompt's context (sticky affinity),
  // or kInvalidLb.
  LbId StickyRemotePeer(const Queued& queued);

  void Forward(Queued queued, LbId peer_id);
  PeerState* FindPeer(LbId id);

  Simulator* sim_;
  Network* net_;
  LbId id_;
  RegionId region_;
  SkyWalkerConfig config_;
  HealthStatus status_ = HealthStatus::kHealthy;

  std::map<LbId, PeerState> peers_;

  HashRing replica_ring_;
  HashRing lb_ring_;
  RoutingTrie replica_trie_;
  RoutingTrie snapshot_trie_;

  DispatchEngine engine_;

  Stats stats_;

  // Last simulated time at which some local replica was available.
  SimTime last_local_avail_ = 0;
  // EWMA of AvailableReplicaCount()/num_replicas, updated per probe cycle.
  double avail_fraction_ewma_ = 1.0;
};

}  // namespace skywalker

#endif  // SKYWALKER_CORE_SKYWALKER_LB_H_
