// The experiment harness. RunFleetExperiment builds one serving system —
// SkyWalker's regional LBs, the GKE-style gateway, or a single central
// RR/LL/CH/SGL balancer — plus its closed-loop client population, runs it on
// a region-sharded ShardedSimulator (one shard by default), and summarizes
// the paper's metrics. Every whole-fleet figure (fig08, fig10, the
// ablations, fig_fleet_scale, fig_resilience) runs through it.
//
// Determinism: each client's generator fork, RNG stream, start stagger and
// request-id range are pure functions of (spec.seed, client index), and each
// region records into its own collector. The merged outcome stream is sorted
// canonically before any order-sensitive summary (distributions accumulate
// in sorted order), so results are bit-identical across shard counts and
// thread counts.
//
// Runs on more than one shard support SkyWalker only, and no LB
// fail/recover faults: baselines call replicas in other regions directly,
// and LB recovery and controller failover touch two regions' LBs.
// RunFleetExperiment CHECK-fails such specs before building anything.

#ifndef SKYWALKER_HARNESS_FLEET_H_
#define SKYWALKER_HARNESS_FLEET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/core/controller.h"
#include "src/core/skywalker_lb.h"
#include "src/net/topology.h"
#include "src/replica/replica.h"
#include "src/sim/sharded_simulator.h"
#include "src/workload/client.h"
#include "src/workload/conversation.h"
#include "src/workload/spec.h"

namespace skywalker {

// The frontend a fleet serves through. SkyWalker variants (two-layer
// consistent hashing, Region-Local) are SkyWalker configurations:
// FleetSpec::lb.routing.policy and lb.routing.enable_forwarding.
enum class SystemKind {
  kSkyWalker,       // Regional SkyWalker LBs, configured by FleetSpec::lb.
  kGkeGateway,      // Regional gateways, capacity spill, no LLM awareness.
  kRoundRobin,      // One central LB in region 0, blind pushing.
  kLeastLoad,       // One central LB in region 0, blind pushing.
  kConsistentHash,  // One central LB in region 0, blind pushing.
  kSglRouter,       // One central LB in region 0, cache-aware.
};

std::string_view SystemKindName(SystemKind kind);

// A scheduled fault for the resilience scenarios (ISSUE 7). Faults are
// injected as events on the owning region's shard, keyed to that region, so
// sharded runs stay deterministic.
struct FleetFault {
  enum Kind {
    kLbFail,           // Region blackout at the LB (queue errors out).
    kLbRecover,
    kReplicaFail,      // Replica stops serving; running requests vanish.
    kReplicaRecover,
    kReplicaSlowdown,  // Gray failure: decode stretched by `factor`.
  };
  Kind kind = kLbFail;
  SimTime at = 0;
  RegionId region = 0;
  // kReplica*: index within the region's replicas; -1 = every replica
  // in the region. Ignored for LB faults.
  int replica_index = -1;
  double factor = 1.0;  // kReplicaSlowdown only.
};

// An extra client cohort arriving mid-run (flash crowd / diurnal shift).
struct FleetClientWave {
  RegionId region = 0;
  int count = 0;
  SimDuration start = 0;  // First conversations begin here (staggered 5 s).
  SimTime stop_issuing_after = kSimTimeMax;
};

struct FleetSpec {
  Topology topology = Topology::FourRegions();
  std::vector<int> replicas_per_region;
  int clients_per_region = 0;

  // Baselines run on one shard only.
  SystemKind system = SystemKind::kSkyWalker;

  ReplicaConfig replica_config;
  SkyWalkerConfig lb;  // kSkyWalker only.
  ControllerConfig controller;
  ConversationWorkloadConfig conversation =
      ConversationWorkloadConfig::WildChat();
  ClientConfig client;

  SimDuration warmup = Seconds(10);
  SimDuration measure = Seconds(60);
  // Extra simulated time after the measurement window with no new issues
  // (set client.stop_issuing_after accordingly) so in-flight and retried
  // requests settle; required for meaningful lost-forever accounting.
  SimDuration drain = 0;
  uint64_t seed = 7;

  // Resilience hooks (all empty by default).
  std::vector<FleetFault> faults;
  std::vector<FleetClientWave> client_waves;

  // Further client cohorts (per-region counts, ToT and Mixed-Tree groups,
  // each with its own pacing), indexed after the base population and the
  // waves. Conversation groups fork `conversation`'s generator.
  std::vector<ClientGroup> groups;

  // Region shards (clamped to the region count; values <= 1 mean one
  // shard) and `num_threads` workers (0 = one per shard). More than one
  // shard requires SkyWalker without LB faults.
  int num_shards = 1;
  int num_threads = 1;

  // Serializes every outcome into FleetResult::trace (one line per request,
  // canonical order) for bit-identity tests. Off for large benches.
  bool collect_trace = false;

  // Optional request-lifecycle tracer (ISSUE 9), installed on every shard
  // before any actor is built. Caller-owned; must
  // outlive the run. Tracing never perturbs the simulation, and per-region
  // record streams are identical across shard/thread counts.
  Tracer* tracer = nullptr;
};

// Summary metrics of one run; latency and throughput cover requests
// completed inside the measurement window.
struct ExperimentResult {
  std::string_view system;
  size_t completed = 0;
  double throughput_tok_s = 0;         // (prompt + output) tokens / s.
  double output_throughput_tok_s = 0;
  double ttft_p50_s = 0;
  double ttft_p90_s = 0;
  double ttft_mean_s = 0;
  double e2e_p50_s = 0;
  double e2e_p90_s = 0;
  double e2e_mean_s = 0;
  double cache_hit_rate = 0;           // Replica-level, token weighted.
  double forwarded_fraction = 0;
  double outstanding_imbalance = 0;    // max/min mean outstanding per replica.
  Distribution ttft;
  Distribution e2e;
};

struct FleetResult {
  ExperimentResult metrics;
  // One line per completed request, sorted by (completion_time, submit_time,
  // client_region, id). Empty unless FleetSpec::collect_trace.
  std::string trace;

  uint64_t messages_sent = 0;
  uint64_t cross_region_messages = 0;
  size_t executed_events = 0;

  // Resilience accounting (ISSUE 7), summed over all clients / LBs / the
  // controller for the whole run (warmup + measure + drain).
  int64_t issued = 0;           // Client submissions (retries re-count).
  int64_t completed_total = 0;  // Client-side completions.
  int64_t client_errors = 0;    // on_error deliveries (each is retried).
  int64_t lost_forever = 0;     // issued - completed_total - client_errors.
  int64_t request_timeouts = 0;
  int64_t probe_misses = 0;
  int64_t ejections = 0;
  int64_t recoveries = 0;
  int64_t late_completions = 0;
  int64_t failovers = 0;  // Controller failovers handled.

  // Wall-clock telemetry (nondeterministic; BENCH_TIMING.json only).
  double run_wall_seconds = 0;
  std::vector<ShardedSimulator::ShardTiming> shard_timing;
  uint64_t windows = 0;
  int num_shards = 0;
  int num_threads = 0;
};

FleetResult RunFleetExperiment(const FleetSpec& spec);

// Converts a result into the standard machine-readable row (all keys of
// StandardExperimentMetricKeys()). `total_replicas` prices the deployment at
// the paper's reserved per-replica-hour rate (cost_usd_per_hour).
MetricRow ExperimentMetricRow(std::string label,
                              const ExperimentResult& result,
                              int total_replicas);

}  // namespace skywalker

#endif  // SKYWALKER_HARNESS_FLEET_H_
