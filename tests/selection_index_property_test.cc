// Differential property tests for the ISSUE-10 selection index: the
// gen-stamped lazy min-heap behind DispatchEngine::LeastLoadedAvailable must
// return the identical ReplicaId as the retained linear-scan oracle at every
// decision point, whatever interleaving of load mutations, probe payload
// updates, health transitions, and attach/detach churn got the fleet there.
//
// Two layers:
//   1. Randomized single-engine traces: every mutation class the production
//      code performs (always followed by NoteReplicaMutated or a rebuild,
//      per the maintenance contract in dispatch_engine.h), with the indexed
//      answer compared to the oracle after every single operation — ties
//      included, since both sides break ties toward the lowest registry
//      position.
//   2. Full fleet runs with DispatchConfig::verify_selection, which makes
//      every production LeastLoadedAvailable call SKYWALKER_CHECK against
//      the oracle inside real traffic — probes, admissions, completions,
//      ejections — across {1,4} shards x {1,8} threads, plus trace
//      bit-identity against the one-shard reference.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/fleet.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/routing/dispatch_engine.h"
#include "src/routing/health.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

// The engine wants a selector; these tests query selection directly and
// never dispatch, so it can decline everything.
class NullSelector : public ReplicaSelector {
 public:
  ReplicaId SelectReplica(const Queued&, const DispatchEngine&) override {
    return kInvalidReplica;
  }
};

struct Fleet {
  Simulator sim;
  std::unique_ptr<Network> net;
  NullSelector selector;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<DispatchEngine> engine;
  std::vector<ReplicaId> attached;
  ReplicaId next_id = 0;

  Fleet(int count, const DispatchConfig& config) {
    Topology topology;
    topology.AddRegion("local", Milliseconds(1));
    net = std::make_unique<Network>(&sim, topology);
    engine = std::make_unique<DispatchEngine>(&sim, net.get(), 0, config,
                                              &selector);
    for (int i = 0; i < count; ++i) {
      Attach();
    }
  }

  void Attach() {
    replicas.push_back(
        std::make_unique<Replica>(&sim, next_id, 0, ReplicaConfig{}));
    engine->AttachReplica(replicas.back().get());
    attached.push_back(next_id);
    ++next_id;
  }

  void Detach(size_t which) {
    ASSERT_TRUE(engine->DetachReplica(attached[which]));
    attached.erase(attached.begin() + static_cast<ptrdiff_t>(which));
  }
};

DispatchConfig RandomConfig(Rng& rng) {
  DispatchConfig config;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      config.push_mode = PushMode::kBlind;
      break;
    case 1:
      config.push_mode = PushMode::kSelectiveOutstanding;
      break;
    default:
      config.push_mode = PushMode::kSelectivePending;
      break;
  }
  config.max_outstanding_per_replica = static_cast<int>(rng.UniformInt(1, 6));
  config.push_slack = static_cast<int>(rng.UniformInt(1, 4));
  if (rng.UniformInt(0, 1) == 1) {
    config.min_free_block_fraction = rng.Uniform(0.0, 0.6);
  }
  config.outlier.enabled = true;
  return config;
}

// One production-shaped mutation against a random replica. Every branch is
// something the engine's own paths do between selections (probe response,
// push, completion, timeout, ejection timer, LB recovery).
void MutateOne(Rng& rng, Fleet& fleet) {
  const size_t which = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(fleet.attached.size()) - 1));
  const ReplicaId id = fleet.attached[which];
  ReplicaState* state = fleet.engine->FindReplica(id);
  ASSERT_NE(state, nullptr);
  switch (rng.UniformInt(0, 5)) {
    case 0:  // Push / completion: the dominant steady-state mutation.
      // Loads up to twice the degraded penalty make degraded/healthy ties
      // (healthy load == degraded load + kDegradedLoadPenalty) common — the
      // interesting case for tie-break agreement.
      state->outstanding = static_cast<int>(
          rng.UniformInt(0, static_cast<int64_t>(2 * kDegradedLoadPenalty)));
      break;
    case 1: {  // Probe response landed.
      state->probed_once = true;
      state->probed.pending = static_cast<int>(rng.UniformInt(0, 2));
      state->probed.total_blocks = 100;
      state->probed.free_blocks = rng.UniformInt(0, 100);
      state->pushes_since_probe = 0;
      break;
    }
    case 2:  // Optimistic push between probes.
      state->pushes_since_probe = static_cast<int>(rng.UniformInt(0, 5));
      break;
    case 3: {  // Health walk: failure/ejection/recovery edges.
      OutlierConfig outlier;
      switch (state->health.status()) {
        case HealthStatus::kHealthy:
        case HealthStatus::kDegraded:
          if (rng.UniformInt(0, 1) == 1) {
            if (state->health.RecordFailure()) {
              state->health.Eject(outlier, fleet.sim.now());
            }
          } else {
            state->health.RecordSuccess();
          }
          break;
        case HealthStatus::kEjected:
          if (rng.UniformInt(0, 1) == 1) {
            state->health.BeginRecovery();
          } else {
            state->health.Reset();
          }
          break;
        case HealthStatus::kRecovering:
          if (rng.UniformInt(0, 1) == 1) {
            state->health.RecordSuccess();
          } else {
            state->health.Eject(outlier, fleet.sim.now());
          }
          break;
        default:
          state->health.Reset();
          break;
      }
      break;
    }
    case 4:  // Half-open single-probe admission.
      state->outstanding = static_cast<int>(rng.UniformInt(0, 1));
      break;
    default:  // Drain to idle.
      state->outstanding = 0;
      break;
  }
  fleet.engine->NoteReplicaMutated(id);
}

void ExpectIndexedMatchesOracle(Fleet& fleet) {
  // The engine's own verify path CHECKs too; the EXPECT gives gtest a
  // non-fatal report with context when only one seed diverges.
  const ReplicaId indexed = fleet.engine->LeastLoadedAvailable();
  const ReplicaId oracle = fleet.engine->LeastLoadedAvailableLinear();
  EXPECT_EQ(indexed, oracle);
}

// True when the least-loaded available replicas include both a healthy one
// and a degraded or half-open one: the tie kDegradedLoadPenalty creates,
// which the index must break exactly like the oracle.
bool MixedHealthTieAtMinimum(const Fleet& fleet) {
  double min_load = std::numeric_limits<double>::infinity();
  bool healthy = false;
  bool deprioritized = false;
  for (const ReplicaState& state : fleet.engine->replicas()) {
    if (!fleet.engine->IsAvailable(state)) {
      continue;
    }
    const double load = fleet.engine->EffectiveLoadOf(state);
    if (load < min_load) {
      min_load = load;
      healthy = false;
      deprioritized = false;
    }
    if (load == min_load) {
      (state.health.status() == HealthStatus::kHealthy ? healthy
                                                       : deprioritized) = true;
    }
  }
  return healthy && deprioritized;
}

TEST(SelectionIndexPropertyTest, MatchesLinearOracleUnderRandomTraces) {
  int mixed_health_ties = 0;
  for (const int fleet_size : {1, 2, 3, 8, 33, 128}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("fleet_size=" + std::to_string(fleet_size) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed * 7919 + static_cast<uint64_t>(fleet_size));
      DispatchConfig config = RandomConfig(rng);
      config.verify_selection = true;
      Fleet fleet(fleet_size, config);
      ExpectIndexedMatchesOracle(fleet);
      const int steps = 400;
      for (int step = 0; step < steps; ++step) {
        const int64_t op = rng.UniformInt(0, 99);
        if (op < 86) {
          MutateOne(rng, fleet);
        } else if (op < 94) {
          // Batched probe fan-out shape: several mutations, one refresh.
          const int64_t burst = rng.UniformInt(2, 6);
          for (int64_t i = 0; i < burst; ++i) {
            MutateOne(rng, fleet);
          }
          fleet.engine->RefreshSelectionIndex();
        } else if (op < 97 && fleet.attached.size() > 1) {
          // Registry churn: detach swap-removes a position, invalidating
          // every stamp; attach rebuilds.
          fleet.Detach(static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(fleet.attached.size()) - 1)));
        } else {
          fleet.Attach();
        }
        ExpectIndexedMatchesOracle(fleet);
        mixed_health_ties += MixedHealthTieAtMinimum(fleet) ? 1 : 0;
      }
    }
  }
  // The traces must reach the interesting case, not only trivial ones.
  EXPECT_GT(mixed_health_ties, 0);
}

TEST(SelectionIndexPropertyTest, HeapCompactionPreservesAgreement) {
  // Hammer a handful of replicas with mutations so stale heap entries pile
  // up past the 4R+64 compaction threshold many times over; agreement must
  // survive every compaction boundary.
  DispatchConfig config;
  config.push_mode = PushMode::kSelectiveOutstanding;
  config.max_outstanding_per_replica = 8;
  config.verify_selection = true;
  Fleet fleet(5, config);
  Rng rng(42);
  for (int step = 0; step < 5000; ++step) {
    const ReplicaId id = static_cast<ReplicaId>(rng.UniformInt(0, 4));
    ReplicaState* state = fleet.engine->FindReplica(id);
    ASSERT_NE(state, nullptr);
    state->outstanding = static_cast<int>(rng.UniformInt(0, 7));
    fleet.engine->NoteReplicaMutated(id);
    ExpectIndexedMatchesOracle(fleet);
  }
}

// --- fleet layer ----------------------------------------------------------

FleetSpec VerifiedFleet() {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region = {2, 2, 2, 2};
  spec.clients_per_region = 3;
  spec.warmup = Seconds(2);
  spec.measure = Seconds(6);
  spec.seed = 23;
  spec.collect_trace = true;
  // Every production selection in every region's engine re-answers via the
  // linear oracle and dies on divergence.
  spec.lb.engine.verify_selection = true;
  spec.lb.engine.outlier.enabled = true;

  // A replica outage + recovery drives real ejection/recovery transitions
  // through the index mid-traffic.
  FleetFault fail;
  fail.kind = FleetFault::kReplicaFail;
  fail.at = Seconds(3);
  fail.region = 1;
  fail.replica_index = 0;
  spec.faults.push_back(fail);
  FleetFault recover = fail;
  recover.kind = FleetFault::kReplicaRecover;
  recover.at = Seconds(5);
  spec.faults.push_back(recover);
  return spec;
}

TEST(SelectionIndexPropertyTest, FleetVerifiedAcrossShardsAndThreads) {
  FleetSpec reference_spec = VerifiedFleet();
  reference_spec.num_shards = 1;  // One-shard reference.
  FleetResult reference = RunFleetExperiment(reference_spec);
  ASSERT_GT(reference.metrics.completed, 0u);
  ASSERT_FALSE(reference.trace.empty());

  struct Grid {
    int shards;
    int threads;
  };
  for (const Grid grid : std::vector<Grid>{{1, 8}, {4, 1}, {4, 8}}) {
    SCOPED_TRACE("shards=" + std::to_string(grid.shards) +
                 " threads=" + std::to_string(grid.threads));
    FleetSpec spec = VerifiedFleet();
    spec.num_shards = grid.shards;
    spec.num_threads = grid.threads;
    // Completing at all proves every selection matched the oracle (the
    // verify path is fatal); trace equality additionally pins the decisions
    // to the one-shard reference bit for bit.
    FleetResult result = RunFleetExperiment(spec);
    EXPECT_EQ(result.trace, reference.trace);
    EXPECT_EQ(result.metrics.completed, reference.metrics.completed);
  }
}

}  // namespace
}  // namespace skywalker
