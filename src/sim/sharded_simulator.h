// Region-sharded parallel discrete-event simulation with conservative
// lookahead (ISSUE 6; classic Chandy–Misra–Bryant windowing).
//
// The fleet's regions are partitioned into N shards, each owning one
// Simulator (queue + clock + RNG domains for its regions). Execution
// proceeds in rounds against per-shard frontiers (ISSUE 10): shard pair
// (src, dst) carries a conservative bound L[src][dst] = the minimum
// src->dst one-way latency over region pairs, and each round shard s runs
// its events in [frontier[s], target[s]) where
//     target[s] = min over src != s of (frontier[src] + L[src][s]),
// because any message src sent during its own window delivers at
// sender_now + latency >= frontier[src] + L[src][s] >= target[s]. A close
// region pair therefore throttles only the shards it actually feeds, not
// the whole fleet (the pre-ISSUE-10 scheme ran every shard to the single
// global minimum). Frontiers are monotone (each new target is a min over
// frontiers that only grew) and live (the least-advanced shard strictly
// gains at least min L per round). At the round barrier the main thread
// drains the per-(src,dst) shard mailboxes into the destination queues —
// CHECKing mail.at >= target[dst] — and the next round starts. Shards with
// no event before their target skip execution entirely. A round runs on the
// coordinating thread plus num_threads - 1 pool workers: thread w executes
// shards s with s % num_threads == w, the coordinator being thread 0. Rounds
// with at most one busy shard, and every round when num_threads is 1, run
// all their shards on the coordinator without waking the pool. A single
// shard is no special case: it has no incoming edges, so each RunUntil is
// one round with target deadline + 1.
//
// Determinism is structural, not scheduling-dependent: every event carries
// an ordering key (time, origin region, per-origin sequence) — see
// event_queue.h — so each shard's execution order, and therefore each
// region's observable behavior, is a pure function of per-region histories.
// Shard count and thread count change only which queue an event waits in,
// never the order regions observe. Mailbox drain order (ascending source
// shard) is fixed for reproducible queue internals, though any drain order
// yields the same execution: the heap orders by the carried key.
//
// Restrictions with more than one shard (a single shard runs every region
// on one thread and is unaffected):
//  * cross-region interaction must flow through Network::Send /
//    Network::Deliver (direct cross-region method calls would race), which
//    rules out the central baseline LBs and the gateway;
//  * fault injection (LB Fail/Recover, controller failover) is not
//    supported — those paths mutate remote-region state directly.
// RunFleetExperiment (src/harness/fleet.h) CHECK-fails specs that break
// either rule.
//
// Shards start unscoped: setup code must SetCurrentRegion before it
// schedules, or Simulator::ScheduleAt CHECK-fails.

#ifndef SKYWALKER_SIM_SHARDED_SIMULATOR_H_
#define SKYWALKER_SIM_SHARDED_SIMULATOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/sim_time.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace skywalker {

class ShardedSimulator {
 public:
  // Fixed shard assignment: region r -> shard r % num_shards (part of the
  // determinism contract; see DESIGN.md §7.2). `num_threads` caps the
  // threads that run a round: the coordinating thread plus num_threads - 1
  // pool workers (0 = one thread per shard; 1 = serial rounds on the
  // coordinator and no pool, same results).
  ShardedSimulator(const Topology& topology, int num_shards,
                   int num_threads = 0);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_threads() const { return num_threads_; }
  const Topology& topology() const { return topology_; }

  // The per-pair conservative bound: min src->dst one-way latency over
  // region pairs straddling the two shards. kSimTimeMax on the diagonal (a
  // shard never throttles itself).
  SimDuration PairLookahead(int src_shard, int dst_shard) const {
    return pair_lookahead_[static_cast<size_t>(src_shard) *
                               static_cast<size_t>(num_shards()) +
                           static_cast<size_t>(dst_shard)];
  }

  // Installs one shared Tracer on every shard (ISSUE 9). Safe because the
  // tracer buffers per *region* and each region's events execute on exactly
  // one shard; see src/obs/trace.h.
  void SetTracer(Tracer* tracer) {
    for (auto& shard : shards_) {
      shard->SetTracer(tracer);
    }
  }

  int ShardOf(RegionId region) const {
    return shard_of_region_[static_cast<size_t>(region)];
  }
  Simulator* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }
  Simulator* SimForRegion(RegionId region) { return shard(ShardOf(region)); }

  // Cross-shard message injection (Network's sharded send path). Only the
  // thread currently executing `from_shard` may call this; the mail is
  // drained into the destination shard at the next window barrier.
  void PostCrossShard(int from_shard, SimTime at, uint64_t key,
                      RegionId target, EventFn fn);

  // Windowed parallel execution of all shards up to and including
  // `deadline`; every shard clock ends at >= deadline (Simulator::RunUntil
  // parity). Returns events executed across shards during this call.
  size_t RunUntil(SimTime deadline);

  size_t executed_events() const;

  // Per-shard wall-time breakdown of all RunUntil calls so far: busy is
  // in-window event execution on the shard, barrier is the remainder of the
  // parallel phase (waiting on straggler shards plus mailbox drains).
  // Nondeterministic; feeds the BENCH_TIMING.json sidecar only.
  struct ShardTiming {
    double busy_seconds = 0;
    double barrier_seconds = 0;
    uint64_t executed_events = 0;
    uint64_t mailbox_in = 0;  // Cross-shard messages delivered to the shard.
  };
  std::vector<ShardTiming> Timing() const;
  // Rounds that executed at least one shard window. Rounds where every
  // shard was already past its target (pure frontier bookkeeping) are not
  // counted — they do no simulation work.
  uint64_t windows() const { return windows_; }

 private:
  struct Mail {
    SimTime at;
    uint64_t key;
    RegionId target;
    EventFn fn;
  };

  std::vector<Mail>& Mailbox(int from_shard, int to_shard) {
    return mailboxes_[static_cast<size_t>(from_shard) *
                          static_cast<size_t>(num_shards()) +
                      static_cast<size_t>(to_shard)];
  }

  // Moves all pending mail into destination queues; mail delivery into
  // shard d must land at or after target_[d] (the per-pair lookahead
  // guarantee, CHECKed).
  void DrainMailboxes();

  // The per-pair frontier round loop behind RunUntil, for every shard and
  // thread count.
  void RunRounds(SimTime deadline);
  // Executes this round's window on the active shards first, first +
  // stride, ... — the one per-shard body of the coordinator and the pool.
  void RunShards(int first, int stride);
  // Lazily spawns the persistent pool of num_threads_ - 1 workers (first
  // round with >= 2 active shards and num_threads_ > 1).
  void EnsurePool();

  Topology topology_;
  int num_threads_;
  std::vector<SimDuration> pair_lookahead_;  // Dense S x S; see PairLookahead.
  std::vector<int> shard_of_region_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  // Dense (src, dst) mailbox matrix. A box is written only by the thread
  // executing its source shard inside a window and drained only by the main
  // thread at the barrier, so no synchronization beyond the barrier itself
  // is needed.
  std::vector<std::vector<Mail>> mailboxes_;
  // Per-shard window state. frontier_[s]: everything before it has executed
  // on shard s. target_[s] / active_[s]: the window end and participation
  // flag for the round in flight, published to workers under pool_mu_.
  std::vector<SimTime> frontier_;
  std::vector<SimTime> target_;
  std::vector<uint8_t> active_;

  // Persistent worker pool. With W = num_threads_, worker w in [1, W) owns
  // shards w, w+W, ... and the coordinator owns shards 0, W, ... — static
  // ownership keeps busy_seconds_ single-writer within a round; the epoch
  // handshake orders the coordinator's writes against worker rounds.
  // Spawned on first use, joined in the destructor.
  std::vector<std::thread> pool_;
  std::mutex pool_mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;
  int done_ = 0;
  bool quit_ = false;

  // Timing accounting (telemetry only). busy_seconds_[s] is written solely
  // by the thread running shard s (single-writer per round, handshake
  // ordered across rounds); the rest by the main thread.
  std::vector<double> busy_seconds_;
  std::vector<uint64_t> mailbox_in_;
  double parallel_seconds_ = 0;
  uint64_t windows_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_SIM_SHARDED_SIMULATOR_H_
