// Discrete-event model of one LLM inference replica: an SGLang-style engine
// with continuous batching, chunked prefill, a paged KV memory subsystem
// (src/memory/), and a radix-tree prefix cache (paper §2.1).
//
// The model reproduces the observables the load-balancing layer depends on:
//  * a *pending queue* of requests accepted by the engine but not yet in the
//    continuous batch — the signal SP-P probes (§3.3); preempted sequences
//    parked for swap-in count as pending, since the batch cannot admit them;
//  * prefill time proportional to non-cached prompt tokens (≈300 ms for a
//    512-token prompt on an L4, §2.1), so prefix-cache hits directly cut
//    TTFT;
//  * step times of tens of milliseconds that grow with batch size;
//  * a KV capacity that bounds concurrent requests at 20–50 for typical
//    conversation lengths (§3.3), with LRU eviction and policy-driven
//    preemption (recompute or swap-to-host, src/memory/kv_controller.h)
//    under pressure.
//
// Timing model per engine step:
//   duration = step_base + prefill_tokens · prefill_per_token
//            + decoding_seqs · decode_per_seq
//
// Prompt KV is published to the prefix cache when prefill completes (SGLang
// inserts computed KV into its radix tree immediately, so concurrent
// identical prompts share from that point); generated tokens are published
// at completion.
//
// Memory accounting runs through one unified block ledger (ISSUE 5,
// DESIGN.md §9): the KvController owns the page pool, the radix cache's
// nodes charge their per-node page spans straight into it, and sequences
// hold path-aligned tables whose pages transfer to the cache by reference
// when prefill completes. Admission is a free-block watermark check over
// the exact pooled occupancy, and ReclaimMemory picks preemption victims
// whose treatment the configured policy decides. The default configuration
// (kv_block_size_tokens == 1, no watermark, recompute preemption) is the
// *coarse compatibility mode*, bit-identical to the seed token-counter
// accounting.

#ifndef SKYWALKER_REPLICA_REPLICA_H_
#define SKYWALKER_REPLICA_REPLICA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/cache/prefix_cache.h"
#include "src/common/sim_time.h"
#include "src/memory/kv_controller.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

// Chunked-prefill budget per engine step, in tokens: a longer prompt
// prefills over several steps.
inline constexpr int64_t kMaxPrefillTokensPerStep = 1024;

struct ReplicaConfig {
  // KV memory in tokens. Default models an L4 (24 GB) serving
  // Llama-3.1-8B: ~6 GB free for KV at 128 KiB/token ≈ 49K tokens.
  int64_t kv_capacity_tokens = 49152;

  // Engine cap on batch size (vLLM/SGLang max_num_seqs analogue).
  int max_running_requests = 64;

  // Admission headroom reserved per request for its future output.
  int64_t output_reserve_tokens = 128;

  // Timing constants (microseconds). Defaults calibrated so a 512-token
  // prefill costs ~300 ms (paper §2.1) and decode steps are tens of ms.
  double step_base_us = 20000.0;
  double prefill_us_per_token = 550.0;
  double decode_us_per_seq = 400.0;

  // --- paged KV memory (src/memory/, ISSUE 4/5) ------------------------
  // Page size in tokens. 1 = coarse compatibility mode (seed-identical
  // token-granular accounting); real engines use 16 or 32.
  int32_t kv_block_size_tokens = 1;
  // Admission keeps this many blocks free as decode headroom.
  int64_t kv_watermark_blocks = 0;
  // What preemption does to its victim: recompute (seed behavior) or
  // swap-to-host with modeled PCIe transfer latency.
  PreemptPolicy kv_preempt_policy = PreemptPolicy::kRecompute;
  // Victim selection for the prefix cache under memory pressure (ISSUE 8).
  // kLruLeaf is the behavior-frozen seed policy; kColdSubtree evicts whole
  // cold subtrees ranked by pages-per-expected-future-hit.
  EvictionPolicy cache_eviction_policy = EvictionPolicy::kLruLeaf;

  KvConfig kv() const {
    KvConfig config;
    config.capacity_tokens = kv_capacity_tokens;
    config.block_size_tokens = kv_block_size_tokens;
    config.watermark_blocks = kv_watermark_blocks;
    config.preempt_policy = kv_preempt_policy;
    return config;
  }
};

// The versioned heartbeat-probe payload (ISSUE 7): everything a balancer
// routes on, in one struct with exactly one construction site
// (Replica::Probe) and one decode site (the dispatch engine's probe-response
// handler). `version` is a per-replica monotonic probe counter. The EWMA
// decode-latency sample feeds passive latency-outlier detection
// (src/routing/health.h); full diagnostic detail stays on
// Replica::LoadSnapshot, which metrics and tests read directly.
struct ProbePayload {
  int64_t version = 0;
  int pending = 0;        // Accepted, not in the batch (incl. swapped).
  int running = 0;
  int free_capacity = 0;  // EstimateFreeCapacity().
  int64_t free_blocks = 0;
  int64_t total_blocks = 0;
  int64_t swapped = 0;
  // EWMA over completed requests of (decode wall time) / (tokens decoded) —
  // the per-token service latency a straggler inflates, whatever its load.
  double ewma_decode_us_per_token = 0.0;
  int64_t latency_samples = 0;  // Completions folded into the EWMA.
};

class Replica {
 public:
  struct Handlers {
    // First output token produced (prefill finished). `cached_tokens` is the
    // prefix-cache hit length at admission.
    std::function<void(const Request&, int64_t cached_tokens)> on_first_token;
    // All output tokens produced.
    std::function<void(const Request&, int64_t cached_tokens)> on_complete;
  };

  struct Stats {
    int64_t enqueued = 0;
    int64_t completed = 0;
    int64_t prefill_tokens_computed = 0;
    int64_t cached_tokens_reused = 0;
    int64_t output_tokens_generated = 0;
    int64_t preemptions = 0;  // Recompute + swap victims.
    int64_t dropped_requests = 0;  // Arrivals while failed (vanish, §10).
    int64_t engine_steps = 0;
    int peak_running = 0;
    int peak_pending = 0;
  };

  // What a heartbeat probe RPC reports (§3.3 + ISSUE 4/5): queue state plus
  // the paged-memory headroom signals balancers can route on. Since ISSUE 5
  // the block figures are *exact* — computed from the unified ledger, not
  // estimated from token counters.
  struct LoadSnapshot {
    int pending = 0;        // Accepted, not in the batch (incl. swapped).
    int running = 0;
    int free_capacity = 0;  // EstimateFreeCapacity().
    // Blocks a new admission could claim right now: raw free pages plus
    // pages that would drain if every unpinned cache node were evicted
    // (a warm LRU cache keeps raw free blocks at ~0), minus committed
    // future.
    int64_t free_blocks = 0;
    int64_t total_blocks = 0;
    // Exact occupancy of the radix cache in pages, and the evictable
    // subset (pages whose every reference comes from unpinned nodes).
    int64_t cache_blocks = 0;
    int64_t evictable_blocks = 0;
    int64_t fragmentation_tokens = 0;
    int64_t preemptions = 0;  // Cumulative.
    int64_t swapped = 0;      // Currently swapped out or restoring.
  };

  Replica(Simulator* sim, ReplicaId id, RegionId region,
          const ReplicaConfig& config);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Request arrival at the replica (network latency already applied by the
  // caller). Enters the pending queue until the batch admits it.
  void Enqueue(Request req, Handlers handlers);

  // --- Probe interface (what a heartbeat RPC would report, §3.3) ---

  // Requests not yet scheduled into the continuous batch. "> 0" is the
  // paper's definition of a full replica. Swapped-out or restoring
  // sequences count: they are accepted work the batch cannot hold.
  int pending_count() const {
    return static_cast<int>(pending_.size()) + swapped_count();
  }
  int running_count() const { return static_cast<int>(running_.size()); }
  // LB-visible total load (outstanding = pending + running).
  int outstanding_count() const { return pending_count() + running_count(); }
  // Sequences preempted to host memory (incl. in-flight restores).
  int swapped_count() const {
    return static_cast<int>(swapped_.size() + restoring_.size());
  }

  // Resident KV in tokens: cache content plus sequence-private tokens
  // (token positions are disjoint even where they share a boundary page).
  int64_t memory_used_tokens() const;
  double memory_utilization() const;

  // Allocated-but-unoccupied page slots across the whole pool — the exact
  // figure: pages shared between the cache and a sequence count once, with
  // both sides' tokens occupying them.
  int64_t fragmentation_tokens() const;

  // Engine-reported admission headroom: how many more requests of typical
  // size the continuous batch could admit right now, bounded by both batch
  // slots and KV memory. Heartbeat probes report this alongside the pending
  // count so balancers can bound their optimistic pushes between probes.
  int EstimateFreeCapacity() const;

  // One-call probe payload: queue depths plus paged-memory headroom.
  LoadSnapshot Snapshot() const;

  // The heartbeat-probe RPC body (ISSUE 7): stamps the next probe version,
  // computes the preemption delta against the previous probe, and attaches
  // the decode-latency EWMA. Non-const on purpose — probing *is* the state
  // change that advances the delta baseline, and keeping it here gives the
  // payload exactly one construction site.
  ProbePayload Probe();

  // KV held by *running* requests (pinned cache paths + private tokens).
  // Excludes cached-but-idle content, which an LRU cache keeps resident
  // anyway; this is the "KV cache memory utilization" a serving dashboard
  // (and the paper's Fig. 4b) reports.
  int64_t active_memory_tokens() const;
  double active_memory_utilization() const;

  // Output reserve still committed to admitted sequences. Returns to zero
  // whenever the batch drains — completion, abort, and preemption all hand
  // their reserve back (regression-tested; ISSUE 4).
  int64_t reserved_future_tokens() const {
    return kv_.committed_reserve_tokens();
  }

  ReplicaId id() const { return id_; }
  RegionId region() const { return region_; }
  const ReplicaConfig& config() const { return config_; }
  const PrefixCache& cache() const { return cache_; }
  const Stats& stats() const { return stats_; }
  const KvController& kv() const { return kv_; }

  // Drops all queued and running work (used by failure-injection tests).
  // Running requests vanish without callbacks, like a crashed engine.
  void Crash();

  // --- fault injection (DESIGN.md §10) ---
  // Hard failure: crashes (running work vanishes) and stops serving — later
  // arrivals are dropped without callbacks and probes go unanswered, so an
  // outlier-detecting balancer observes timeouts, not refusals.
  void Fail();
  void Recover();
  bool serving() const { return serving_; }

  // Gray-failure injection: multiplies every engine-step duration (a 6x
  // straggler decodes 6x slower but stays reachable — the hard case for
  // least-loaded routing). 1.0 is the identity and leaves timing
  // bit-identical to a build without the knob.
  void SetSlowdown(double factor);
  double slowdown() const { return slowdown_; }

 private:
  struct Seq {
    Request req;
    Handlers handlers;
    int64_t cached_len = 0;         // Admission-time hit (reporting).
    PinId pin = kInvalidPin;
    KvController::SeqId kv = KvController::kInvalidSeq;
    int64_t kv_base = 0;            // Path position of the table's token 0.
    int64_t prefill_remaining = 0;  // Prompt tokens still to compute.
    int64_t generated = 0;          // Output tokens produced so far.
    bool prefill_done = false;
    bool first_token_sent = false;
    int64_t prefill_alloc = 0;      // Tokens assigned in the current step.
    // Planned to decode one token in the current step. FinishStep applies
    // decode only to planned sequences, so a swap-in joining mid-step never
    // receives a token the step was not priced (or EWMA-sampled) for.
    bool decode_alloc = false;
    SimTime decode_start = 0;       // When the first output token fired.

    int64_t prompt_len() const { return req.prompt_tokens(); }
    int64_t output_len() const { return req.output_tokens(); }
  };

  // A sequence preempted to host memory (kSwap policy). Keeps its prefix-
  // cache pin: the shared blocks stay device-resident (still referenced by
  // the radix tree), only private KV crossed PCIe.
  struct SwappedSeq {
    Seq seq;
    int64_t swap_tokens = 0;  // Private KV held on the host.
    SimTime ready_at = 0;     // Swap-out transfer completion.
  };

  // A swap-in in flight: blocks are charged, arrival is scheduled.
  struct RestoringSeq {
    Seq seq;
    int64_t ticket = 0;
    EventId arrival = kInvalidEventId;
  };

  // Output reserve still unconsumed by `seq` (what admission, re-admission
  // and swap-in commit).
  int64_t ReserveRemaining(const Seq& seq) const;

  // Moves pending requests into the batch while memory and slots allow;
  // swapped-out sequences re-enter first (resume priority).
  void Admit();
  void MaybeStartSwapIns();
  void FinishSwapIn(int64_t ticket);

  // Starts an engine step if work exists and none is in flight.
  void MaybeStep();

  // Applies the effects of the step that just finished. `step_us` is the
  // step's wall duration and `decode_count` how many sequences decoded a
  // token in it — every such sequence experienced the full step duration as
  // its inter-token latency, which is the decode-latency sample.
  void FinishStep(double step_us, int decode_count);

  // Handles a seq whose prefill completed in this step: publishes the
  // prompt's pages to the shared cache by reference transfer and drops the
  // sequence's claim on the published span.
  void OnPrefillComplete(Seq& seq);

  void CompleteSeq(Seq& seq);

  // Frees memory under pressure: cache eviction first, then policy-driven
  // preemption of the youngest running request (recompute or swap-out).
  void ReclaimMemory();

  void SampleMemory();

  // cache_.Evict with trace attribution: emits one kCacheEvict record per
  // call that removed at least one node. Returns the blocks freed.
  int64_t EvictCache(int64_t blocks);

  Simulator* sim_;
  ReplicaId id_;
  RegionId region_;
  ReplicaConfig config_;
  KvController kv_;     // Owns the page pool; declared before the cache,
  PrefixCache cache_;   // which charges its node spans into kv_'s allocator.

  bool serving_ = true;
  double slowdown_ = 1.0;
  // Probe bookkeeping (ProbePayload construction, see Probe()).
  int64_t probe_version_ = 0;
  // Inter-token decode-latency EWMA, folded per decode step (alpha = 0.25):
  // a straggler's slowdown becomes probe-visible within a few steps instead
  // of only after whole sequences complete, which is what makes passive
  // latency-outlier ejection react on a useful timescale.
  double decode_ewma_us_per_token_ = 0.0;
  int64_t latency_samples_ = 0;

  std::deque<Seq> pending_;
  std::vector<Seq> running_;  // Admission order (oldest first).
  std::deque<SwappedSeq> swapped_;  // Swap-out order (oldest first).
  std::vector<RestoringSeq> restoring_;
  int64_t next_restore_ticket_ = 0;
  bool step_in_flight_ = false;
  // Deduplicates watermark-rejection counting: one count per blocked
  // request's episode (keyed by id — the head can rotate under preemption).
  RequestId watermark_reject_id_ = 0;
  bool watermark_reject_id_valid_ = false;

  Stats stats_;
};

// Token-weighted prefix-cache hit rate across `replicas` (0 before any
// lookup).
double AggregateCacheHitRate(
    const std::vector<std::unique_ptr<Replica>>& replicas);

}  // namespace skywalker

#endif  // SKYWALKER_REPLICA_REPLICA_H_
