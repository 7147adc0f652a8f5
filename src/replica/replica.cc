#include "src/replica/replica.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skywalker {

namespace {

// Per-context-token decode cost (microseconds): the attention/KV-bandwidth
// term that gives decode throughput its knee. Beyond a few dozen sequences,
// adding batch slots stops paying (as on a real L4).
constexpr double kDecodeUsPerContextToken = 0.5;

// Engine steps between two kMemSample trace records.
constexpr int64_t kMemSampleEverySteps = 4;

}  // namespace

Replica::Replica(Simulator* sim, ReplicaId id, RegionId region,
                 const ReplicaConfig& config)
    : sim_(sim),
      id_(id),
      region_(region),
      config_(config),
      kv_(config.kv()),
      cache_(config.kv_capacity_tokens, &kv_.allocator(),
             config.kv_block_size_tokens, config.cache_eviction_policy) {}

void Replica::Enqueue(Request req, Handlers handlers) {
  SKYWALKER_CHECK(!req.output.empty()) << "request must generate >= 1 token";
  if (!serving_) {
    // A crashed engine accepts nothing; the request vanishes exactly like
    // in-flight work did at the crash. The dispatching balancer's request
    // timeout is what converts this silence into a client-visible error.
    ++stats_.dropped_requests;
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kDrop, region_, id_,
                static_cast<int64_t>(req.id));
    }
    return;
  }
  Seq seq;
  seq.req = std::move(req);
  seq.handlers = std::move(handlers);
  pending_.push_back(std::move(seq));
  ++stats_.enqueued;
  stats_.peak_pending = std::max(stats_.peak_pending, pending_count());
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kReplicaArrive, region_, id_,
              static_cast<int64_t>(pending_.back().req.id), pending_count());
  }
  MaybeStep();
}

int64_t Replica::ReserveRemaining(const Seq& seq) const {
  return std::max<int64_t>(0, config_.output_reserve_tokens - seq.generated);
}

int64_t Replica::memory_used_tokens() const {
  return cache_.size_tokens() + kv_.seq_resident_tokens();
}

int64_t Replica::fragmentation_tokens() const {
  return kv_.used_blocks() * config_.kv_block_size_tokens -
         memory_used_tokens();
}

int Replica::EstimateFreeCapacity() const {
  int free_slots = config_.max_running_requests -
                   static_cast<int>(running_.size()) - pending_count();
  if (free_slots <= 0) {
    return 0;
  }
  // Memory headroom in units of a typical request: average the footprint of
  // the current batch, falling back to a conservative default when idle.
  int64_t free_tokens = config_.kv_capacity_tokens - memory_used_tokens() -
                        kv_.committed_tokens();
  if (free_tokens <= 0) {
    return 0;
  }
  int64_t per_request = 512 + config_.output_reserve_tokens;
  if (!running_.empty()) {
    int64_t total = 0;
    for (const Seq& seq : running_) {
      total += seq.prompt_len() - seq.cached_len +
               config_.output_reserve_tokens;
    }
    per_request = std::max<int64_t>(64, total /
                                            static_cast<int64_t>(running_.size()));
  }
  int by_memory = static_cast<int>(free_tokens / per_request);
  return std::max(0, std::min(free_slots, by_memory));
}

Replica::LoadSnapshot Replica::Snapshot() const {
  LoadSnapshot snap;
  snap.pending = pending_count();
  snap.running = running_count();
  snap.free_capacity = EstimateFreeCapacity();
  // Routing headroom, exact (ISSUE 5): pages free in the pool plus pages a
  // full eviction of unpinned cache content would return (raw free blocks
  // read ~0 forever once the LRU cache warms up — the cache deliberately
  // keeps otherwise-idle pages resident), minus committed future. In coarse
  // mode this equals the seed estimate capacity - active - committed.
  PrefixCache::BlockOccupancy occ = cache_.CountBlocks();
  snap.cache_blocks = occ.held_blocks;
  snap.evictable_blocks = occ.evictable_blocks;
  snap.free_blocks = std::max<int64_t>(
      0, kv_.free_blocks() + occ.evictable_blocks - kv_.committed_blocks());
  snap.total_blocks = kv_.total_blocks();
  snap.fragmentation_tokens = fragmentation_tokens();
  snap.preemptions = stats_.preemptions;
  snap.swapped = swapped_count();
  return snap;
}

ProbePayload Replica::Probe() {
  LoadSnapshot snap = Snapshot();
  ProbePayload payload;
  payload.version = ++probe_version_;
  payload.pending = snap.pending;
  payload.running = snap.running;
  payload.free_capacity = snap.free_capacity;
  payload.free_blocks = snap.free_blocks;
  payload.total_blocks = snap.total_blocks;
  payload.swapped = snap.swapped;
  payload.ewma_decode_us_per_token = decode_ewma_us_per_token_;
  payload.latency_samples = latency_samples_;
  return payload;
}

double Replica::memory_utilization() const {
  return static_cast<double>(memory_used_tokens()) /
         static_cast<double>(config_.kv_capacity_tokens);
}

int64_t Replica::active_memory_tokens() const {
  return cache_.pinned_tokens() + kv_.seq_resident_tokens();
}

double Replica::active_memory_utilization() const {
  return static_cast<double>(active_memory_tokens()) /
         static_cast<double>(config_.kv_capacity_tokens);
}

void Replica::Admit() {
  MaybeStartSwapIns();
  // Strict resume priority: while any swapped-out sequence is still waiting
  // to come back, fresh pending requests must not consume the memory its
  // restore needs — otherwise a stream of small admissions can starve a
  // large swap-in indefinitely. (The wait is bounded: a completion or the
  // swap-out transfer's completion poke re-enters here, and the swap-in
  // claims the freed blocks first.)
  if (!swapped_.empty()) {
    return;
  }
  while (!pending_.empty() &&
         running_.size() + restoring_.size() <
             static_cast<size_t>(config_.max_running_requests)) {
    Seq& candidate = pending_.front();
    auto match = cache_.MatchAndRef(candidate.req.prompt, sim_->now());
    // A fully cached prompt still recomputes its last token so the engine
    // produces the first output token (SGLang does the same).
    const int64_t cached =
        std::min(match.cached_len, candidate.prompt_len() - 1);
    const PinId pin = match.pin;
    const int64_t prefill_need = candidate.prompt_len() - cached;
    // The admission check prices a full fresh request's reserve; the
    // commit below re-prices for already-generated tokens (a re-admitted
    // preemption victim).
    const int64_t reserve = config_.output_reserve_tokens;
    if (!kv_.CanAdmit(prefill_need, reserve)) {
      EvictCache(kv_.AdmissionDeficitBlocks(prefill_need, reserve));
    }
    if (!kv_.CanAdmit(prefill_need, reserve) &&
        (!running_.empty() || !restoring_.empty())) {
      // Not enough memory; wait for completions. (Pinned content cannot be
      // evicted, and running seqs release memory as they finish.) Count a
      // watermark rejection once per blocked request's episode — keyed by
      // request id, since Admit re-runs every engine step and preemption
      // can rotate the queue head mid-episode.
      if (kv_.CanAdmitIgnoringWatermark(prefill_need, reserve) &&
          (!watermark_reject_id_valid_ ||
           watermark_reject_id_ != candidate.req.id)) {
        kv_.NoteWatermarkRejection();
        watermark_reject_id_ = candidate.req.id;
        watermark_reject_id_valid_ = true;
        if (Tracer* t = sim_->tracer()) {
          EmitTrace(t, sim_->now(), TraceEventType::kWatermarkReject, region_,
                    id_, static_cast<int64_t>(candidate.req.id),
                    kv_.free_blocks(), kv_.committed_blocks());
        }
      }
      if (pin != kInvalidPin) {
        cache_.Unref(pin);
      }
      break;
    }
    // Either it fits, or the batch is empty and we force-admit to guarantee
    // progress (real engines recompute/preempt to handle this case).
    Seq seq = std::move(candidate);
    pending_.pop_front();
    if (watermark_reject_id_valid_ && watermark_reject_id_ == seq.req.id) {
      watermark_reject_id_valid_ = false;  // Its episode ended in admission.
    }
    seq.cached_len = cached;
    seq.pin = pin;
    seq.kv_base = cached;
    seq.prefill_remaining = seq.prompt_len() - cached;
    // The table is path-aligned: its pages sit at the positions the radix
    // tree would charge them, so publishing at prefill completion is a
    // reference transfer.
    seq.kv = kv_.AdmitSeq(
        seq.prefill_remaining, ReserveRemaining(seq),
        static_cast<int32_t>(cached % config_.kv_block_size_tokens));
    seq.prefill_done = false;
    seq.prefill_alloc = 0;
    seq.decode_alloc = false;
    stats_.cached_tokens_reused += cached;
    running_.push_back(std::move(seq));
    stats_.peak_running =
        std::max(stats_.peak_running, static_cast<int>(running_.size()));
    if (Tracer* t = sim_->tracer()) {
      const Seq& admitted = running_.back();
      EmitTrace(t, sim_->now(), TraceEventType::kAdmit, region_, id_,
                static_cast<int64_t>(admitted.req.id), admitted.cached_len,
                admitted.prefill_remaining);
    }
  }
}

void Replica::MaybeStartSwapIns() {
  while (!swapped_.empty() &&
         running_.size() + restoring_.size() <
             static_cast<size_t>(config_.max_running_requests)) {
    SwappedSeq& front = swapped_.front();
    if (sim_->now() < front.ready_at) {
      break;  // The swap-out completion poke re-enters here.
    }
    const int64_t tokens = front.swap_tokens;
    const int64_t reserve = ReserveRemaining(front.seq);
    const int64_t prefill = front.seq.prefill_remaining;
    if (!kv_.CanAdmitRestore(tokens, prefill, reserve)) {
      EvictCache(kv_.RestoreDeficitBlocks(tokens, prefill, reserve));
    }
    if (!kv_.CanAdmitRestore(tokens, prefill, reserve) &&
        !(running_.empty() && restoring_.empty())) {
      break;  // Wait for completions; a drained engine forces the restore.
    }
    RestoringSeq restoring;
    restoring.seq = std::move(front.seq);
    swapped_.pop_front();
    SimDuration transfer = 0;
    restoring.seq.kv = kv_.BeginSwapIn(
        tokens, restoring.seq.prefill_remaining, reserve,
        static_cast<int32_t>(restoring.seq.kv_base %
                             config_.kv_block_size_tokens),
        &transfer);
    restoring.ticket = next_restore_ticket_++;
    const int64_t ticket = restoring.ticket;
    restoring.arrival =
        sim_->ScheduleAfter(transfer, [this, ticket] { FinishSwapIn(ticket); });
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kKvSwapIn, region_, id_,
                static_cast<int64_t>(restoring.seq.req.id), tokens, 0,
                static_cast<double>(transfer));
    }
    restoring_.push_back(std::move(restoring));
  }
}

void Replica::FinishSwapIn(int64_t ticket) {
  for (auto it = restoring_.begin(); it != restoring_.end(); ++it) {
    if (it->ticket != ticket) {
      continue;
    }
    Seq seq = std::move(it->seq);
    restoring_.erase(it);
    running_.push_back(std::move(seq));
    stats_.peak_running =
        std::max(stats_.peak_running, static_cast<int>(running_.size()));
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kRestore, region_, id_,
                static_cast<int64_t>(running_.back().req.id));
    }
    MaybeStep();
    return;
  }
}

void Replica::MaybeStep() {
  if (step_in_flight_) {
    return;
  }
  Admit();
  if (running_.empty()) {
    return;
  }
  // Plan the step: chunked prefill up to the step's prefill budget, plus one
  // decode token per decode-phase seq (mixed batch, SGLang-style).
  int64_t prefill_budget = kMaxPrefillTokensPerStep;
  int64_t prefill_total = 0;
  int decode_count = 0;
  int64_t decode_context_tokens = 0;
  for (Seq& seq : running_) {
    seq.prefill_alloc = 0;
    seq.decode_alloc = false;
    if (!seq.prefill_done && prefill_budget > 0) {
      seq.prefill_alloc = std::min(seq.prefill_remaining, prefill_budget);
      prefill_budget -= seq.prefill_alloc;
      prefill_total += seq.prefill_alloc;
    } else if (seq.prefill_done && seq.generated < seq.output_len()) {
      seq.decode_alloc = true;
      ++decode_count;
      decode_context_tokens += seq.prompt_len() + seq.generated;
    }
  }
  if (prefill_total == 0 && decode_count == 0) {
    return;  // Nothing to do (all seqs stalled behind the prefill budget).
  }
  double duration_us =
      config_.step_base_us +
      static_cast<double>(prefill_total) * config_.prefill_us_per_token +
      static_cast<double>(decode_count) * config_.decode_us_per_seq +
      static_cast<double>(decode_context_tokens) * kDecodeUsPerContextToken;
  // Gray-failure knob: a straggler executes every step slower. The
  // multiplication by the default 1.0 is exact for finite doubles, so
  // unslowed replicas keep bit-identical step times.
  duration_us *= slowdown_;
  step_in_flight_ = true;
  ++stats_.engine_steps;
  sim_->ScheduleAfter(static_cast<SimDuration>(duration_us),
                      [this, duration_us, decode_count] {
                        FinishStep(duration_us, decode_count);
                      });
}

void Replica::FinishStep(double step_us, int decode_count) {
  step_in_flight_ = false;

  // Fold this step's duration into the probe-visible inter-token-latency
  // EWMA: each decoding sequence waited the whole step for its token. This
  // includes time spent on co-batched prefill chunks — that is latency the
  // decode stream really experienced — and it surfaces a straggler's
  // slowdown within a few steps, not after whole sequences complete.
  if (decode_count > 0) {
    decode_ewma_us_per_token_ =
        latency_samples_ == 0 ? step_us
                              : 0.25 * step_us + 0.75 * decode_ewma_us_per_token_;
    ++latency_samples_;
  }

  // Apply prefill progress and decode increments.
  int64_t prefill_applied = 0;
  for (Seq& seq : running_) {
    if (seq.prefill_alloc > 0) {
      seq.prefill_remaining -= seq.prefill_alloc;
      kv_.OnPrefillChunk(seq.kv, seq.prefill_alloc);
      stats_.prefill_tokens_computed += seq.prefill_alloc;
      prefill_applied += seq.prefill_alloc;
      if (Tracer* t = sim_->tracer()) {
        EmitTrace(t, sim_->now(), TraceEventType::kPrefillChunk, region_, id_,
                  static_cast<int64_t>(seq.req.id), seq.prefill_alloc,
                  seq.prefill_remaining);
      }
      seq.prefill_alloc = 0;
      if (seq.prefill_remaining == 0) {
        OnPrefillComplete(seq);
      }
    } else if (seq.decode_alloc) {
      // Only sequences the plan priced (and EWMA-sampled) decode; a swap-in
      // that joined the batch mid-step waits for the next plan.
      seq.decode_alloc = false;
      ++seq.generated;
      kv_.OnDecodeToken(seq.kv);
      ++stats_.output_tokens_generated;
    }
  }

  // Completions (collected first: CompleteSeq mutates the cache).
  std::vector<Seq> finished;
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->prefill_done && it->generated >= it->output_len()) {
      finished.push_back(std::move(*it));
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
  for (Seq& seq : finished) {
    CompleteSeq(seq);
  }

  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kEngineStep, region_, id_, -1,
              prefill_applied, decode_count, step_us);
  }

  ReclaimMemory();
  SampleMemory();
  MaybeStep();
}

void Replica::OnPrefillComplete(Seq& seq) {
  seq.prefill_done = true;
  // The final prefill chunk's forward pass produces the first output token.
  if (seq.generated == 0) {
    seq.generated = 1;
    kv_.OnDecodeToken(seq.kv);
    ++stats_.output_tokens_generated;
  }

  // Publish prompt KV to the shared cache: the new radix node takes
  // references on the very pages this sequence filled (the table is
  // path-aligned), so concurrent identical prompts share them from now
  // on. Then re-pin the full prompt and drop the sequence's claim on the
  // published span — only generated tokens remain private, and a page
  // straddling the prompt boundary stays shared between the cache's tail
  // node and this sequence (cached_len keeps the admission-time value for
  // reporting; it reflects the compute actually saved).
  cache_.Insert(seq.req.prompt, sim_->now(), &kv_.table(seq.kv), seq.kv_base);
  if (seq.pin != kInvalidPin) {
    cache_.Unref(seq.pin);
  }
  auto match = cache_.MatchAndRef(seq.req.prompt, sim_->now());
  seq.pin = match.pin;
  // The span to keep, positionally: the prompt remainder the cache does
  // not cover, plus the generated tokens actually present in the table. A
  // recompute-preemption victim re-admits with `generated == 1` but an
  // all-prompt table (its first token's KV was dropped with the rest); it
  // is re-materialized below as a fresh append at its true path position,
  // never by aliasing the prompt's tail page.
  const int64_t current = kv_.SeqTokens(seq.kv);
  const int64_t generated_in_table =
      current - (seq.prompt_len() - seq.kv_base);
  const int64_t keep =
      (seq.prompt_len() - match.cached_len) + generated_in_table;
  SKYWALKER_CHECK(keep >= 0 && keep <= current) << "publish span";
  kv_.ReleaseSeqPrefix(seq.kv, current - keep);
  seq.kv_base += current - keep;
  if (seq.generated > generated_in_table) {
    kv_.RestoreDecodedTokens(seq.kv, seq.generated - generated_in_table);
  }
  const int32_t block = config_.kv_block_size_tokens;
  if (block > 1 && seq.prompt_len() % block != 0) {
    // The page holding the prompt's last token is (typically) shared with
    // the cache now; decode may extend into its free slots without a
    // copy — the slots are disjoint from what the cache reads.
    const int64_t idx = (seq.prompt_len() - 1) / block - seq.kv_base / block;
    const BlockTable& table = kv_.table(seq.kv);
    if (idx >= 0 && idx < table.num_blocks()) {
      kv_.SetCowExempt(seq.kv, table.blocks()[static_cast<size_t>(idx)]);
    }
  }

  if (!seq.first_token_sent) {
    seq.first_token_sent = true;
    seq.decode_start = sim_->now();
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kFirstToken, region_, id_,
                static_cast<int64_t>(seq.req.id), seq.cached_len);
    }
    if (seq.handlers.on_first_token) {
      seq.handlers.on_first_token(seq.req, seq.cached_len);
    }
  }
}

void Replica::CompleteSeq(Seq& seq) {
  TokenSeq full = seq.req.prompt;
  full.insert(full.end(), seq.req.output.begin(), seq.req.output.end());
  // The generated suffix publishes the same way the prompt did: by
  // reference transfer from the sequence's path-aligned table.
  cache_.Insert(full, sim_->now(), &kv_.table(seq.kv), seq.kv_base);
  if (seq.pin != kInvalidPin) {
    cache_.Unref(seq.pin);
    seq.pin = kInvalidPin;
  }
  // Blocks and the unconsumed output reserve return here — exactly once.
  // Pages the cache took references on survive; the rest free.
  kv_.ReleaseSeq(seq.kv);
  seq.kv = KvController::kInvalidSeq;
  ++stats_.completed;
  if (Tracer* t = sim_->tracer()) {
    EmitTrace(t, sim_->now(), TraceEventType::kComplete, region_, id_,
              static_cast<int64_t>(seq.req.id),
              static_cast<int64_t>(seq.req.output_tokens()));
  }
  if (seq.handlers.on_complete) {
    seq.handlers.on_complete(seq.req, seq.cached_len);
  }
}

void Replica::ReclaimMemory() {
  int64_t over = kv_.ReclaimNeededBlocks();
  if (over <= 0) {
    return;
  }
  // Cache eviction first. Evict reports the pages that actually hit the
  // free list — a straddled page a pinned path or live sequence still
  // references frees nothing and is not counted — so the deficit carries
  // forward by subtraction; no re-read of the ledger needed.
  over -= EvictCache(over);
  // Preempt youngest running requests until we fit (never the last one —
  // progress must remain possible). The policy decides the victim's fate.
  while (over > 0 && running_.size() > 1) {
    Seq seq = std::move(running_.back());
    running_.pop_back();
    ++stats_.preemptions;
    const bool swap = config_.kv_preempt_policy == PreemptPolicy::kSwap;
    if (Tracer* t = sim_->tracer()) {
      EmitTrace(t, sim_->now(), TraceEventType::kPreempt, region_, id_,
                static_cast<int64_t>(seq.req.id), kv_.SeqTokens(seq.kv),
                swap ? 1 : 0);
    }
    if (swap) {
      // Swap-to-host: private KV crosses PCIe and comes back later without
      // recomputation. The prefix-cache pin is kept — shared blocks stay
      // device-resident (the radix tree still references them).
      SwappedSeq swapped;
      swapped.swap_tokens = kv_.SeqTokens(seq.kv);
      SimDuration transfer = kv_.SwapOut(seq.kv);
      if (Tracer* t = sim_->tracer()) {
        EmitTrace(t, sim_->now(), TraceEventType::kKvSwapOut, region_, id_,
                  static_cast<int64_t>(seq.req.id), swapped.swap_tokens, 0,
                  static_cast<double>(transfer));
      }
      seq.kv = KvController::kInvalidSeq;
      seq.prefill_alloc = 0;
      seq.decode_alloc = false;
      swapped.ready_at = sim_->now() + transfer;
      swapped.seq = std::move(seq);
      swapped_.push_back(std::move(swapped));
      // Poke the engine when the transfer completes, so a drained batch can
      // start the swap-in even with no other event pending.
      sim_->ScheduleAfter(transfer, [this] { MaybeStep(); });
    } else {
      // Recompute: restarts from scratch on re-admission; the prefix cache
      // usually makes the recomputation cheap. first_token_sent stays true
      // so the client sees no duplicate first-token callback.
      kv_.ReleaseSeq(seq.kv);
      kv_.NoteRecomputePreemption();
      seq.kv = KvController::kInvalidSeq;
      if (seq.pin != kInvalidPin) {
        cache_.Unref(seq.pin);
        seq.pin = kInvalidPin;
      }
      seq.cached_len = 0;
      seq.kv_base = 0;
      seq.prefill_remaining = seq.prompt_len();
      seq.generated = seq.first_token_sent ? 1 : 0;
      seq.prefill_done = false;
      seq.prefill_alloc = 0;
      seq.decode_alloc = false;
      pending_.push_front(std::move(seq));
    }
    over = kv_.ReclaimNeededBlocks();
  }
}

void Replica::SampleMemory() {
  kv_.NoteFragmentationSample(fragmentation_tokens());
  if (Tracer* t = sim_->tracer();
      t != nullptr && stats_.engine_steps % kMemSampleEverySteps == 0) {
    EmitTrace(t, sim_->now(), TraceEventType::kMemSample, region_, id_, -1,
              kv_.free_blocks(), running_count(), memory_utilization());
  }
}

int64_t Replica::EvictCache(int64_t blocks) {
  if (blocks <= 0) {
    return 0;
  }
  const PrefixCache::EvictionStats before = cache_.eviction_stats();
  const int64_t freed = cache_.Evict(blocks);
  if (Tracer* t = sim_->tracer()) {
    const PrefixCache::EvictionStats& after = cache_.eviction_stats();
    if (after.victims > before.victims) {
      EmitTrace(t, sim_->now(), TraceEventType::kCacheEvict, region_, id_, -1,
                after.victims - before.victims,
                after.freed_blocks - before.freed_blocks,
                static_cast<double>(
                    static_cast<int>(cache_.eviction_policy())));
    }
  }
  return freed;
}

void Replica::Crash() {
  for (Seq& seq : running_) {
    if (seq.pin != kInvalidPin) {
      cache_.Unref(seq.pin);
    }
    kv_.ReleaseSeq(seq.kv);
  }
  running_.clear();
  for (SwappedSeq& swapped : swapped_) {
    if (swapped.seq.pin != kInvalidPin) {
      cache_.Unref(swapped.seq.pin);
    }
  }
  swapped_.clear();
  for (RestoringSeq& restoring : restoring_) {
    sim_->Cancel(restoring.arrival);
    if (restoring.seq.pin != kInvalidPin) {
      cache_.Unref(restoring.seq.pin);
    }
    kv_.ReleaseSeq(restoring.seq.kv);
  }
  restoring_.clear();
  pending_.clear();
  watermark_reject_id_valid_ = false;
  cache_.Clear();
}

void Replica::Fail() {
  serving_ = false;
  Crash();
}

void Replica::Recover() { serving_ = true; }

void Replica::SetSlowdown(double factor) {
  SKYWALKER_CHECK(factor > 0.0) << "slowdown must be positive";
  slowdown_ = factor;
}

double AggregateCacheHitRate(
    const std::vector<std::unique_ptr<Replica>>& replicas) {
  int64_t hits = 0;
  int64_t lookups = 0;
  for (const auto& replica : replicas) {
    hits += replica->cache().hit_tokens();
    lookups += replica->cache().lookup_tokens();
  }
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

}  // namespace skywalker
