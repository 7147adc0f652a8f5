// Fixed-size KV page allocator (vLLM-style PagedAttention pool, ISSUE 4).
//
// The GPU's KV budget is carved into pages of `block_size_tokens` tokens;
// every live token of KV state — shared prefix-cache content and per-
// sequence private state alike — occupies exactly one slot of exactly one
// block. Blocks are refcounted so copy-on-write forks (shared prompt
// prefixes, beam/parallel-sampling style) map to shared references instead
// of token copies, and a freed block returns to a LIFO free list so
// steady-state churn (admit/decode/evict/preempt cycles) recycles ids
// without touching the heap (tests/kv_memory_alloc_test.cc pins this).
//
// Blocks here are *bookkeeping*, not storage — the simulator never holds
// real KV bytes — so allocation past `capacity_blocks` is permitted and
// simply drives free_blocks() negative. This mirrors the replica engine's
// semantics, where force-admission and decode growth may transiently
// overshoot the budget and the reclaim path (eviction, then preemption)
// restores the invariant after the step. Admission control is the layer
// that keeps overshoot bounded; the allocator just counts truthfully.
//
// With block_size_tokens == 1 the pool degenerates to one token per block
// and every derived quantity reduces to the seed's token-counter
// arithmetic — the coarse compatibility mode that keeps historical
// BENCH_*.json goldens byte-identical (DESIGN.md §9).

#ifndef SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_
#define SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace skywalker {

using BlockId = int32_t;
inline constexpr BlockId kInvalidBlockId = -1;

struct BlockAllocatorStats {
  int64_t allocated = 0;   // Cumulative Allocate() calls.
  int64_t freed = 0;       // Cumulative blocks returned to the free list.
  int64_t cow_copies = 0;  // Copy-on-write duplications (BlockTable).
  int64_t peak_used_blocks = 0;
};

class BlockAllocator {
 public:
  explicit BlockAllocator(int64_t capacity_blocks);

  BlockAllocator(const BlockAllocator&) = delete;
  BlockAllocator& operator=(const BlockAllocator&) = delete;

  // Returns a block with ref_count == 1. Never fails (see file comment);
  // callers gate on free_blocks() for admission decisions.
  BlockId Allocate();

  // Fills out[0..n) with fresh single-reference blocks — id-for-id the same
  // sequence n Allocate() calls would return, with the bookkeeping updated
  // once (the radix cache provisions whole node spans through this).
  void AllocateSpan(int64_t n, BlockId* out);

  // Drops one reference on each of ids[0..n) (span teardown counterpart).
  // Returns how many blocks actually became free — the figure eviction
  // accounting wants, since references shared with surviving holders free
  // nothing.
  int64_t ReleaseSpan(const BlockId* ids, int64_t n);

  // Shares an existing block with one more holder.
  void AddRef(BlockId id);

  // Drops one reference; returns true when the block became free.
  bool Release(BlockId id);

  // Pre-sizes metadata and the free list so later Allocate/Release cycles
  // below `blocks` live blocks never allocate heap memory.
  void Reserve(int64_t blocks);

  int64_t capacity_blocks() const { return capacity_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  // May be negative during transient overshoot (see file comment).
  int64_t free_blocks() const { return capacity_blocks_ - used_blocks_; }

  int32_t ref_count(BlockId id) const {
    return refs_[static_cast<size_t>(id)];
  }

  // Sum of all reference counts (each shared block counted once per holder):
  // the right-hand side of the ledger conservation invariant (cache-held +
  // sequence-held refs == live_refs). A scan, O(ids ever allocated): only
  // KvController::CheckConsistency and tests read it, never a probe or an
  // engine step.
  int64_t live_refs() const;

  const BlockAllocatorStats& stats() const { return stats_; }
  void NoteCowCopy() { ++stats_.cow_copies; }

  // Structural soundness: used_blocks matches the number of ids with a
  // positive refcount and the free list holds exactly the zero-ref ids.
  bool CheckInvariants() const;

 private:
  int64_t capacity_blocks_;
  std::vector<int32_t> refs_;       // Indexed by BlockId.
  std::vector<BlockId> free_list_;  // LIFO: deterministic, cache-friendly.
  int64_t used_blocks_ = 0;
  BlockAllocatorStats stats_;
};

// Allocate/AddRef/Release are defined inline: with block_size_tokens == 1
// the decode hot loop hits them once per generated token — tens of millions
// of calls per benchmark cell — and the out-of-line call overhead was
// measurable (ISSUE 10).
inline BlockId BlockAllocator::Allocate() {
  BlockId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<BlockId>(refs_.size());
    refs_.push_back(0);
  }
  refs_[static_cast<size_t>(id)] = 1;
  ++used_blocks_;
  ++stats_.allocated;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
  return id;
}

inline void BlockAllocator::AddRef(BlockId id) {
  SKYWALKER_CHECK(refs_[static_cast<size_t>(id)] > 0) << "addref dead block";
  ++refs_[static_cast<size_t>(id)];
}

inline bool BlockAllocator::Release(BlockId id) {
  int32_t& ref = refs_[static_cast<size_t>(id)];
  SKYWALKER_CHECK(ref > 0) << "release dead block";
  if (--ref > 0) {
    return false;
  }
  free_list_.push_back(id);
  --used_blocks_;
  ++stats_.freed;
  return true;
}

}  // namespace skywalker

#endif  // SKYWALKER_MEMORY_BLOCK_ALLOCATOR_H_
