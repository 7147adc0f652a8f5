// Steady-state allocation regression test for the paged KV subsystem
// (ISSUE 4), in the mold of tests/event_queue_alloc_test.cc (PR 3).
//
// The block free list, sequence-slot free list, and block-table vectors all
// recycle: once warmed to a high-water mark, admit/prefill/decode/release
// churn must not touch the heap. Allocations are
// counted with the global operator new/delete replacement in
// tests/counting_new.h.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/cache/prefix_cache.h"
#include "src/memory/block_allocator.h"
#include "src/memory/block_table.h"
#include "src/memory/kv_controller.h"
#include "tests/counting_new.h"

namespace skywalker {
namespace {

TEST(KvMemoryAllocTest, BlockFreeListSteadyStateDoesNotAllocate) {
  constexpr int32_t kBs = 16;
  constexpr int64_t kBlocks = 1 << 16;
  BlockAllocator alloc(kBlocks);
  alloc.Reserve(kBlocks);

  // Warm-up: grow a table to the high-water mark, then drain — every id is
  // now on the free list and both vectors hold their capacity.
  BlockTable warm;
  warm.Append(alloc, kBs, (kBlocks - 16) * kBs);
  warm.Clear(alloc);

  // Phase 1: refill the full backlog off the free list: zero allocations.
  long long baseline = NewCount();
  warm.Append(alloc, kBs, (kBlocks - 16) * kBs);
  EXPECT_EQ(NewCount() - baseline, 0)
      << "append against warm capacity must not allocate";
  warm.Clear(alloc);

  // Phase 2: append/truncate churn at varying granularity (the replica's
  // decode/evict steady state).
  baseline = NewCount();
  for (int64_t i = 0; i < 200'000; ++i) {
    warm.Append(alloc, kBs, 7 + (i & 63));
    if (warm.num_tokens() > 10'000 * kBs) {
      warm.Truncate(alloc, kBs, warm.num_tokens() / 2);
    }
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "steady-state append/truncate churn must not allocate";
  warm.Clear(alloc);
}

TEST(KvMemoryAllocTest, ControllerSeqChurnDoesNotAllocateWhenWarm) {
  KvConfig config;
  config.capacity_tokens = 1 << 20;
  config.block_size_tokens = 16;
  KvController kv(config);
  kv.Reserve(128, 1 << 16);

  // Warm: drive every slot and table to the high-water mark once.
  std::vector<KvController::SeqId> ids;
  for (int i = 0; i < 128; ++i) {
    ids.push_back(kv.AdmitSeq(1024, 128));
    kv.OnPrefillChunk(ids.back(), 1024);
    for (int d = 0; d < 128; ++d) {
      kv.OnDecodeToken(ids.back());
    }
  }
  for (KvController::SeqId id : ids) {
    kv.ReleaseSeq(id);
  }
  ids.clear();

  // Steady state: the same admit/prefill/decode/publish/release pattern
  // must come entirely off the free lists (ReleaseSeqPrefix is the
  // publish-time front drop of the unified ledger).
  long long baseline = NewCount();
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 128; ++i) {
      ids.push_back(kv.AdmitSeq(1024, 128, /*skew=*/round & 7));
    }
    for (KvController::SeqId id : ids) {
      kv.OnPrefillChunk(id, 1024);
      for (int d = 0; d < 16; ++d) {
        kv.OnDecodeToken(id);
      }
      kv.ReleaseSeqPrefix(id, 1024);
    }
    for (KvController::SeqId id : ids) {
      kv.ReleaseSeq(id);
    }
    ids.clear();
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "controller sequence churn must not allocate at steady state";
  EXPECT_TRUE(kv.CheckConsistency());
}

TEST(KvMemoryAllocTest, BlockNativeEvictionSteadyStateDoesNotAllocate) {
  // The ISSUE 5 eviction path: LRU leaf scans, page-span release, and
  // publish/re-insert churn against a shared allocator must recycle nodes,
  // token chunks, page-span chunks, and pages without touching the heap
  // once warm.
  constexpr int32_t kBs = 16;
  BlockAllocator alloc(1 << 16);
  alloc.Reserve(1 << 16);
  PrefixCache cache(1 << 20, &alloc, kBs);  // Capacity: never auto-evicts.

  // Shared prefix with unaligned length (straddled pages at the branch
  // point) plus a fixed cycle of divergent suffixes.
  std::vector<TokenSeq> seqs;
  for (int k = 0; k < 32; ++k) {
    TokenSeq seq;
    for (Token t = 0; t < 517; ++t) {
      seq.push_back(t);
    }
    for (Token t = 0; t < 100 + k; ++t) {
      seq.push_back(10'000 + k * 1'000 + t);
    }
    seqs.push_back(std::move(seq));
  }

  SimTime now = 0;
  auto churn = [&] {
    for (const TokenSeq& seq : seqs) {
      auto ref = cache.MatchAndRef(seq, ++now);
      cache.Insert(seq, ++now);
      cache.Unref(ref.pin);
    }
    cache.Evict(std::numeric_limits<int64_t>::max());
  };
  // Warm-up: node slab, token/page-span chunk pools, pin slots, child-map
  // spill capacities, and the pool free lists must all reach their
  // high-water marks. The page-span pool is the slow one: spans are a few
  // entries each, so its first 16K-entry chunk only seals (forcing the
  // second, steady-state chunk into existence) after ~55 cycles.
  for (int i = 0; i < 80; ++i) {
    churn();
  }

  long long baseline = NewCount();
  for (int round = 0; round < 200; ++round) {
    churn();
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "block-native eviction churn must not allocate at steady state";
  EXPECT_EQ(alloc.used_blocks(), 0);
  EXPECT_TRUE(cache.CheckInvariants());
}

}  // namespace
}  // namespace skywalker
