// Property tests for the replica engine: conservation (every enqueued
// request completes exactly once, first-token precedes completion), memory
// boundedness, and cache-accounting invariants, swept across engine
// configurations (coarse and paged KV, both preemption policies) and
// workload shapes with parameterized gtest. The probe's O(1) page
// occupancy is checked against a full traversal after every event, and in
// paged configs so are block-ledger conservation and KvController
// consistency.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "src/common/rng.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

struct SweepConfig {
  int64_t kv_capacity;
  int max_running;
  // Upper bound on the fresh prompt tokens each request appends; above
  // kMaxPrefillTokensPerStep, prompts prefill over several steps.
  int64_t max_fresh_tokens;
  double share_probability;  // Chance a request reuses another's prefix.
  int32_t block_size = 1;     // 1 = coarse KV; > 1 = paged.
  int64_t watermark_blocks = 0;
  PreemptPolicy preempt = PreemptPolicy::kRecompute;
  // 0 admits decodes without headroom, so memory runs out mid-decode and
  // every seed preempts (asserted).
  int64_t output_reserve = 128;
};

class ReplicaSweepTest
    : public ::testing::TestWithParam<std::tuple<SweepConfig, uint64_t>> {};

TEST_P(ReplicaSweepTest, ConservationAndInvariants) {
  auto [sweep, seed] = GetParam();
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = sweep.kv_capacity;
  config.max_running_requests = sweep.max_running;
  config.kv_block_size_tokens = sweep.block_size;
  config.kv_watermark_blocks = sweep.watermark_blocks;
  config.kv_preempt_policy = sweep.preempt;
  config.output_reserve_tokens = sweep.output_reserve;
  Replica replica(&sim, 0, 0, config);

  Rng rng(seed);
  const int kRequests = 60;
  std::map<RequestId, SimTime> first_token;
  std::map<RequestId, SimTime> completed;
  std::vector<TokenSeq> prior_prompts;

  Token fresh = 1;
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.id = static_cast<RequestId>(i + 1);
    req.client_region = 0;
    if (!prior_prompts.empty() && rng.Bernoulli(sweep.share_probability)) {
      // Extend a previous request's prompt (conversation-style reuse).
      const TokenSeq& base = prior_prompts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(prior_prompts.size()) - 1))];
      req.prompt = base;
    }
    int64_t extra = rng.UniformInt(8, sweep.max_fresh_tokens);
    for (int64_t k = 0; k < extra; ++k) {
      req.prompt.push_back(fresh++);
    }
    int64_t out = rng.UniformInt(1, 120);
    for (int64_t k = 0; k < out; ++k) {
      req.output.push_back(fresh++);
    }
    prior_prompts.push_back(req.prompt);

    Replica::Handlers handlers;
    handlers.on_first_token = [&first_token, &sim](const Request& r,
                                                   int64_t cached) {
      // Exactly one first token per request.
      ASSERT_EQ(first_token.count(r.id), 0u);
      first_token[r.id] = sim.now();
      ASSERT_GE(cached, 0);
      ASSERT_LT(cached, r.prompt_tokens());
    };
    handlers.on_complete = [&completed, &sim](const Request& r,
                                              int64_t /*cached*/) {
      ASSERT_EQ(completed.count(r.id), 0u);
      completed[r.id] = sim.now();
    };
    // Staggered arrivals keep the pending queue exercised.
    sim.ScheduleAfter(static_cast<SimDuration>(rng.Exponential(1.0) * 3e5),
                      [&replica, req = std::move(req),
                       handlers = std::move(handlers)]() mutable {
                        replica.Enqueue(std::move(req), std::move(handlers));
                      });
  }
  // The occupancy a probe reports is exact at every event, not only at the
  // end: publishes, shared boundary pages, splits, pins, evictions and
  // preemptions all land between probes.
  while (sim.Step()) {
    const Replica::LoadSnapshot snap = replica.Snapshot();
    const PrefixCache::BlockOccupancy truth =
        replica.cache().CountBlocksByTraversal();
    ASSERT_EQ(snap.cache_blocks, truth.held_blocks) << "at " << sim.now();
    ASSERT_EQ(snap.evictable_blocks, truth.evictable_blocks)
        << "at " << sim.now();
    if (sweep.block_size > 1) {
      // Ledger conservation in a real engine run: every allocator
      // reference belongs to a cache node or a sequence table.
      ASSERT_EQ(replica.cache().block_refs() + replica.kv().seq_block_refs(),
                replica.kv().allocator().live_refs())
          << "at " << sim.now();
      ASSERT_TRUE(replica.kv().CheckConsistency()) << "at " << sim.now();
    }
  }

  // Conservation: everything completes exactly once, in order.
  EXPECT_EQ(completed.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(first_token.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, done] : completed) {
    ASSERT_TRUE(first_token.count(id));
    EXPECT_LE(first_token[id], done);
  }
  EXPECT_EQ(replica.stats().completed, kRequests);
  EXPECT_EQ(replica.stats().enqueued, kRequests);
  EXPECT_EQ(replica.pending_count(), 0);
  EXPECT_EQ(replica.running_count(), 0);

  // Memory: nothing pinned remains; cache within capacity; structure sound.
  EXPECT_EQ(replica.cache().active_pins(), 0u);
  if (sweep.output_reserve == 0) {
    const KvCounters& kv = replica.kv().counters();
    EXPECT_GT(sweep.preempt == PreemptPolicy::kSwap ? kv.preempt_swap
                                                     : kv.preempt_recompute,
              0);
  }
  EXPECT_LE(replica.cache().size_tokens(), config.kv_capacity_tokens);
  EXPECT_TRUE(replica.cache().CheckInvariants());

  // Work accounting: computed + reused covers every prompt token at least
  // once (preemption may recompute, so >= rather than ==).
  int64_t total_prompt = 0;
  for (const TokenSeq& p : prior_prompts) {
    total_prompt += static_cast<int64_t>(p.size());
  }
  EXPECT_GE(replica.stats().prefill_tokens_computed +
                replica.stats().cached_tokens_reused,
            total_prompt);
  EXPECT_GE(replica.stats().output_tokens_generated, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicaSweepTest,
    ::testing::Combine(
        ::testing::Values(
            SweepConfig{49152, 64, 400, 0.5},    // Default L4.
            SweepConfig{4096, 64, 400, 0.5},     // Memory-starved.
            SweepConfig{49152, 4, 400, 0.5},     // Slot-starved.
            SweepConfig{49152, 16, 3000, 0.8},   // Multi-chunk, heavy reuse.
            SweepConfig{8192, 16, 400, 0.0},     // No sharing at all.
            // Paged, memory-starved: watermark, eviction, preemption under
            // both policies, shared boundary pages.
            SweepConfig{1536, 64, 400, 0.5, 16, 8, PreemptPolicy::kSwap, 0},
            SweepConfig{1536, 64, 400, 0.5, 16, 8, PreemptPolicy::kRecompute,
                        0},
            SweepConfig{6144, 16, 3000, 0.8, 16, 4, PreemptPolicy::kSwap}),
        ::testing::Values(1u, 2u, 3u)));

TEST(ReplicaEdgeCaseTest, SingleTokenOutput) {
  Simulator sim;
  Replica replica(&sim, 0, 0, ReplicaConfig{});
  int completed = 0;
  Request req;
  req.id = 1;
  req.prompt = {1, 2, 3};
  req.output = {4};
  Replica::Handlers handlers;
  handlers.on_complete = [&](const Request&, int64_t) { ++completed; };
  replica.Enqueue(std::move(req), std::move(handlers));
  sim.Run();
  EXPECT_EQ(completed, 1);
}

TEST(ReplicaEdgeCaseTest, PromptLargerThanPrefillChunk) {
  Simulator sim;
  const ReplicaConfig config;
  Replica replica(&sim, 0, 0, config);
  SimTime first = -1;
  Request req;
  const int64_t kPromptTokens = 4 * kMaxPrefillTokensPerStep;
  for (Token t = 0; t < kPromptTokens; ++t) {
    req.prompt.push_back(t);
  }
  req.output = {5000, 5001};
  req.id = 1;
  Replica::Handlers handlers;
  handlers.on_first_token = [&](const Request&, int64_t) { first = sim.now(); };
  replica.Enqueue(std::move(req), std::move(handlers));
  sim.Run();
  // Four full chunks: the prompt's prefill pays four step bases, not one.
  const double prefill_us =
      static_cast<double>(kPromptTokens) * config.prefill_us_per_token;
  EXPECT_GE(first, static_cast<SimTime>(4 * config.step_base_us + prefill_us));
}

TEST(ReplicaEdgeCaseTest, HugePromptForceAdmitted) {
  // A prompt larger than KV capacity must still make progress (force-admit
  // with transient overshoot) rather than deadlock.
  Simulator sim;
  ReplicaConfig config;
  config.kv_capacity_tokens = 512;
  Replica replica(&sim, 0, 0, config);
  int completed = 0;
  Request req;
  for (Token t = 0; t < 2000; ++t) {
    req.prompt.push_back(t);
  }
  req.output = {9000};
  req.id = 1;
  Replica::Handlers handlers;
  handlers.on_complete = [&](const Request&, int64_t) { ++completed; };
  replica.Enqueue(std::move(req), std::move(handlers));
  sim.Run();
  EXPECT_EQ(completed, 1);
}

}  // namespace
}  // namespace skywalker
