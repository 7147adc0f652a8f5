// Steady-state allocation regression test for the event queue (ISSUE 3).
//
// The seed implementation kept std::function callbacks inside the heap
// entries: every Push allocated (std::function spill) and every heap growth
// re-moved every pending callback. The slot/generation rewrite must push and
// pop against a warm queue — even one holding a MILLION pending events —
// without a single heap allocation: slots and heap capacity are recycled,
// and small callbacks live inline in InlineFunction.
//
// Allocations are counted with the global operator new/delete replacement
// in tests/counting_new.h.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "tests/counting_new.h"

namespace skywalker {
namespace {

constexpr size_t kBacklog = 1'000'000;

// Deterministic pseudo-times: spread pushes across a wide range so heap
// sifts exercise real depths.
SimTime PseudoTime(uint64_t i) { return static_cast<SimTime>(i * 2654435761u % 100000000u); }

// Pushes with the next region-0 key, as a standalone Simulator would.
EventId Push(EventQueue& q, SimTime at, EventFn fn) {
  static uint64_t seq = 0;
  return q.Push(at, MakeOrderKey(0, ++seq), 0, std::move(fn));
}

TEST(EventQueueAllocTest, MillionEventSteadyStateDoesNotAllocate) {
  EventQueue q;
  // Warm-up: grow slots and heap capacity to the high-water mark, then
  // drain so every later phase operates strictly below it.
  for (size_t i = 0; i < kBacklog; ++i) {
    Push(q, PseudoTime(i), [] {});
  }
  ASSERT_EQ(q.size(), kBacklog);
  while (!q.empty()) {
    q.Pop();
  }

  // Phase 1: re-fill the full backlog. Every slot comes off the free list
  // and the heap vector reuses its capacity: zero allocations.
  long long baseline = NewCount();
  for (size_t i = 0; i < kBacklog; ++i) {
    Push(q, PseudoTime(i * 31 + 7), [] {});
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "Push against warm capacity must not allocate";
  ASSERT_EQ(q.size(), kBacklog);

  // Phase 2: pop/push churn at full backlog (the simulator's steady state).
  baseline = NewCount();
  SimTime now = 0;
  for (size_t i = 0; i < 200'000; ++i) {
    EventQueue::Event event = q.Pop();
    now = event.at;
    Push(q, now + static_cast<SimTime>(i % 1024) + 1, [] {});
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "steady-state pop+push must not allocate";
  ASSERT_EQ(q.size(), kBacklog);

  // Phase 3: cancellation is generation-stamped — no tombstone side sets to
  // grow, so cancel/push/pop churn is allocation-free too. Stale heap
  // entries accumulate temporarily but stay within the warm capacity.
  while (q.size() > kBacklog / 2) {
    q.Pop();
  }
  std::vector<EventId> ring(1024, kInvalidEventId);
  baseline = NewCount();
  for (size_t i = 0; i < 100'000; ++i) {
    size_t at = i % ring.size();
    if (ring[at] != kInvalidEventId) {
      q.Cancel(ring[at]);  // Often already popped; stale cancel is fine.
    }
    ring[at] = Push(q, now + static_cast<SimTime>(at) + 1, [] {});
    now = q.Pop().at;
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "cancel/push/pop churn must not allocate";
}

TEST(EventQueueAllocTest, InlineCallablesStayInline) {
  // A capture the size of a few pointers must be stored inline by
  // InlineFunction; only oversized captures may fall back to the heap.
  long long sink = 0;
  long long* sink_ptr = &sink;
  int a = 1, b = 2, c = 3, d = 4;
  EventQueue q;
  Push(q, 1, [] {});  // Warm slot + heap capacity.
  q.Pop();

  long long baseline = NewCount();
  Push(q, 2, [sink_ptr, a, b, c, d] { *sink_ptr = a + b + c + d; });
  EXPECT_EQ(NewCount() - baseline, 0);
  q.Pop().fn();
  EXPECT_EQ(sink, 10);

  // Oversized capture: documents (rather than forbids) the fallback.
  struct Big {
    char bytes[128] = {0};
  };
  Big big;
  baseline = NewCount();
  Push(q, 3, [big, sink_ptr] { *sink_ptr = big.bytes[0] + 1; });
  EXPECT_EQ(NewCount() - baseline, 1);  // Exactly one spill allocation.
  q.Pop().fn();
  EXPECT_EQ(sink, 1);
}

TEST(EventQueueAllocTest, PeriodicTaskSteadyStateTicksDoNotAllocate) {
  // PeriodicTask holds its callback as an EventFn (ISSUE 6): the stored
  // callable is *invoked* each tick, never copied, and the re-arming lambda
  // ([this]{Tick();}) fits inline — so a running heartbeat allocates
  // nothing, tick after tick.
  Simulator sim;
  long long ticks = 0;
  long long* ticks_ptr = &ticks;
  PeriodicTask task(&sim, Milliseconds(10), [ticks_ptr] { ++*ticks_ptr; });
  task.Start();
  sim.RunUntil(Milliseconds(100));  // Warm slot + heap capacity.
  long long baseline = NewCount();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(NewCount() - baseline, 0)
      << "steady-state periodic ticks must not allocate";
  task.Stop();
  EXPECT_GE(ticks, 990);
}

TEST(EventQueueAllocTest, HeapSiftingNeverTouchesCallbacks) {
  // Regression for the seed bug: callbacks lived inside the heap entries, so
  // every sift-down during Pop moved ~log2(n) std::functions (and every heap
  // growth re-moved all of them). Callbacks now live in slots the heap only
  // references, so draining the queue moves each callable a constant number
  // of times (slot -> Event), not O(log n).
  static int moves = 0;
  struct CountsMoves {
    CountsMoves() = default;
    CountsMoves(CountsMoves&&) noexcept { ++moves; }
    CountsMoves(const CountsMoves&) = delete;
    void operator()() const {}
  };

  EventQueue q;
  constexpr int kEvents = 100'000;  // log2 ≈ 17: sifting would dominate.
  for (int i = 0; i < kEvents; ++i) {
    Push(q, PseudoTime(static_cast<uint64_t>(i)), CountsMoves());
  }
  moves = 0;
  int popped = 0;
  while (!q.empty()) {
    q.Pop().fn();
    ++popped;
  }
  EXPECT_EQ(popped, kEvents);
  // Exactly one move out of the slot per pop (plus returned-Event handling);
  // the seed layout would register ~17 per pop here.
  EXPECT_LE(moves, kEvents * 3);
}

}  // namespace
}  // namespace skywalker
