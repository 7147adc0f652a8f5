// Priority event queue for the discrete-event simulator.
//
// Events are totally ordered by (time, key), where the caller-supplied key
// (see MakeOrderKey) orders equal-time events by origin region and then by
// per-origin scheduling order, which makes runs deterministic.
//
// Layout (ISSUE 3): the binary heap holds 24-byte POD entries
// {time, key, slot, generation} — sift operations are memcpy-speed — while
// the callback lives in a slot slab addressed by index. Cancellation is
// zero-tombstone: Cancel bumps the slot's generation and recycles it, and
// Pop/PeekTime discard heap entries whose generation no longer matches (the
// stale entry is the only residue, and it is dropped the moment it reaches
// the heap top — there is no side set to maintain). Callbacks are
// InlineFunction, so neither Push nor Pop allocates in steady state: slots
// come from a free list, the heap vector reuses its capacity, and small
// lambdas are stored in place.

#ifndef SKYWALKER_SIM_EVENT_QUEUE_H_
#define SKYWALKER_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/common/gen_slot_pool.h"
#include "src/common/inline_function.h"
#include "src/common/sim_time.h"

namespace skywalker {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Matches RegionId in src/net/topology.h. Spelled as the underlying type
// here so sim/ stays independent of net/ (net/ layers on top of sim/).
using EventRegion = int32_t;
inline constexpr EventRegion kInvalidEventRegion = -1;

// Scheduled-callback type. Small captures are stored inline (no heap);
// oversized functors transparently fall back to one allocation.
using EventFn = InlineFunction;

// Deterministic ordering key (ISSUE 6): packs (origin region,
// per-origin sequence) so that plain uint64 comparison orders equal-time
// events by origin region first, then by per-origin scheduling order. The
// key is a pure function of the origin region's own execution history, so
// the resulting (time, key) total order is independent of how regions are
// grouped into shards and of thread count.
inline constexpr int kOrderKeySeqBits = 40;
inline constexpr uint64_t MakeOrderKey(EventRegion origin, uint64_t seq) {
  return (static_cast<uint64_t>(origin + 1) << kOrderKeySeqBits) | seq;
}

class EventQueue {
 public:
  // Enqueues `fn` to run at absolute time `at`. The caller supplies the
  // 64-bit tie-break key (see MakeOrderKey; keys must be unique) and the
  // region the event targets, which Pop() surfaces so the simulator can
  // scope the handler to its region. Returns a handle usable with Cancel().
  EventId Push(SimTime at, uint64_t key, EventRegion target, EventFn fn);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or never existed.
  bool Cancel(EventId id);

  bool empty() const { return slots_.live() == 0; }
  size_t size() const { return slots_.live(); }

  // Timestamp of the earliest live event. Requires !empty(). Inline: the
  // sharded round loop peeks once per shard per round and the simulator
  // once per executed event (ISSUE 10).
  SimTime PeekTime() {
    SkipStale();
    assert(!heap_.empty());
    return heap_.front().at;
  }

  // Pops the earliest live event. Requires !empty(). `target` is the region
  // given to Push.
  struct Event {
    SimTime at;
    EventId id;
    EventFn fn;
    EventRegion target = kInvalidEventRegion;
  };
  Event Pop();

 private:
  // Slot payload: the callback plus the event's target region.
  struct Payload {
    EventFn fn;
    EventRegion target = kInvalidEventRegion;
  };
  // Trivially copyable heap entry; the heap never touches callbacks, which
  // live in the generation-stamped slot pool (releasing a slot invalidates
  // both the outstanding EventId and any stale heap entry in one store).
  struct Entry {
    SimTime at;
    uint64_t key;  // Tie-break at equal times (MakeOrderKey).
    uint32_t slot;
    uint32_t gen;
  };

  bool IsLive(const Entry& entry) const {
    return slots_.gen(entry.slot) == entry.gen;
  }

  // 4-ary min-heap on (at, key): half the sift depth of a binary heap, and
  // the four children of a node share two cache lines. (at, key) is a strict
  // total order — keys are unique — so pop order is independent of heap
  // arity.
  static bool Before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.key < b.key;
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopHeapTop();

  // Drops stale (cancelled) entries from the heap top. Inline because the
  // common case — a live front — is a single generation compare.
  void SkipStale() {
    while (!heap_.empty() && !IsLive(heap_.front())) {
      PopHeapTop();
    }
  }

  void ReleaseSlot(uint32_t slot);

  std::vector<Entry> heap_;
  GenSlotPool<Payload> slots_;
};

}  // namespace skywalker

#endif  // SKYWALKER_SIM_EVENT_QUEUE_H_
