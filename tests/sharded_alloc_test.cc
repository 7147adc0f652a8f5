// Steady-state allocation regression test for the sharded drain path
// (ISSUE 10). Cross-shard messages ride per-(src,dst) mailbox vectors that
// DrainMailboxes empties after every window barrier; the drain must clear()
// — keeping capacity — rather than swap or shrink, or every window of a
// fleet-scale run re-allocates every active mailbox. This pins the contract:
// once mailboxes, event-queue slots, and the worker pool are warm, running
// hundreds more windows of cross-shard traffic performs ZERO heap
// allocations.
//
// Allocations are counted with the global operator new/delete replacement
// in tests/counting_new.h.

#include <gtest/gtest.h>

#include <atomic>

#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "tests/counting_new.h"

namespace skywalker {
namespace {

// Perpetual cross-region relays: every hop executes on the destination
// region's shard and immediately sends onward, so every window moves mail
// across every adjacent shard pair for as long as the clock runs. Captures
// are two pointers + two ints — inline in InlineFunction, no spill.
struct Relay {
  Network* net;
  std::atomic<long long>* hops;
  void Hop(RegionId at, int stride) {
    hops->fetch_add(1, std::memory_order_relaxed);
    const RegionId to = (at + stride) % 4;
    net->Send(at, to, [this, to, stride] { Hop(to, stride); });
  }
};

TEST(ShardedAllocTest, MultiWindowSteadyStateDoesNotAllocate) {
  ShardedSimulator sim(Topology::FourRegions(), /*num_shards=*/4,
                       /*num_threads=*/2);
  Network net(&sim);
  std::atomic<long long> hops{0};
  Relay relay{&net, &hops};

  // Several relays per region, both rotation directions: traffic on every
  // (src,dst) shard pair, multiple mails per mailbox per window.
  for (RegionId region = 0; region < 4; ++region) {
    Simulator* shard = net.SimForRegion(region);
    shard->SetCurrentRegion(region);
    for (int k = 0; k < 4; ++k) {
      shard->ScheduleAt(Milliseconds(k), [&relay, region] {
        relay.Hop(region, 1);
      });
      shard->ScheduleAt(Milliseconds(k), [&relay, region] {
        relay.Hop(region, 3);  // 3 == -1 mod 4: counter-rotation.
      });
    }
  }

  // Warm-up: spawns the worker pool, grows every mailbox and event-queue
  // slab to its high-water mark across many lookahead windows.
  sim.RunUntil(Seconds(50));
  const uint64_t warm_windows = sim.windows();
  ASSERT_GT(warm_windows, 10u);
  ASSERT_GT(hops.load(), 0);

  // Steady state: hundreds more windows of identical traffic, zero heap
  // allocations anywhere in the schedule/mailbox/drain/execute cycle.
  const long long hops_before = hops.load();
  const long long baseline = NewCount();
  sim.RunUntil(Seconds(250));
  EXPECT_EQ(NewCount() - baseline, 0)
      << "multi-window sharded steady state must not allocate";
  EXPECT_GT(sim.windows(), warm_windows + 100u);
  EXPECT_GT(hops.load(), hops_before);
}

}  // namespace
}  // namespace skywalker
