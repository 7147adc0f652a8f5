// Message-level network model over the discrete-event simulator.
//
// A "send" schedules a delivery closure at the destination after the one-way
// topology latency. Higher layers pass lambdas rather than serialized
// payloads — standard practice for discrete-event simulation, and it keeps
// the routing logic identical to what a real RPC layer would invoke on
// receipt. Deliveries are EventFn (small-buffer callables), so a message
// whose captures fit inline reaches the event queue without any heap
// allocation.
//
// Every delivery is keyed from the *sender* region's sequence (see
// Simulator), so the destination's execution order is independent of how
// regions are grouped into simulators. Constructed over a ShardedSimulator
// (ISSUE 6), the network is the sole cross-region channel: a send executes
// on the sender region's shard; same-shard deliveries go straight into that
// shard's queue, cross-shard deliveries into the (src, dst) mailbox drained
// at the next window barrier. Constructed over one Simulator, every region
// is on that simulator, the one-shard case.

#ifndef SKYWALKER_NET_NETWORK_H_
#define SKYWALKER_NET_NETWORK_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"

namespace skywalker {

class Network {
 public:
  Network(Simulator* sim, Topology topology);

  // Sharded mode: topology comes from the sharded simulator.
  explicit Network(ShardedSimulator* sharded);

  // Delivers `deliver` at the destination after Latency(from, to).
  void Send(RegionId from, RegionId to, EventFn deliver);

  // Coalesced fan-out (ISSUE 10): one event standing in for `count`
  // logical messages from `from` to `to`. Message counters advance by
  // `count` — accounting parity with per-message sends — but only one
  // delivery closure is scheduled, at Latency(from, to). The caller must
  // make the closure perform the per-message work in the order
  // back-to-back individual sends would have (see
  // DispatchEngine::ProbeAll).
  void SendBatch(RegionId from, RegionId to, int count, EventFn deliver);

  // Delivers `fn` in region `to` after an explicit `delay`, charged to no
  // message counter: the response leg of an exchange whose latency the
  // caller already computed (e.g. streaming token callbacks). Cross-shard
  // delays must be >= Latency(from, to) or the lookahead contract is
  // violated (CHECKed here and at the window barrier). The dispatch
  // engine's relayed response leg, Deliver(lb, client, remainder), meets
  // this for a forwarded-in request (remainder = Latency(lb, origin) +
  // Latency(origin, client)) only if the topology obeys the triangle
  // inequality; FourRegions and ThreeContinents do (net_test).
  void Deliver(RegionId from, RegionId to, SimDuration delay, EventFn fn);

  // One-way latency.
  SimDuration Latency(RegionId from, RegionId to) const {
    return topology_.Latency(from, to);
  }

  // The shard-local simulator owning `region` (over one Simulator: that
  // simulator). Actor construction and "what time is it here?" reads must
  // use this, never another region's clock.
  Simulator* SimForRegion(RegionId region) const {
    return sharded_ ? sharded_->SimForRegion(region) : sim_;
  }

  const Topology& topology() const { return topology_; }

  // Total messages sent (probing-overhead accounting in benches). Counters
  // are sharded by sender shard and summed here; read after RunUntil
  // returns (mid-run reads from another thread would race).
  uint64_t messages_sent() const;
  // Messages whose source and destination regions differ.
  uint64_t cross_region_messages() const;

 private:
  // Per-shard message counters: each is written only by the thread running
  // its shard, on its own cache line, so counting stays synchronization-free
  // under parallel windows.
  struct alignas(64) ShardCounters {
    uint64_t messages_sent = 0;
    uint64_t cross_region = 0;
  };

  // Shard of `region`; 0 over one Simulator.
  int ShardOf(RegionId region) const {
    return sharded_ ? sharded_->ShardOf(region) : 0;
  }

  Simulator* sim_ = nullptr;  // Set iff constructed over one Simulator.
  ShardedSimulator* sharded_ = nullptr;
  Topology topology_;
  std::vector<ShardCounters> counters_;
};

}  // namespace skywalker

#endif  // SKYWALKER_NET_NETWORK_H_
