#include "src/net/network.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

Network::Network(Simulator* sim, Topology topology)
    : sim_(sim), topology_(std::move(topology)), counters_(1) {}

Network::Network(ShardedSimulator* sharded)
    : sharded_(sharded),
      topology_(sharded->topology()),
      counters_(static_cast<size_t>(sharded->num_shards())) {}

void Network::Send(RegionId from, RegionId to, EventFn deliver) {
  SendBatch(from, to, 1, std::move(deliver));
}

void Network::SendBatch(RegionId from, RegionId to, int count,
                        EventFn deliver) {
  SKYWALKER_CHECK(count >= 1);
  ShardCounters& counters = counters_[static_cast<size_t>(ShardOf(from))];
  counters.messages_sent += static_cast<uint64_t>(count);
  if (from != to) {
    counters.cross_region += static_cast<uint64_t>(count);
  }
  Deliver(from, to, topology_.Latency(from, to), std::move(deliver));
}

void Network::Deliver(RegionId from, RegionId to, SimDuration delay,
                      EventFn fn) {
  delay = std::max<SimDuration>(delay, 0);
  Simulator* sender = SimForRegion(from);
  const SimTime at = sender->now() + delay;
  const uint64_t key = sender->NextOrderKey(from);
  const int from_shard = ShardOf(from);
  if (ShardOf(to) == from_shard) {
    sender->ScheduleKeyedAt(at, key, to, std::move(fn));
  } else {
    SKYWALKER_CHECK(delay >= topology_.Latency(from, to))
        << "cross-shard Deliver below the link latency";
    sharded_->PostCrossShard(from_shard, at, key, to, std::move(fn));
  }
}

uint64_t Network::messages_sent() const {
  uint64_t total = 0;
  for (const ShardCounters& c : counters_) {
    total += c.messages_sent;
  }
  return total;
}

uint64_t Network::cross_region_messages() const {
  uint64_t total = 0;
  for (const ShardCounters& c : counters_) {
    total += c.cross_region;
  }
  return total;
}

}  // namespace skywalker
