#include "src/sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardedSimulator::ShardedSimulator(const Topology& topology, int num_shards,
                                   int num_threads)
    : topology_(topology) {
  SKYWALKER_CHECK(num_shards >= 1);
  SKYWALKER_CHECK(topology_.num_regions() >= 1);
  num_shards = std::min<int>(num_shards,
                             static_cast<int>(topology_.num_regions()));
  num_threads_ = num_threads <= 0 ? num_shards : std::min(num_threads,
                                                          num_shards);

  shard_of_region_.resize(topology_.num_regions());
  for (size_t r = 0; r < topology_.num_regions(); ++r) {
    shard_of_region_[r] = static_cast<int>(r) % num_shards;
  }
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
    // Unscoped: setup code must name the region it schedules for.
    shards_.back()->SetCurrentRegion(kInvalidEventRegion);
  }
  mailboxes_.resize(static_cast<size_t>(num_shards) *
                    static_cast<size_t>(num_shards));
  busy_seconds_.assign(static_cast<size_t>(num_shards), 0.0);
  mailbox_in_.assign(static_cast<size_t>(num_shards), 0);
  frontier_.assign(static_cast<size_t>(num_shards), 0);
  target_.assign(static_cast<size_t>(num_shards), 0);
  active_.assign(static_cast<size_t>(num_shards), 0);

  // Per-pair lookahead: for each ordered shard pair (src, dst), the min
  // src->dst one-way latency over region pairs straddling them.
  pair_lookahead_.assign(static_cast<size_t>(num_shards) *
                             static_cast<size_t>(num_shards),
                         kSimTimeMax);
  const RegionId n = static_cast<RegionId>(topology_.num_regions());
  for (RegionId a = 0; a < n; ++a) {
    for (RegionId b = 0; b < n; ++b) {
      if (ShardOf(a) == ShardOf(b)) {
        continue;
      }
      SimDuration& slot =
          pair_lookahead_[static_cast<size_t>(ShardOf(a)) *
                              static_cast<size_t>(num_shards) +
                          static_cast<size_t>(ShardOf(b))];
      slot = std::min(slot, topology_.Latency(a, b));
      SKYWALKER_CHECK(slot >= 1)
          << "cross-shard latency too small for a lookahead window";
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      quit_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& worker : pool_) {
      worker.join();
    }
  }
}

void ShardedSimulator::PostCrossShard(int from_shard, SimTime at, uint64_t key,
                                      RegionId target, EventFn fn) {
  Mailbox(from_shard, ShardOf(target))
      .push_back(Mail{at, key, target, std::move(fn)});
}

void ShardedSimulator::DrainMailboxes() {
  const int S = num_shards();
  for (int dst = 0; dst < S; ++dst) {
    Simulator* sim = shard(dst);
    const SimTime window_end = target_[static_cast<size_t>(dst)];
    for (int src = 0; src < S; ++src) {
      std::vector<Mail>& box = Mailbox(src, dst);
      if (box.empty()) {
        continue;
      }
      for (Mail& mail : box) {
        // The per-pair lookahead contract: target_[dst] <= frontier_[src] +
        // PairLookahead(src, dst) for every src, and anything src sent this
        // round left at or after frontier_[src] with at least the
        // discounted pair latency in flight.
        SKYWALKER_CHECK(mail.at >= window_end)
            << "cross-shard message violates the lookahead bound";
        sim->ScheduleKeyedAt(mail.at, mail.key, mail.target,
                             std::move(mail.fn));
      }
      mailbox_in_[static_cast<size_t>(dst)] += box.size();
      // clear() keeps capacity, so steady-state drains never allocate.
      box.clear();
    }
  }
}

size_t ShardedSimulator::RunUntil(SimTime deadline) {
  const size_t before = executed_events();
  RunRounds(deadline);
  for (auto& sim : shards_) {
    sim->AdvanceTo(deadline);
  }
  return executed_events() - before;
}

void ShardedSimulator::RunRounds(SimTime deadline) {
  const int S = num_shards();
  // SimTime is integral, so events with at <= deadline are exactly those
  // with at < deadline + 1 — the final (possibly partial) round.
  const SimTime stop = deadline + 1;
  for (;;) {
    SimTime low = stop;
    for (int s = 0; s < S; ++s) {
      low = std::min(low, frontier_[static_cast<size_t>(s)]);
    }
    if (low >= stop) {
      break;  // Every shard has covered [0, deadline].
    }

    // Each shard advances to the min over its incoming edges. Targets are
    // monotone (minima over frontiers that only grow) and the least
    // frontier gains at least min PairLookahead per round, so the loop
    // terminates.
    int active = 0;
    for (int dst = 0; dst < S; ++dst) {
      SimTime target = stop;
      for (int src = 0; src < S; ++src) {
        if (src == dst) {
          continue;
        }
        target = std::min(target, frontier_[static_cast<size_t>(src)] +
                                      PairLookahead(src, dst));
      }
      SKYWALKER_CHECK(target >= frontier_[static_cast<size_t>(dst)]);
      target_[static_cast<size_t>(dst)] = target;
      const bool busy =
          shards_[static_cast<size_t>(dst)]->NextEventTime() < target;
      active_[static_cast<size_t>(dst)] = busy ? 1 : 0;
      active += busy ? 1 : 0;
    }

    if (active == 0) {
      // Pure frontier bookkeeping: nothing to run, nothing to drain (mail
      // only appears while a shard executes).
      frontier_ = target_;
      continue;
    }

    const auto w0 = std::chrono::steady_clock::now();
    if (active == 1 || num_threads_ <= 1) {
      // A lone busy shard (or serial mode) runs on the coordinator alone:
      // no handshake, no wakeup. The pool — if spawned — is parked on
      // start_cv_, so the coordinator may touch every shard freely.
      RunShards(0, 1);
    } else {
      EnsurePool();
      // target_ / active_ writes above happen-before the epoch bump under
      // pool_mu_, which workers acquire before reading them.
      {
        std::lock_guard<std::mutex> lock(pool_mu_);
        done_ = 0;
        ++epoch_;
      }
      start_cv_.notify_all();
      // The coordinator is worker 0: it runs its own shards, then waits
      // only for the workers still busy.
      RunShards(0, num_threads_);
      std::unique_lock<std::mutex> lock(pool_mu_);
      done_cv_.wait(lock, [this] { return done_ == num_threads_ - 1; });
    }
    parallel_seconds_ += SecondsSince(w0);
    ++windows_;
    // Mailboxes were written under the round and are read here after the
    // barrier handshake (mutex-ordered), so the drain needs no extra locks.
    DrainMailboxes();
    frontier_ = target_;
  }
}

void ShardedSimulator::RunShards(int first, int stride) {
  for (int s = first; s < num_shards(); s += stride) {
    if (!active_[static_cast<size_t>(s)]) {
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    shards_[static_cast<size_t>(s)]->RunBefore(
        target_[static_cast<size_t>(s)]);
    busy_seconds_[static_cast<size_t>(s)] += SecondsSince(t0);
  }
}

void ShardedSimulator::EnsurePool() {
  if (!pool_.empty()) {
    return;
  }
  const int W = num_threads_;
  pool_.reserve(static_cast<size_t>(W - 1));
  for (int w = 1; w < W; ++w) {
    pool_.emplace_back([this, w, W] {
      uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(pool_mu_);
          start_cv_.wait(lock,
                         [this, seen] { return quit_ || epoch_ > seen; });
          if (quit_) {
            return;
          }
          seen = epoch_;
        }
        RunShards(w, W);
        {
          std::lock_guard<std::mutex> lock(pool_mu_);
          if (++done_ == W - 1) {
            done_cv_.notify_one();
          }
        }
      }
    });
  }
}

size_t ShardedSimulator::executed_events() const {
  size_t total = 0;
  for (const auto& sim : shards_) {
    total += sim->executed_events();
  }
  return total;
}

std::vector<ShardedSimulator::ShardTiming> ShardedSimulator::Timing() const {
  std::vector<ShardTiming> out(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    out[s].busy_seconds = busy_seconds_[s];
    out[s].barrier_seconds = std::max(0.0, parallel_seconds_ -
                                               busy_seconds_[s]);
    out[s].executed_events = shards_[s]->executed_events();
    out[s].mailbox_in = mailbox_in_[s];
  }
  return out;
}

}  // namespace skywalker
