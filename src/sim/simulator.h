// Single-threaded discrete-event simulator. All actors (clients, load
// balancers, replicas, the controller) of the regions it owns share one
// Simulator instance; the simulated clock only advances between events, so
// event handlers observe a consistent "now".
//
// Event order: events are totally ordered by (time, origin region,
// per-origin sequence), where the origin is the region whose code scheduled
// the event. That order is a pure function of each region's own execution
// history, so a ShardedSimulator (ISSUE 6), which owns one Simulator per
// region group and advances them in conservative-lookahead windows, gives
// bit-identical results for any grouping of regions into shards and any
// thread count. A standalone Simulator is the one-shard case. See
// DESIGN.md §7.2.

#ifndef SKYWALKER_SIM_SIMULATOR_H_
#define SKYWALKER_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace skywalker {

class Tracer;  // src/obs/trace.h; sim/ stores only the pointer.

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `at` (clamped to now).
  // EventFn stores small lambdas inline — scheduling does not allocate.
  // The event is keyed to, and targets, the current region (the region
  // whose handler — or Start() scope — is running); CHECK-fails outside any
  // region scope.
  EventId ScheduleAt(SimTime at, EventFn fn);

  // Schedules `fn` after `delay` (clamped to zero).
  EventId ScheduleAfter(SimDuration delay, EventFn fn);

  // Cancels a pending event; false if it already fired or was cancelled.
  bool Cancel(EventId id) { return events_.Cancel(id); }

  // Runs until the event queue drains. Returns events executed.
  size_t Run();

  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline` (it never moves backwards).
  size_t RunUntil(SimTime deadline);

  // RunUntil(now + d).
  size_t RunFor(SimDuration d) { return RunUntil(now_ + d); }

  // Executes at most one event. Returns false when the queue is empty.
  bool Step();

  bool HasPendingEvents() const { return !events_.empty(); }
  size_t executed_events() const { return executed_; }

  // Timestamp of the earliest pending event, kSimTimeMax when idle. The
  // sharded round planner uses this to skip shards with nothing to run
  // inside their window (ISSUE 10).
  SimTime NextEventTime() {
    return events_.empty() ? kSimTimeMax : events_.PeekTime();
  }

  // --- region-keyed ordering ---

  // The region whose code is currently executing. Step() sets it from the
  // popped event; actor Start() methods set it while scheduling from setup
  // code. A standalone Simulator starts scoped to region 0, so
  // single-region code needs no setup; ShardedSimulator shards start
  // unscoped (kInvalidEventRegion).
  void SetCurrentRegion(EventRegion region) { current_region_ = region; }
  EventRegion current_region() const { return current_region_; }

  // Allocates the next ordering key for events originated by `origin`, a
  // global (topology) region id owned by this simulator.
  uint64_t NextOrderKey(EventRegion origin);

  // Schedules with an explicit key and target region — the injection path
  // for network sends and cross-shard mailbox drains. `at` must not lie in
  // this simulator's past (the conservative-lookahead guarantee).
  EventId ScheduleKeyedAt(SimTime at, uint64_t key, EventRegion target,
                          EventFn fn);

  // Runs all events with timestamp < `end` (one lookahead window). Does not
  // advance the clock to `end`: both RunUntil(deadline)s are
  // RunBefore(deadline + 1) rounds followed by AdvanceTo(deadline).
  size_t RunBefore(SimTime end);

  // now = max(now, t).
  void AdvanceTo(SimTime t);

  // --- observability (ISSUE 9) ---
  // Installs a request-lifecycle tracer (borrowed; may be null). Emission
  // sites do `if (Tracer* t = sim->tracer()) t->Emit(...)`, so with no
  // tracer installed — the default — tracing costs one pointer load and a
  // never-taken branch per site. The tracer is a passive record sink: it
  // never schedules events or mutates actor state, so traced runs stay
  // bit-identical to untraced runs (DESIGN.md §11). In sharded mode every
  // shard's Simulator shares one Tracer, whose per-region rings make that
  // safe (each region's events execute on exactly one shard).
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  EventQueue events_;
  SimTime now_ = 0;
  size_t executed_ = 0;
  Tracer* tracer_ = nullptr;

  EventRegion current_region_ = 0;
  // Per-origin-region sequence counters, indexed by global region id and
  // grown on first use; only regions owned by this simulator advance.
  std::vector<uint64_t> origin_seq_;
};

// Repeats a callback at a fixed interval until stopped or the owner is
// destroyed. Used for heartbeat probes and availability sync. The callback
// is an EventFn (InlineFunction), so ticking stays allocation-free for
// small captures, like every other event on the hot path.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, SimDuration interval, EventFn fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // Starts ticking; first tick after one interval (or `initial_delay`).
  void Start();
  void StartWithDelay(SimDuration initial_delay);
  void Stop();
  bool running() const { return running_; }

 private:
  void Tick();

  Simulator* sim_;
  SimDuration interval_;
  EventFn fn_;
  EventId pending_ = kInvalidEventId;
  bool running_ = false;
};

}  // namespace skywalker

#endif  // SKYWALKER_SIM_SIMULATOR_H_
