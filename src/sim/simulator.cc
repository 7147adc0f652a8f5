#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

EventId Simulator::ScheduleAt(SimTime at, EventFn fn) {
  // Self-scheduling: the event both originates from and targets the region
  // whose code is running (handlers re-arming themselves, think timers,
  // probe loops). Cross-region scheduling goes through Network::Send /
  // Network::Deliver.
  SKYWALKER_CHECK(current_region_ != kInvalidEventRegion)
      << "scheduling outside any region scope";
  return events_.Push(std::max(at, now_), NextOrderKey(current_region_),
                      current_region_, std::move(fn));
}

EventId Simulator::ScheduleAfter(SimDuration delay, EventFn fn) {
  return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

uint64_t Simulator::NextOrderKey(EventRegion origin) {
  SKYWALKER_CHECK(origin >= 0) << "origin region out of range";
  const size_t index = static_cast<size_t>(origin);
  if (index >= origin_seq_.size()) {
    origin_seq_.resize(index + 1, 0);
  }
  return MakeOrderKey(origin, ++origin_seq_[index]);
}

EventId Simulator::ScheduleKeyedAt(SimTime at, uint64_t key,
                                   EventRegion target, EventFn fn) {
  // Conservative lookahead: injected events must not land in this
  // simulator's executed past, or the (time, key) order would be violated.
  SKYWALKER_CHECK(at >= now_) << "keyed event scheduled in the past";
  return events_.Push(at, key, target, std::move(fn));
}

size_t Simulator::Run() {
  size_t n = 0;
  while (Step()) {
    ++n;
  }
  return n;
}

size_t Simulator::RunUntil(SimTime deadline) {
  // SimTime is integral and kSimTimeMax is INT64_MAX / 2, so `at <=
  // deadline` is exactly `at < deadline + 1` and the + 1 cannot overflow.
  const size_t n = RunBefore(deadline + 1);
  AdvanceTo(deadline);
  return n;
}

size_t Simulator::RunBefore(SimTime end) {
  size_t n = 0;
  while (!events_.empty() && events_.PeekTime() < end) {
    Step();
    ++n;
  }
  return n;
}

void Simulator::AdvanceTo(SimTime t) { now_ = std::max(now_, t); }

bool Simulator::Step() {
  if (events_.empty()) {
    return false;
  }
  EventQueue::Event event = events_.Pop();
  now_ = std::max(now_, event.at);
  current_region_ = event.target;
  ++executed_;
  event.fn();
  return true;
}

PeriodicTask::PeriodicTask(Simulator* sim, SimDuration interval, EventFn fn)
    : sim_(sim), interval_(interval), fn_(std::move(fn)) {}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start() { StartWithDelay(interval_); }

void PeriodicTask::StartWithDelay(SimDuration initial_delay) {
  Stop();
  running_ = true;
  pending_ = sim_->ScheduleAfter(initial_delay, [this] { Tick(); });
}

void PeriodicTask::Stop() {
  if (pending_ != kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = kInvalidEventId;
  }
  running_ = false;
}

void PeriodicTask::Tick() {
  pending_ = kInvalidEventId;
  if (!running_) {
    return;
  }
  fn_();
  if (running_) {  // fn_ may have called Stop().
    pending_ = sim_->ScheduleAfter(interval_, [this] { Tick(); });
  }
}

}  // namespace skywalker
