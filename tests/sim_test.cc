// Unit tests for the discrete-event core: event ordering, cancellation,
// deterministic key tie-breaking, periodic tasks.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace skywalker {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, MakeOrderKey(0, 1), 0, [&] { order.push_back(3); });
  q.Push(10, MakeOrderKey(0, 2), 0, [&] { order.push_back(1); });
  q.Push(20, MakeOrderKey(0, 3), 0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, KeyBreaksTiesAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 4; i >= 0; --i) {
    q.Push(100, MakeOrderKey(0, static_cast<uint64_t>(i) + 1), 0,
           [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Push(10, MakeOrderKey(0, 1), 0, [&] { ++fired; });
  q.Push(20, MakeOrderKey(0, 2), 0, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Double cancel fails.
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledHeadSkipped) {
  EventQueue q;
  int fired = 0;
  EventId first = q.Push(5, MakeOrderKey(0, 1), 0, [&] { fired = 1; });
  q.Push(10, MakeOrderKey(0, 2), 0, [&] { fired = 2; });
  q.Cancel(first);
  EXPECT_EQ(q.PeekTime(), 10);
  q.Pop().fn();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime observed = -1;
  sim.ScheduleAt(500, [&] { observed = sim.now(); });
  sim.Run();
  EXPECT_EQ(observed, 500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, SameRegionEventsRunInSchedulingOrder) {
  // A standalone simulator starts scoped to region 0: equal-time events it
  // schedules run in the order they were scheduled.
  Simulator sim;
  EXPECT_EQ(sim.current_region(), 0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime second = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { second = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(second, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.Run();
  SimTime fired_at = -1;
  sim.ScheduleAt(10, [&] { fired_at = sim.now(); });  // In the past.
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(100, [&] { ++fired; });
  sim.ScheduleAt(200, [&] { ++fired; });
  sim.ScheduleAt(300, [&] { ++fired; });
  size_t executed = sim.RunUntil(250);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 250);
  EXPECT_TRUE(sim.HasPendingEvents());
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.ScheduleAt(10, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.ScheduleAt(10, [&] {
    times.push_back(sim.now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(PeriodicTaskTest, TicksAtInterval) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(&sim, 100, [&] { ticks.push_back(sim.now()); });
  task.Start();
  sim.RunUntil(350);
  task.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 200, 300}));
}

TEST(PeriodicTaskTest, StartWithDelayZeroFiresImmediately) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(&sim, 100, [&] { ticks.push_back(sim.now()); });
  task.StartWithDelay(0);
  sim.RunUntil(250);
  task.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{0, 100, 200}));
}

TEST(PeriodicTaskTest, StopInsideCallbackHalts) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 10, [&] {
    ++ticks;
    // Self-stop after 3 ticks.
  });
  task.Start();
  sim.ScheduleAt(35, [&] { task.Stop(); });
  sim.Run();
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestructorCancelsPendingTick) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(&sim, 10, [&] { ++ticks; });
    task.Start();
  }  // Destroyed before any tick.
  sim.Run();
  EXPECT_EQ(ticks, 0);
}

TEST(PeriodicTaskTest, RestartResetsPhase) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTask task(&sim, 100, [&] { ticks.push_back(sim.now()); });
  task.Start();
  sim.RunUntil(150);               // One tick at 100.
  task.StartWithDelay(30);         // Next at 180.
  sim.RunUntil(200);
  task.Stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{100, 180}));
}

}  // namespace
}  // namespace skywalker
