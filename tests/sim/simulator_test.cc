#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/future.h"
#include "src/sim/task.h"

namespace globaldb::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(50, [&] { ++ran; });
  sim.RunUntil(20);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 20);
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, StopHaltsLoop) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(1, [&] {
    ++ran;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 1);
  sim.Run();  // resumes
  EXPECT_EQ(ran, 2);
}

Task<void> SleeperTask(Simulator* sim, std::vector<SimTime>* log) {
  log->push_back(sim->now());
  co_await sim->Sleep(100);
  log->push_back(sim->now());
  co_await sim->Sleep(50);
  log->push_back(sim->now());
}

TEST(SimulatorTest, CoroutineSleepAdvancesVirtualTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.Spawn(SleeperTask(&sim, &log));
  sim.Run();
  EXPECT_EQ(log, (std::vector<SimTime>{0, 100, 150}));
}

Task<int> Doubler(int x) { co_return x * 2; }

Task<void> AwaitsChild(Simulator* sim, int* out) {
  int a = co_await Doubler(10);
  co_await sim->Sleep(5);
  int b = co_await Doubler(a);
  *out = b;
}

TEST(SimulatorTest, TaskCompositionReturnsValues) {
  Simulator sim;
  int out = 0;
  sim.Spawn(AwaitsChild(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, 40);
}

Task<void> Ping(Simulator* sim, Promise<int> p) {
  co_await sim->Sleep(42);
  p.Set(99);
}

Task<void> Pong(Simulator* sim, Future<int> f, SimTime* when, int* value) {
  *value = co_await f;
  *when = sim->now();
}

TEST(SimulatorTest, FutureResumesWaiterAtSetTime) {
  Simulator sim;
  Promise<int> p(&sim);
  SimTime when = -1;
  int value = 0;
  sim.Spawn(Pong(&sim, p.GetFuture(), &when, &value));
  sim.Spawn(Ping(&sim, p));
  sim.Run();
  EXPECT_EQ(value, 99);
  EXPECT_EQ(when, 42);
}

TEST(SimulatorTest, FutureAlreadyReadyDoesNotSuspend) {
  Simulator sim;
  Promise<int> p(&sim);
  p.Set(7);
  int value = 0;
  SimTime when = -1;
  sim.Spawn(Pong(&sim, p.GetFuture(), &when, &value));
  sim.Run();
  EXPECT_EQ(value, 7);
  EXPECT_EQ(when, 0);
}

TEST(SimulatorTest, PromiseTrySetSecondWriterLoses) {
  Simulator sim;
  Promise<int> p(&sim);
  EXPECT_TRUE(p.TrySet(1));
  EXPECT_FALSE(p.TrySet(2));
  int value = 0;
  SimTime when;
  sim.Spawn(Pong(&sim, p.GetFuture(), &when, &value));
  sim.Run();
  EXPECT_EQ(value, 1);
}

Task<void> TakeValue(Future<std::string> f, std::string* out) {
  *out = co_await std::move(f);
}

Task<void> CopyValue(Future<std::string> f, std::string* out) {
  *out = co_await f;
}

// The single-consumer await (Network::Call's reply path) moves the value
// out: the awaiter gets it intact, the shared state — still referenced by a
// pending timeout's Promise copy — no longer holds the payload, and the
// timeout's later TrySet still loses.
TEST(SimulatorTest, MovedOutAwaitDeliversValueAndLateTrySetLoses) {
  Simulator sim;
  Promise<std::string> p(&sim);
  const std::string payload(4096, 'x');
  std::string taken;
  sim.Spawn(TakeValue(p.GetFuture(), &taken));
  sim.Schedule(10, [p, payload]() mutable { p.Set(payload); });
  bool timeout_won = true;
  sim.Schedule(50, [p, &timeout_won]() mutable {
    timeout_won = p.TrySet("timed out");
  });
  sim.Run();
  EXPECT_EQ(taken, payload);
  EXPECT_FALSE(timeout_won);
  EXPECT_TRUE(p.has_value());
  // A copying await after the move sees the emptied value, not the payload.
  std::string copied = "unset";
  sim.Spawn(CopyValue(p.GetFuture(), &copied));
  sim.Run();
  EXPECT_TRUE(copied.empty());
}

Task<void> Worker(Simulator* sim, WaitGroup* wg, SimDuration d) {
  co_await sim->Sleep(d);
  wg->Done();
}

Task<void> Waiter(Simulator* sim, WaitGroup* wg, SimTime* done_at) {
  co_await wg->Wait();
  *done_at = sim->now();
}

TEST(SimulatorTest, WaitGroupWaitsForAll) {
  Simulator sim;
  WaitGroup wg(&sim);
  wg.Add(3);
  SimTime done_at = -1;
  sim.Spawn(Waiter(&sim, &wg, &done_at));
  sim.Spawn(Worker(&sim, &wg, 10));
  sim.Spawn(Worker(&sim, &wg, 30));
  sim.Spawn(Worker(&sim, &wg, 20));
  sim.Run();
  EXPECT_EQ(done_at, 30);
}

TEST(SimulatorTest, NotificationReleasesAllWaiters) {
  Simulator sim;
  Notification n(&sim);
  int released = 0;
  auto wait_task = [](Notification* n, int* released) -> Task<void> {
    co_await n->Wait();
    ++*released;
  };
  sim.Spawn(wait_task(&n, &released));
  sim.Spawn(wait_task(&n, &released));
  sim.Schedule(10, [&] { n.Notify(); });
  sim.Run();
  EXPECT_EQ(released, 2);
  EXPECT_TRUE(n.HasBeenNotified());
  // Waiting after notification completes immediately.
  sim.Spawn(wait_task(&n, &released));
  sim.Run();
  EXPECT_EQ(released, 3);
}

TEST(SimulatorTest, DeterministicEventCount) {
  auto run = []() {
    Simulator sim(123);
    std::vector<SimTime> log;
    sim.Spawn(SleeperTask(&sim, &log));
    sim.Spawn(SleeperTask(&sim, &log));
    sim.Run();
    return sim.events_executed();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace globaldb::sim
