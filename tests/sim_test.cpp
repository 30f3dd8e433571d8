// Unit tests for the discrete-event engine: ordering, timers, cancellation,
// EventFn closure semantics, lazy timer re-arm, determinism of named RNG
// streams, and randomized fuzzes that cross-check the slab/4-ary-heap engine
// against a std::priority_queue reference implementation and re-arm against
// the cancel + push pattern it replaces.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace switchml::sim {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulation, SameTimeEventsRunFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation s;
  Time seen = -1;
  s.schedule_at(100, [&] { s.schedule_after(50, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation s;
  s.schedule_at(100, [&] {
    EXPECT_THROW(s.schedule_at(50, [] {}), std::invalid_argument);
  });
  s.run();
}

TEST(Simulation, NestedEventsFromHandlers) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(Simulation, TimerCancellationPreventsExecution) {
  Simulation s;
  bool fired = false;
  TimerHandle t = s.schedule_timer(100, [&] { fired = true; });
  s.schedule_at(50, [&] { t.cancel(); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(t.armed());
}

TEST(Simulation, TimerFiresWhenNotCancelled) {
  Simulation s;
  bool fired = false;
  TimerHandle t = s.schedule_timer(100, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelAfterFireIsHarmless) {
  Simulation s;
  TimerHandle t = s.schedule_timer(10, [] {});
  s.run();
  t.cancel(); // no-op
  EXPECT_FALSE(t.armed());
}

TEST(Simulation, DefaultTimerHandleIsInert) {
  TimerHandle t;
  EXPECT_FALSE(t.armed());
  t.cancel(); // must not crash
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) s.schedule_at(i * 10, [&] { ++count; });
  s.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 50);
  s.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(Simulation, StopHaltsTheLoop) {
  Simulation s;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    s.schedule_at(i, [&] {
      if (++count == 3) s.stop();
    });
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_events(), 7u);
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulation, StaleHandleCannotCancelRecycledSlot) {
  // After a timer fires, its slab slot is recycled. A stale handle to the
  // fired timer must not be able to cancel whatever new timer now occupies
  // that slot (generation check).
  Simulation s;
  TimerHandle stale = s.schedule_timer(1, [] {});
  s.run();
  bool fired = false;
  TimerHandle fresh = s.schedule_timer(1, [&] { fired = true; });
  stale.cancel();
  EXPECT_FALSE(stale.armed());
  EXPECT_TRUE(fresh.armed());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, DaemonTimersAreNotLiveWork) {
  Simulation s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (s.live_pending_events() > 0) s.schedule_daemon_timer(10, tick);
  };
  s.schedule_daemon_timer(10, tick);
  s.schedule_at(35, [] {});
  EXPECT_EQ(s.live_pending_events(), 1u);
  EXPECT_EQ(s.pending_events(), 2u);
  s.run();
  // Ticks at 10, 20, 30 see the live event pending; the tick at 40 sees no
  // live work and does not re-arm, so the run drains.
  EXPECT_EQ(ticks, 4);
}

TEST(EventFn, InvokesAndClearsOnReset) {
  int calls = 0;
  EventFn fn([&] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(42);
  int seen = 0;
  EventFn fn([&seen, p = std::move(p)] { seen = *p; });
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn)); // NOLINT(bugprone-use-after-move): empty-after-move is the contract
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(EventFn, CaptureDestructorRunsExactlyOnce) {
  // `live` counts constructions minus destructions of the capture. Relocation
  // on move plus destruction of the EventFn must balance out to zero — a
  // double-destroy would drive it negative, a leak would leave it positive.
  static int live;
  live = 0;
  struct Probe {
    Probe() { ++live; }
    Probe(Probe&&) noexcept { ++live; }
    Probe(const Probe&) { ++live; }
    ~Probe() { --live; }
  };
  {
    EventFn fn([p = Probe{}] { (void)p; });
    EXPECT_GT(live, 0);
    EventFn moved = std::move(fn);
    EventFn target;
    target = std::move(moved);
    target(); // invoking does not destroy the capture
    EXPECT_GT(live, 0);
  }
  EXPECT_EQ(live, 0);
}

TEST(EventFn, EmplaceDestroysPreviousCapture) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  EventFn fn([keep = std::move(first)] { (void)keep; });
  EXPECT_FALSE(watch.expired());
  fn.emplace([] {});
  EXPECT_TRUE(watch.expired());
}

TEST(EventFn, CompileTimeCapacityGate) {
  const auto small = [] {};
  static_assert(EventFn::fits<decltype(small)>());
  static_assert(std::is_constructible_v<EventFn, decltype(small)>);

  // Exactly at the inline capacity: still fits.
  struct AtCapacity {
    char data[EventFn::kInlineBytes];
    void operator()() {}
  };
  static_assert(EventFn::fits<AtCapacity>());

  // One byte over: rejected at compile time, not silently heap-allocated.
  struct Oversized {
    char data[EventFn::kInlineBytes + 1];
    void operator()() {}
  };
  static_assert(!EventFn::fits<Oversized>());
  static_assert(!std::is_constructible_v<EventFn, Oversized>);

  // Over-aligned or potentially-throwing-move callables are rejected too.
  struct Overaligned {
    alignas(2 * EventFn::kInlineAlign) char c;
    void operator()() {}
  };
  static_assert(!std::is_constructible_v<EventFn, Overaligned>);
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) {}
    void operator()() {}
  };
  static_assert(!std::is_constructible_v<EventFn, ThrowingMove>);

  // EventFn itself is move-only.
  static_assert(!std::is_copy_constructible_v<EventFn>);
  static_assert(std::is_move_constructible_v<EventFn>);
  SUCCEED();
}

// --------------------------------------------------------------------------
// Randomized fuzz: cross-check the slab engine against a reference engine
// built the way the simulator used to be built — a std::priority_queue of
// whole events with std::function closures and shared_ptr cancellation
// flags. Both engines execute the same generated script; execution order,
// live_pending_events at every step, and post-run handle state must match.
// --------------------------------------------------------------------------

// Reference engine (behavioural oracle). Deliberately simple and obviously
// correct; mirrors the pre-slab Simulation semantics exactly.
class RefSim {
public:
  struct Handle {
    std::shared_ptr<bool> armed;
    bool daemon = false;
    RefSim* sim = nullptr;
  };

  [[nodiscard]] Time now() const { return now_; }

  void schedule_at(Time at, std::function<void()> fn) {
    queue_.push(Ev{at, next_seq_++, std::move(fn), nullptr, false});
  }

  Handle schedule_timer(Time delay, std::function<void()> fn, bool daemon = false) {
    auto armed = std::make_shared<bool>(true);
    queue_.push(Ev{now_ + delay, next_seq_++, std::move(fn), armed, daemon});
    if (daemon) ++inert_;
    return Handle{std::move(armed), daemon, this};
  }

  static void cancel(Handle& h) {
    if (h.armed == nullptr || !*h.armed) return;
    *h.armed = false;
    if (!h.daemon) ++h.sim->inert_;
  }

  [[nodiscard]] std::uint64_t live_pending_events() const {
    return queue_.size() - inert_;
  }

  void run() {
    while (!queue_.empty()) {
      Ev ev = std::move(const_cast<Ev&>(queue_.top()));
      queue_.pop();
      const bool cancelled = ev.armed != nullptr && !*ev.armed;
      inert_ -= static_cast<std::uint64_t>(cancelled || ev.daemon);
      if (ev.armed != nullptr) *ev.armed = false;
      if (cancelled) continue;
      now_ = ev.at;
      ev.fn();
    }
  }

private:
  struct Ev {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> armed;
    bool daemon;
    bool operator<(const Ev& o) const { // inverted: priority_queue is a max-heap
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  std::priority_queue<Ev> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t inert_ = 0;
  Time now_ = 0;
};

// A generated script: event `id` (in creation order), when it fires, first
// tries to cancel `cancel_target[id]` (if >= 0), then spawns `children[id]`
// new events. Ids beyond the table spawn nothing, bounding the run.
struct FuzzScript {
  struct Child {
    int kind; // 0 = plain, 1 = timer, 2 = daemon timer
    Time delay;
  };
  std::vector<Time> root_times;
  std::vector<std::vector<Child>> children;
  std::vector<int> cancel_target;
};

FuzzScript make_script(std::uint32_t seed, int n_ids) {
  std::mt19937 rng(seed);
  // Narrow time range on purpose: forces same-time collisions so FIFO
  // tie-breaking is exercised, not just time ordering.
  std::uniform_int_distribution<Time> time_dist(0, 40);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  std::uniform_int_distribution<int> fanout_dist(0, 3);

  FuzzScript sc;
  const int n_roots = 8;
  for (int i = 0; i < n_roots; ++i) sc.root_times.push_back(time_dist(rng));
  sc.children.resize(static_cast<std::size_t>(n_ids));
  sc.cancel_target.resize(static_cast<std::size_t>(n_ids), -1);
  std::uniform_int_distribution<int> target_dist(-3 * n_ids, n_ids - 1);
  for (int id = 0; id < n_ids; ++id) {
    // Mostly no cancel; when there is one, any id is fair game — plain
    // events (no handle), not-yet-created timers, already-fired timers, even
    // the running event itself. All must be no-ops or act identically.
    const int t = target_dist(rng);
    sc.cancel_target[static_cast<std::size_t>(id)] = t >= 0 ? t : -1;
    const int fanout = fanout_dist(rng);
    for (int c = 0; c < fanout; ++c)
      sc.children[static_cast<std::size_t>(id)].push_back(
          FuzzScript::Child{kind_dist(rng), time_dist(rng)});
  }
  return sc;
}

struct FuzzTrace {
  std::vector<int> order;          // event ids in execution order
  std::vector<std::uint64_t> live; // live_pending_events at each execution
  Time final_now = 0;
};

// Runs the script on either engine. `SimT` needs schedule_at /
// schedule_timer / schedule_daemon-style entry points, which differ slightly
// between the two — adapted via if constexpr on the handle type.
template <typename SimT, typename HandleT>
FuzzTrace run_script(const FuzzScript& sc) {
  SimT s;
  const auto n_ids = static_cast<int>(sc.children.size());
  std::vector<HandleT> handles(sc.children.size());
  FuzzTrace trace;
  int next_id = static_cast<int>(sc.root_times.size());

  std::function<void(int)> fire = [&](int id) {
    trace.order.push_back(id);
    trace.live.push_back(s.live_pending_events());
    if (id >= n_ids) return;
    const int target = sc.cancel_target[static_cast<std::size_t>(id)];
    if (target >= 0) {
      if constexpr (std::is_same_v<HandleT, TimerHandle>) {
        handles[static_cast<std::size_t>(target)].cancel();
      } else {
        RefSim::cancel(handles[static_cast<std::size_t>(target)]);
      }
    }
    for (const FuzzScript::Child& c : sc.children[static_cast<std::size_t>(id)]) {
      if (next_id >= n_ids) break;
      const int cid = next_id++;
      const auto slot = static_cast<std::size_t>(cid);
      switch (c.kind) {
        case 0: s.schedule_at(s.now() + c.delay, [&fire, cid] { fire(cid); }); break;
        case 1: handles[slot] = s.schedule_timer(c.delay, [&fire, cid] { fire(cid); }); break;
        default:
          if constexpr (std::is_same_v<HandleT, TimerHandle>) {
            handles[slot] = s.schedule_daemon_timer(c.delay, [&fire, cid] { fire(cid); });
          } else {
            handles[slot] = s.schedule_timer(c.delay, [&fire, cid] { fire(cid); }, true);
          }
      }
    }
  };

  for (int i = 0; i < static_cast<int>(sc.root_times.size()); ++i)
    s.schedule_at(sc.root_times[static_cast<std::size_t>(i)], [&fire, i] { fire(i); });
  s.run();
  trace.final_now = s.now();
  return trace;
}

TEST(SimulationFuzz, MatchesPriorityQueueOracle) {
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    const FuzzScript sc = make_script(seed, 400);
    const FuzzTrace real = run_script<Simulation, TimerHandle>(sc);
    const FuzzTrace ref = run_script<RefSim, RefSim::Handle>(sc);
    ASSERT_EQ(real.order, ref.order) << "execution order diverged, seed " << seed;
    ASSERT_EQ(real.live, ref.live) << "live accounting diverged, seed " << seed;
    ASSERT_EQ(real.final_now, ref.final_now) << "final clock diverged, seed " << seed;
    ASSERT_GT(real.order.size(), 8u) << "degenerate script, seed " << seed;
  }
}

TEST(SimulationFuzz, SlotRecyclingKeepsHandlesIndependent) {
  // Heavy schedule/cancel churn through a deliberately tiny id space so slab
  // slots are recycled many times over; every armed() answer must match what
  // an independent shadow of "which timers actually ran / were cancelled"
  // predicts (generation reuse must not resurrect or kill the wrong timer).
  std::mt19937 rng(1234);
  Simulation s;
  constexpr int kTimers = 64;
  constexpr Time kNever = -1;
  std::vector<TimerHandle> handles(kTimers);
  // Independent shadow: a handle is armed iff its timer was scheduled, not
  // cancelled, and its deadline has not been reached yet.
  std::vector<Time> deadline(kTimers, kNever);
  std::uniform_int_distribution<int> idx_dist(0, kTimers - 1);
  std::uniform_int_distribution<Time> delay_dist(1, 20);
  for (int round = 0; round < 2000; ++round) {
    const int i = idx_dist(rng);
    const auto ui = static_cast<std::size_t>(i);
    switch (rng() % 3) {
      case 0: { // (re)arm: old handle goes stale, slot may be recycled
        const Time d = delay_dist(rng);
        handles[ui] = s.schedule_timer(d, [] {});
        deadline[ui] = s.now() + d;
        break;
      }
      case 1:
        handles[ui].cancel();
        deadline[ui] = kNever;
        break;
      default: // advance time; every timer due by then fires and goes stale
        s.run_until(s.now() + delay_dist(rng));
        break;
    }
    for (int j = 0; j < kTimers; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      const bool expect = deadline[uj] != kNever && deadline[uj] > s.now();
      ASSERT_EQ(handles[uj].armed(), expect) << "handle " << j << " round " << round;
    }
  }
  s.run();
  for (int j = 0; j < kTimers; ++j)
    EXPECT_FALSE(handles[static_cast<std::size_t>(j)].armed());
}

// --------------------------------------------------------------------------
// Lazy re-arm: TimerHandle::rearm must be observably identical to the
// cancel + push pattern it replaces, while queueing one key per timer.
// --------------------------------------------------------------------------

TEST(TimerRearm, MovesDeadlineWithoutQueueingAnotherKey) {
  Simulation s;
  std::vector<Time> fired;
  TimerHandle h = s.schedule_timer(10, [&] { fired.push_back(-1); });
  EXPECT_TRUE(h.rearm(30, [&] { fired.push_back(s.now()); }));
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.live_pending_events(), 1u);
  EXPECT_TRUE(h.armed());
  // The early key pops at 10 and is re-keyed: nothing runs, nothing counts.
  s.run_until(20);
  EXPECT_EQ(s.events_executed(), 0u);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_TRUE(h.armed());
  s.run();
  EXPECT_EQ(fired, (std::vector<Time>{30}));
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_FALSE(h.armed());
}

TEST(TimerRearm, RevivesACancelledTimer) {
  Simulation s;
  int stale = 0;
  std::vector<Time> fired;
  TimerHandle h = s.schedule_timer(10, [&] { ++stale; });
  h.cancel();
  EXPECT_FALSE(h.armed());
  EXPECT_EQ(s.live_pending_events(), 0u);
  EXPECT_TRUE(h.rearm(25, [&] { fired.push_back(s.now()); }));
  EXPECT_TRUE(h.armed());
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.live_pending_events(), 1u);
  s.run();
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(fired, (std::vector<Time>{25}));
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(TimerRearm, EarlierDeadlineFallsBackToCancelAndPush) {
  Simulation s;
  std::vector<int> fired;
  TimerHandle h = s.schedule_timer(100, [&] { fired.push_back(1); });
  EXPECT_TRUE(h.rearm(40, [&] { fired.push_back(2); }));
  // The old key stays behind as a tombstone; the handle follows the new one.
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(s.live_pending_events(), 1u);
  EXPECT_TRUE(h.armed());
  s.run_until(50);
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_FALSE(h.armed());
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.now(), 50); // the tombstone popped without moving the clock
}

TEST(TimerRearm, LiveAndInertAccountingFollowsTheTimer) {
  Simulation s;
  TimerHandle a = s.schedule_timer(10, [] {});
  TimerHandle d = s.schedule_daemon_timer(10, [] {});
  EXPECT_EQ(s.live_pending_events(), 1u);
  // Re-arming an armed timer keeps it live; a daemon stays inert.
  EXPECT_TRUE(a.rearm(20, [] {}));
  EXPECT_TRUE(d.rearm(20, [] {}));
  EXPECT_EQ(s.live_pending_events(), 1u);
  // Cancel and revive each: the live count moves with the normal timer only.
  a.cancel();
  d.cancel();
  EXPECT_EQ(s.live_pending_events(), 0u);
  EXPECT_TRUE(a.rearm(30, [] {}));
  EXPECT_TRUE(d.rearm(30, [] {}));
  EXPECT_EQ(s.live_pending_events(), 1u);
  EXPECT_TRUE(d.armed());
  // Fallback path keeps the daemon flag too.
  EXPECT_TRUE(d.rearm(5, [] {}));
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.live_pending_events(), 1u);
  s.run_until(15);
  EXPECT_EQ(s.live_pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.live_pending_events(), 0u);
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(TimerRearm, StaleHandleIsANoOp) {
  Simulation s;
  TimerHandle none;
  EXPECT_FALSE(none.rearm(5, [] {}));
  int runs = 0;
  TimerHandle h = s.schedule_timer(5, [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(h.rearm(10, [&] { ++runs; }));
  EXPECT_EQ(s.pending_events(), 0u);
  // Cancelled, and its key has since popped: also stale. The slot's next
  // occupant must not be touched either.
  TimerHandle c = s.schedule_timer(1, [&] { ++runs; });
  c.cancel();
  s.run();
  TimerHandle next = s.schedule_timer(3, [&] { runs += 10; });
  EXPECT_FALSE(c.rearm(50, [&] { runs += 100; }));
  EXPECT_TRUE(next.armed());
  s.run();
  EXPECT_EQ(runs, 11);
  EXPECT_EQ(s.now(), 8);
}

TEST(TimerRearm, NoSequenceResetWhileAReservationIsOutstanding) {
  // Only the re-armed timer's key is queued. Its re-keying pop must not
  // count as a drain: a reset would hand the later event a smaller seq than
  // the one reserved at re-arm time, and it would overtake the timer at the
  // same instant.
  Simulation s;
  std::vector<int> order;
  TimerHandle h = s.schedule_timer(10, [] {});
  EXPECT_TRUE(h.rearm(100, [&] { order.push_back(1); }));
  s.run_until(20);
  EXPECT_EQ(s.events_executed(), 0u);
  s.schedule_at(100, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

struct RearmTrace {
  std::vector<int> order;          // event labels in execution order
  std::vector<std::uint64_t> live; // live_pending_events at each execution
  std::uint64_t executed = 0;
  std::size_t peak = 0;
  int lazy_moves = 0;
  Time final_now = 0;
};

// One random script run two ways: `kLazy` re-arms with TimerHandle::rearm,
// otherwise with the cancel + push pattern it replaces. Timer 0 is a daemon.
// Delays come from a narrow range so same-time ties are common, and a new
// deadline is often earlier than the queued key (the fallback path).
template <bool kLazy>
RearmTrace run_rearm_script(std::uint32_t seed) {
  constexpr int kTimers = 6;
  constexpr int kBudget = 600;
  Simulation s;
  std::mt19937 rng(seed);
  std::vector<TimerHandle> timers(kTimers);
  RearmTrace t;
  int next_label = 0;
  std::function<void(int)> fire;
  const auto arm = [&](int j, Time delay) {
    const auto fn = [&fire, label = next_label++] { fire(label); };
    const auto fresh = [&] {
      return j == 0 ? s.schedule_daemon_timer(delay, fn) : s.schedule_timer(delay, fn);
    };
    auto& h = timers[static_cast<std::size_t>(j)];
    if constexpr (kLazy) {
      if (h.rearm(s.now() + delay, fn))
        ++t.lazy_moves;
      else
        h = fresh();
    } else {
      h.cancel();
      h = fresh();
    }
  };
  fire = [&](int label) {
    t.order.push_back(label);
    t.live.push_back(s.live_pending_events());
    if (next_label >= kBudget) return;
    const auto ops = 1 + rng() % 4;
    for (std::uint32_t k = 0; k < ops; ++k) {
      const auto j = static_cast<int>(rng() % kTimers);
      const auto delay = static_cast<Time>(rng() % 12);
      switch (rng() % 5) {
        case 0: timers[static_cast<std::size_t>(j)].cancel(); break;
        case 1:
        case 2: s.schedule_after(delay, [&fire, label = next_label++] { fire(label); }); break;
        default: arm(j, delay);
      }
    }
  };
  for (Time at = 0; at < 4; ++at) s.schedule_at(at, [&fire, label = next_label++] { fire(label); });
  for (int j = 0; j < kTimers; ++j) arm(j, 3);
  s.run();
  t.executed = s.events_executed();
  t.peak = s.peak_pending_events();
  t.final_now = s.now();
  return t;
}

TEST(TimerRearm, RandomizedMatchesCancelAndPush) {
  std::size_t lazy_peak = 0, eager_peak = 0;
  for (std::uint32_t seed = 0; seed < 40; ++seed) {
    const RearmTrace lazy = run_rearm_script<true>(seed);
    const RearmTrace eager = run_rearm_script<false>(seed);
    ASSERT_EQ(lazy.order, eager.order) << "dispatch order diverged, seed " << seed;
    ASSERT_EQ(lazy.live, eager.live) << "live accounting diverged, seed " << seed;
    ASSERT_EQ(lazy.executed, eager.executed) << "seed " << seed;
    ASSERT_EQ(lazy.final_now, eager.final_now) << "seed " << seed;
    ASSERT_GT(lazy.order.size(), 50u) << "degenerate script, seed " << seed;
    ASSERT_GT(lazy.lazy_moves, 0) << "script never re-armed lazily, seed " << seed;
    lazy_peak += lazy.peak;
    eager_peak += eager.peak;
  }
  EXPECT_LT(lazy_peak, eager_peak); // the tombstones are really gone
}

TEST(Rng, NamedStreamsAreDeterministic) {
  Rng a = Rng::stream(1, "loss");
  Rng b = Rng::stream(1, "loss");
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentLabelsGiveDifferentStreams) {
  Rng a = Rng::stream(1, "loss-a");
  Rng b = Rng::stream(1, "loss-b");
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, DifferentSeedsGiveDifferentStreams) {
  Rng a = Rng::stream(1, "x");
  Rng b = Rng::stream(2, "x");
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (r.chance(0.01)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.01, 0.003);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    lo |= v == 0;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

} // namespace
} // namespace switchml::sim
