// Unit tests for the simulation core: event loop, RNG, CPU model, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace canal::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), kSecond);
  EXPECT_EQ(minutes(2), 120 * kSecond);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(12.5)), 12.5);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
}

TEST(Time, FormatPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(42)), "42.00us");
  EXPECT_EQ(format_duration(milliseconds(1.25)), "1.25ms");
  EXPECT_EQ(format_duration(seconds(55)), "55.00s");
  EXPECT_EQ(format_duration(minutes(17)), "17.0min");
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.post(microseconds(30), [&] { order.push_back(3); });
  loop.post(microseconds(10), [&] { order.push_back(1); });
  loop.post(microseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), microseconds(30));
}

TEST(EventLoop, TieBrokenByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.post(microseconds(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.post(microseconds(10), [&] { ++fired; });
  loop.post(microseconds(30), [&] { ++fired; });
  loop.run_until(microseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), microseconds(20));
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  auto handle = loop.post(microseconds(10), [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  TimePoint inner_fired = -1;
  loop.post(microseconds(10), [&] {
    loop.post(microseconds(5), [&] { inner_fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(inner_fired, microseconds(15));
}

TEST(EventLoop, PastDeadlineClampedToNow) {
  EventLoop loop;
  loop.run_until(microseconds(100));
  TimePoint fired_at = -1;
  loop.post_at(microseconds(50), [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, microseconds(100));
}

TEST(EventLoop, StaleHandleCannotReachSlotsNextEvent) {
  // One event at a time, so every post reuses the slab's only slot. A
  // handle to the fired (or cancelled) previous occupant must neither report
  // the newcomer pending nor cancel it.
  EventLoop loop;
  int fired = 0;
  const EventHandle fired_handle = loop.post(microseconds(1), [&] { ++fired; });
  loop.run();
  const EventHandle cancelled = loop.post(microseconds(1), [&] { ++fired; });
  cancelled.cancel();
  loop.run();
  EXPECT_EQ(fired, 1);
  const EventHandle live = loop.post(microseconds(1), [&] { ++fired; });
  for (const EventHandle& stale : {fired_handle, cancelled}) {
    EXPECT_FALSE(stale.pending());
    stale.cancel();
    EXPECT_TRUE(live.pending());
  }
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(live.pending());
}

TEST(EventLoop, CancelFromOwnCallbackIsNoOp) {
  // By the time its callback runs, the event has fired and its slot is
  // free: an event posted from inside the callback takes that slot, and the
  // firing event's cancel() must not reach it.
  EventLoop loop;
  EventHandle self;
  bool pending_inside = true;
  int follow_ups = 0;
  self = loop.post(microseconds(5), [&] {
    pending_inside = self.pending();
    loop.post(microseconds(5), [&] { ++follow_ups; });
    self.cancel();
  });
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(follow_ups, 1);
}

TEST(EventLoop, CancelledEventsCountAsPendingButNeverRun) {
  // Cancelled keys stay queued until popped: pending_events() and
  // next_event_time() stay lower bounds (the shard window relies on that),
  // while run()/run_until() count only events that fire.
  EventLoop loop;
  int fired = 0;
  const EventHandle same_tick = loop.post(0, [&] { ++fired; });  // bucket
  const EventHandle early = loop.post(microseconds(10), [&] { ++fired; });
  loop.post(microseconds(20), [&] { ++fired; });
  same_tick.cancel();
  early.cancel();
  EXPECT_EQ(loop.pending_events(), 3u);
  EXPECT_EQ(loop.next_event_time(), TimePoint{0});
  EXPECT_EQ(loop.run_until(0), 0u);
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.next_event_time(), microseconds(10));
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.next_event_time(), std::nullopt);
}

TEST(PeriodicTimer, FiresAtPeriod) {
  EventLoop loop;
  std::vector<TimePoint> fires;
  PeriodicTimer timer(loop, milliseconds(10), [&] {
    fires.push_back(loop.now());
  });
  timer.start();
  loop.run_until(milliseconds(35));
  ASSERT_EQ(fires.size(), 4u);  // t=0,10,20,30
  EXPECT_EQ(fires[1] - fires[0], milliseconds(10));
}

TEST(PeriodicTimer, StopHalts) {
  EventLoop loop;
  int ticks = 0;
  PeriodicTimer timer(loop, milliseconds(10), [&] { ++ticks; });
  timer.start(milliseconds(10));
  loop.run_until(milliseconds(25));
  timer.stop();
  loop.run_until(milliseconds(100));
  EXPECT_EQ(ticks, 2);

  // stop() from inside a tick keeps that tick from re-arming the timer.
  int inner_ticks = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer stopping(loop, milliseconds(10), [&] {
    if (++inner_ticks == 3) self->stop();
  });
  self = &stopping;
  stopping.start();
  loop.run_until(milliseconds(200));
  EXPECT_EQ(inner_ticks, 3);
  EXPECT_FALSE(stopping.running());
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(PeriodicTimer, RestartInsideTickFiresOncePerPeriod) {
  EventLoop loop;
  std::vector<TimePoint> fires;
  PeriodicTimer* timer = nullptr;
  PeriodicTimer restarting(loop, milliseconds(10), [&] {
    fires.push_back(loop.now());
    timer->stop();
    timer->start(milliseconds(10));
  });
  timer = &restarting;
  restarting.start();
  loop.run_until(milliseconds(45));
  EXPECT_EQ(fires, (std::vector<TimePoint>{0, milliseconds(10),
                                           milliseconds(20), milliseconds(30),
                                           milliseconds(40)}));
  EXPECT_TRUE(restarting.running());
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  for (const double mean : {3.0, 200.0}) {
    double sum = 0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / kN, mean, mean * 0.05);
  }
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.fork();
  // Child stream must differ from the parent's continuation.
  EXPECT_NE(child.next(), parent.next());
}

TEST(CpuCore, IdleCoreRunsImmediately) {
  EventLoop loop;
  CpuCore core(loop);
  const TimePoint done = core.execute(microseconds(100));
  EXPECT_EQ(done, microseconds(100));
}

TEST(CpuCore, QueueingDelaysSecondJob) {
  EventLoop loop;
  CpuCore core(loop);
  core.execute(microseconds(100));
  const TimePoint done = core.execute(microseconds(50));
  EXPECT_EQ(done, microseconds(150));
  EXPECT_EQ(core.backlog(), microseconds(150));
}

TEST(CpuCore, CallbackFiresAtCompletion) {
  EventLoop loop;
  CpuCore core(loop);
  TimePoint fired = -1;
  core.execute(microseconds(80), [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, microseconds(80));
}

TEST(CpuCore, UtilizationOverWindow) {
  EventLoop loop;
  CpuCore core(loop, /*history=*/5 * kMinute);
  core.execute(milliseconds(50));  // busy [0, 50ms)
  loop.run_until(milliseconds(100));
  EXPECT_NEAR(core.utilization(milliseconds(100)), 0.5, 0.01);
  EXPECT_NEAR(core.utilization(milliseconds(50)), 0.0, 0.01);
}

TEST(CpuCore, TotalBusyAccumulates) {
  EventLoop loop;
  CpuCore core(loop);
  core.execute(microseconds(30));
  core.execute(microseconds(70));
  EXPECT_EQ(core.total_busy(), microseconds(100));
  EXPECT_EQ(core.jobs(), 2u);
}

TEST(CpuSet, LeastLoadedDispatch) {
  EventLoop loop;
  CpuSet set(loop, 2);
  set.execute(microseconds(100));  // core 0 busy
  const TimePoint done = set.execute(microseconds(10));
  EXPECT_EQ(done, microseconds(10));  // ran on idle core 1
}

TEST(CpuSet, PinnedDispatchIsStable) {
  EventLoop loop;
  CpuSet set(loop, 4);
  const std::uint64_t hash = 0xDEADBEEF;
  set.execute_pinned(hash, microseconds(100));
  const TimePoint done = set.execute_pinned(hash, microseconds(100));
  EXPECT_EQ(done, microseconds(200));  // same core: serialized
}

TEST(CpuSet, UtilizationAveragesCores) {
  EventLoop loop;
  CpuSet set(loop, 2, /*history=*/5 * kMinute);
  set.core(0).execute(milliseconds(100));
  loop.run_until(milliseconds(100));
  EXPECT_NEAR(set.utilization(milliseconds(100)), 0.5, 0.01);
}

TEST(CpuCore, UntrackedCoreKeepsNoHistoryAndRefusesReads) {
  EventLoop loop;
  CpuCore core(loop);
  core.execute(milliseconds(1));
  loop.run_until(milliseconds(2));
  core.execute(milliseconds(1));
  EXPECT_EQ(core.interval_count(), 0u);
  EXPECT_EQ(core.total_busy(), milliseconds(2));
  EXPECT_EQ(core.jobs(), 2u);
  EXPECT_THROW((void)core.utilization(milliseconds(10)), std::logic_error);

  CpuSet set(loop, 2);
  set.execute(milliseconds(1));
  EXPECT_THROW((void)set.utilization(milliseconds(10)), std::logic_error);
  set.track_utilization(milliseconds(10));
  EXPECT_EQ(set.utilization(milliseconds(10)), 0.0);
}

TEST(CpuCore, TrackUtilizationNeverShrinksHistory) {
  EventLoop loop;
  CpuCore core(loop);
  core.track_utilization(milliseconds(10));
  core.track_utilization(milliseconds(1));  // smaller: keeps 10 ms
  for (int i = 0; i <= 8; ++i) {  // 100 us of work at the top of each ms
    loop.run_until(milliseconds(i));
    core.execute(microseconds(100));
  }
  loop.run_until(milliseconds(9));
  EXPECT_EQ(core.interval_count(), 9u);
  const Duration window = microseconds(8500);  // from 0.5 ms: 8 jobs
  EXPECT_EQ(core.utilization(window),
            static_cast<double>(microseconds(800)) /
                static_cast<double>(window));
}

TEST(Histogram, PercentilesExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.01);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, CdfMonotone) {
  Histogram h;
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0, 100));
  const auto cdf = h.cdf(10);
  ASSERT_EQ(cdf.size(), 10u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(7.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, SortedCopyIsCachedAcrossQueriesAndInvalidatedByRecord) {
  // Pins the documented caching contract: the first order-statistic query
  // after a record() sorts once; further queries reuse the sorted copy
  // until the next record() invalidates it.
  Histogram h;
  EXPECT_FALSE(h.sorted_cached());
  for (int i = 0; i < 100; ++i) h.record(100.0 - i);
  EXPECT_FALSE(h.sorted_cached());
  (void)h.percentile(50);
  EXPECT_TRUE(h.sorted_cached());
  (void)h.min();  // still cached: no re-sort between queries
  (void)h.cdf(5);
  EXPECT_TRUE(h.sorted_cached());
  h.record(1.0);
  EXPECT_FALSE(h.sorted_cached());
  EXPECT_DOUBLE_EQ(h.min(), 1.0);  // re-sorts and sees the new sample
  EXPECT_TRUE(h.sorted_cached());
  h.clear();
  EXPECT_FALSE(h.sorted_cached());
}

TEST(TimeSeries, WindowedReductions) {
  TimeSeries series;
  for (int i = 0; i < 10; ++i) {
    series.record(seconds(i), static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(series.sum_in(seconds(0), seconds(4)), 10.0);
  EXPECT_DOUBLE_EQ(series.mean_in(seconds(0), seconds(4)), 2.0);
  EXPECT_DOUBLE_EQ(series.max_in(seconds(2), seconds(9)), 9.0);
  EXPECT_EQ(series.count_in(seconds(5), seconds(7)), 3u);
}

TEST(TimeSeries, ValueAtCarriesForward) {
  TimeSeries series;
  series.record(seconds(1), 10.0);
  series.record(seconds(5), 20.0);
  EXPECT_FALSE(series.value_at(seconds(0)).has_value());
  EXPECT_DOUBLE_EQ(series.value_at(seconds(3)).value(), 10.0);
  EXPECT_DOUBLE_EQ(series.value_at(seconds(9)).value(), 20.0);
}

TEST(TimeSeries, TrendSlope) {
  TimeSeries series;
  for (int i = 0; i <= 10; ++i) {
    series.record(seconds(i), 3.0 * i + 1.0);
  }
  EXPECT_NEAR(series.trend_in(seconds(0), seconds(10)), 3.0, 1e-9);
}

TEST(TimeSeries, MaxAgePrunes) {
  TimeSeries series(seconds(5));
  for (int i = 0; i <= 10; ++i) {
    series.record(seconds(i), 1.0);
  }
  EXPECT_LE(series.size(), 6u);
}

TEST(RateMeter, WindowedRate) {
  RateMeter meter(seconds(1));
  for (int i = 0; i < 100; ++i) {
    meter.record(milliseconds(i * 10));
  }
  EXPECT_NEAR(meter.rate(milliseconds(990)), 100.0, 5.0);
  EXPECT_NEAR(meter.rate(seconds(10)), 0.0, 0.01);
  EXPECT_EQ(meter.total(), 100u);
}

TEST(RateMeter, WeightedEvents) {
  RateMeter meter(seconds(1));
  meter.record(0, 50.0);
  EXPECT_NEAR(meter.rate(milliseconds(500)), 50.0, 0.01);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> a{1, 2, 3, 4, 5};
  std::vector<double> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-9);
  std::vector<double> c{5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-9);
}

TEST(Pearson, DegenerateIsZero) {
  std::vector<double> a{1, 1, 1};
  std::vector<double> b{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
  EXPECT_DOUBLE_EQ(pearson(std::vector<double>{1}, std::vector<double>{2}),
                   0.0);
}

TEST(Hwhm, FindsPeakWindow) {
  TimeSeries series;
  // Triangle peaking at t=12h, values 0..100..0.
  for (int h = 0; h <= 24; ++h) {
    const double v = 100.0 - std::abs(h - 12) * (100.0 / 12.0);
    series.record(hours(h), v);
  }
  const auto window = hwhm_window(series);
  EXPECT_EQ(window.peak, hours(12));
  // Half max = 50 -> crossing at h=6 and h=18.
  EXPECT_EQ(window.start, hours(6));
  EXPECT_EQ(window.end, hours(18));
}

TEST(Hwhm, EmptySeries) {
  TimeSeries series;
  const auto window = hwhm_window(series);
  EXPECT_EQ(window.start, 0);
  EXPECT_EQ(window.end, 0);
}

// Property sweep: CPU utilization equals offered load below saturation.
class CpuLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(CpuLoadSweep, UtilizationTracksOfferedLoad) {
  const double load = GetParam();
  EventLoop loop;
  CpuCore core(loop, minutes(2));
  Rng rng(31);
  // Poisson arrivals of 100us jobs at `load` erlangs for 10 s.
  const double rate_per_s = load / 100e-6;
  TimePoint t = 0;
  while (t < seconds(10)) {
    t += static_cast<Duration>(rng.exponential(1.0 / rate_per_s) *
                               static_cast<double>(kSecond));
    loop.post_at(t, [&core] { core.execute(microseconds(100)); });
  }
  loop.run();
  loop.run_until(std::max<TimePoint>(loop.now(), seconds(10)));
  const double util =
      to_seconds(core.total_busy()) / to_seconds(loop.now());
  EXPECT_NEAR(util, load, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Loads, CpuLoadSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(EventLoop, SlotReuseKeepsOrdering) {
  // The indexed event heap recycles slab slots through a free list; after
  // draining and refilling the loop, ordering must still follow (when, seq).
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    loop.post(microseconds(64 - i), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 64u);
  EXPECT_EQ(order.front(), 63);  // smallest delay fires first
  EXPECT_EQ(order.back(), 0);
  order.clear();
  // Refill: every slot comes off the free list now.
  for (int i = 0; i < 64; ++i) {
    loop.post(microseconds(7), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);  // ties by insertion
}

TEST(CpuCore, IntervalCountIsHardCapped) {
  // Every job is separated by an idle gap, so nothing coalesces and (with a
  // long history window) time-based pruning never fires: only the hard cap
  // bounds memory.
  EventLoop loop;
  CpuCore core(loop, /*history=*/365 * 24 * 60 * kMinute);
  const std::size_t jobs = CpuCore::kMaxIntervals + 1024;
  for (std::size_t i = 0; i < jobs; ++i) {
    loop.run_until(static_cast<TimePoint>(i) * microseconds(2));
    core.execute(microseconds(1));
  }
  EXPECT_LE(core.interval_count(), CpuCore::kMaxIntervals);
  EXPECT_EQ(core.jobs(), jobs);
}

TEST(CpuCore, UtilizationCorrectAfterCapPrune) {
  // 1us-on / 1us-off duty cycle far past the interval cap: windows covered
  // by the retained intervals must still read an exact 50% utilization —
  // dropping the oldest entries shrinks lookback but never distorts what
  // remains.
  EventLoop loop;
  CpuCore core(loop, /*history=*/365 * 24 * 60 * kMinute);
  const std::size_t jobs = CpuCore::kMaxIntervals + 4096;
  for (std::size_t i = 0; i < jobs; ++i) {
    loop.run_until(static_cast<TimePoint>(i) * microseconds(2));
    core.execute(microseconds(1));
  }
  loop.run();
  EXPECT_NEAR(core.utilization(milliseconds(10)), 0.5, 0.01);
  EXPECT_NEAR(core.utilization(milliseconds(1)), 0.5, 0.01);
}

// Busy time of `jobs` (start, end) overlapping [lo, hi]: a linear walk back
// from the newest job. Job ends are nondecreasing, so the walk stops at the
// first job that ends at or before `lo`.
Duration overlap(const std::vector<std::pair<TimePoint, TimePoint>>& jobs,
                 TimePoint lo, TimePoint hi) {
  Duration busy = 0;
  for (auto it = jobs.rbegin(); it != jobs.rend() && it->second > lo; ++it) {
    busy += std::max<Duration>(
        0, std::min(it->second, hi) - std::max(it->first, lo));
  }
  return busy;
}

// Drives one core with a random job stream that mixes idle gaps,
// back-to-back jobs, jobs queued behind busy time, and zero- and
// negative-cost jobs, reading utilization after every job. Windows the
// retained intervals cover are checked exactly against `overlap` over a job
// log rebuilt from execute's return value and the cost; reads at the
// `checkpoint` windows (5 s and longer than `history`) that reach into
// pruned intervals are appended to `beyond`. Returns how many merged busy
// intervals were pruned by the end.
std::size_t drive_utilization(Duration history, std::size_t jobs,
                              Duration mean_cost, double gap_share,
                              std::size_t checkpoint,
                              std::vector<double>& beyond) {
  EventLoop loop;
  CpuCore core(loop, history);
  Rng rng(97);
  std::vector<std::pair<TimePoint, TimePoint>> log;     // positive-cost jobs
  std::vector<std::pair<TimePoint, TimePoint>> merged;  // coalesced, unpruned
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const TimePoint idle_at = std::max(loop.now(), core.free_at());
    if (rng.uniform() < gap_share) {
      loop.run_until(idle_at + rng.uniform_int(1, 3 * mean_cost));
    } else {
      switch (rng.uniform_int(0, 2)) {
        case 0:  // back-to-back: starts exactly when the core frees up
          loop.run_until(idle_at);
          break;
        case 1:  // queued behind part of the backlog
          loop.run_until(loop.now() + rng.uniform_int(0, core.backlog()));
          break;
        default:  // same instant as the previous job
          break;
      }
    }
    Duration cost = rng.uniform_int(1, 2 * mean_cost);
    const std::int64_t kind = rng.uniform_int(0, 7);
    if (kind == 0) cost = 0;
    if (kind == 1) cost = -cost;
    const TimePoint end = core.execute(cost);
    if (cost > 0) {
      const TimePoint start = end - cost;
      log.emplace_back(start, end);
      if (!merged.empty() && merged.back().second == start) {
        merged.back().second = end;
      } else {
        merged.emplace_back(start, end);
      }
    }
    EXPECT_LE(core.interval_count(), merged.size());
    pruned = merged.size() - core.interval_count();
    const TimePoint now = loop.now();
    // Earliest window start the retained intervals fully account for.
    const TimePoint covered_from =
        pruned == 0 ? std::numeric_limits<TimePoint>::min()
                    : merged[pruned - 1].second;
    const auto check = [&](Duration window, bool record) {
      const double got = core.utilization(window);
      if (window <= 0) {
        EXPECT_EQ(got, 0.0) << "window " << window << " at job " << i;
        return;
      }
      const TimePoint lo = now - window;
      if (lo >= covered_from) {
        EXPECT_EQ(got, static_cast<double>(overlap(log, lo, now)) /
                           static_cast<double>(window))
            << "window " << window << " at job " << i;
      } else if (record) {
        beyond.push_back(got);
      }
    };
    check(0, false);
    check(-rng.uniform_int(1, mean_cost), false);
    check(1, false);
    check(rng.uniform_int(1, mean_cost), false);  // sub-interval length
    if (i % 64 == 0) {  // anywhere inside the retained history
      const Duration reach =
          pruned == 0 ? now + 2 * mean_cost : now - covered_from;
      check(rng.uniform_int(1, std::max<Duration>(1, reach)), false);
    }
    if (i % checkpoint == checkpoint - 1) {
      check(seconds(5), true);
      check(history + mean_cost, true);
    }
  }
  return pruned;
}

TEST(CpuCore, UtilizationMatchesReference) {
  std::vector<double> beyond;
  // Time pruning: a 50 us history over ~15 ms of jobs.
  EXPECT_GT(drive_utilization(microseconds(50), 4000, microseconds(3),
                              /*gap_share=*/0.4, /*checkpoint=*/500, beyond),
            0u);
  // Hard-cap pruning: a one-year history, mostly gapped jobs, more merged
  // intervals than kMaxIntervals.
  EXPECT_GT(drive_utilization(365 * 24 * 60 * kMinute, 110000,
                              microseconds(1), /*gap_share=*/0.9,
                              /*checkpoint=*/10000, beyond),
            0u);
  // Reads that reach past the history or the cap, recorded from the
  // earlier per-query two-binary-search implementation.
  const std::vector<double> expected = {
      5.1263999999999997e-06,
      4.3317999999999998e-06,
      0.40866037735849059,
      6.7673999999999998e-06,
      3.8928000000000002e-06,
      0.36724528301886794,
      3.5213999999999999e-06,
      5.3565999999999997e-06,
      4.2795999999999996e-06,
      4.6024000000000002e-06,
      0.014267334,
      2.2620709665143881e-09,
      0.014264328200000001,
      2.261594400050664e-09,
  };
  ASSERT_EQ(beyond.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(beyond[i], expected[i]) << "read " << i;
  }
}

TEST(CpuCore, TrackedReadsCountWorkSinceTrackingBegan) {
  // An untracked core runs a random job stream, then starts tracking with
  // work still queued. Every later read equals a linear overlap sum over
  // the part of the window since tracking began: earlier work is not
  // visible, queued work is.
  EventLoop loop;
  CpuCore core(loop);
  Rng rng(61);
  const Duration mean_cost = microseconds(3);
  std::vector<std::pair<TimePoint, TimePoint>> log;
  TimePoint tracked_at = 0;
  for (int i = 0; i < 3000; ++i) {
    if (i == 1000) {
      ASSERT_EQ(core.interval_count(), 0u);
      core.execute(mean_cost);  // queue work across the tracking instant
      log.emplace_back(core.free_at() - mean_cost, core.free_at());
      ASSERT_GT(core.backlog(), 0);
      core.track_utilization(seconds(1));  // longer than the whole run
      tracked_at = loop.now();
    }
    const TimePoint idle_at = std::max(loop.now(), core.free_at());
    if (rng.uniform() < 0.4) {
      loop.run_until(idle_at + rng.uniform_int(1, 3 * mean_cost));
    } else if (rng.uniform() < 0.5) {
      loop.run_until(idle_at);  // back-to-back
    } else {
      loop.run_until(loop.now() + rng.uniform_int(0, core.backlog()));
    }
    const Duration cost = rng.uniform_int(1, 2 * mean_cost);
    const TimePoint end = core.execute(cost);
    log.emplace_back(end - cost, end);
    if (i < 1000) continue;
    const TimePoint now = loop.now();
    for (const Duration window :
         {rng.uniform_int(1, 3 * mean_cost), rng.uniform_int(1, now + 1),
          now - tracked_at + 1}) {
      const TimePoint lo = std::max(now - window, tracked_at);
      EXPECT_EQ(core.utilization(window),
                static_cast<double>(overlap(log, lo, now)) /
                    static_cast<double>(window))
          << "window " << window << " at job " << i;
    }
  }
}

}  // namespace
}  // namespace canal::sim
