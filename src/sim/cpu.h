// CPU cores as FCFS queueing servers.
//
// A core accepts work items with a service cost; completion time is
// max(now, core-free-time) + cost, so queueing delay and saturation emerge
// naturally. A core keeps busy history only once a reader asks for it with
// `track_utilization`: then busy intervals are retained (bounded) so the
// reader can ask for utilization over trailing windows — the signal Canal's
// water level, precise scaling and tenant guard operate on. An untracked
// core records nothing beyond its running totals, and reading its
// utilization throws.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/ring_deque.h"
#include "sim/time.h"

namespace canal::sim {

/// A single simulated CPU core with an unbounded FCFS run queue.
class CpuCore {
 public:
  /// `history` bounds how far back utilization queries may reach; 0 keeps
  /// no history, so `execute` updates only the running totals.
  explicit CpuCore(EventLoop& loop, Duration history = 0)
      : loop_(loop), history_(history) {}

  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  /// Enqueues a job costing `cost`; runs `done` (if any) at completion.
  /// Returns the completion time. When `queue_wait` is non-null it receives
  /// the FCFS wait this job spends queued behind earlier work (completion ==
  /// now + *queue_wait + cost) — the split request tracing uses to separate
  /// waiting from working.
  TimePoint execute(Duration cost, Callback done = nullptr,
                    Duration* queue_wait = nullptr);

  /// Completion time `execute(cost)` would return, without enqueueing.
  [[nodiscard]] TimePoint completion_if(Duration cost) const noexcept {
    const TimePoint start = free_at_ > loop_.now() ? free_at_ : loop_.now();
    return start + cost;
  }

  /// Time at which the core next becomes idle.
  [[nodiscard]] TimePoint free_at() const noexcept { return free_at_; }

  /// Outstanding queued work (0 when idle).
  [[nodiscard]] Duration backlog() const noexcept {
    return free_at_ > loop_.now() ? free_at_ - loop_.now() : 0;
  }

  /// Starts (or extends) busy history so utilization reads may reach back
  /// `window`. History only ever grows. Busy time the core had finished
  /// before tracking began is not visible to reads; work still queued at
  /// that moment is.
  void track_utilization(Duration window);

  /// Fraction of [t - window, t] the core was (or is committed to be) busy,
  /// counting only work since tracking began. Throws std::logic_error on a
  /// core that keeps no history.
  [[nodiscard]] double utilization(Duration window) const;

  /// Total busy time ever committed to this core.
  [[nodiscard]] Duration total_busy() const noexcept { return total_busy_; }

  /// Jobs accepted so far.
  [[nodiscard]] std::uint64_t jobs() const noexcept { return jobs_; }

  /// Busy intervals currently retained for utilization queries: none on an
  /// untracked core, else bounded by both the `history` window and
  /// kMaxIntervals.
  [[nodiscard]] std::size_t interval_count() const noexcept {
    return intervals_.size();
  }

  /// Hard cap on retained busy intervals. Time-based pruning alone cannot
  /// bound memory on an idle-free run whose jobs never coalesce (each job
  /// separated by a gap): every interval stays inside `history`. Beyond the
  /// cap the oldest intervals are dropped, shrinking the effective lookback
  /// window but never distorting utilization over windows the retained
  /// intervals still cover.
  static constexpr std::size_t kMaxIntervals = 1 << 16;

 private:
  struct Interval {
    TimePoint start;
    TimePoint end;
  };
  void prune(TimePoint horizon);

  EventLoop& loop_;
  Duration history_;
  TimePoint free_at_ = 0;
  Duration total_busy_ = 0;
  std::uint64_t jobs_ = 0;
  // Busy intervals plus a parallel prefix-sum column: cum_[i] is the total
  // busy time of every interval ever recorded up through intervals_[i]
  // (including pruned ones, via dropped_cum_), maintained in lockstep with
  // intervals_ (push/pop/coalesce). A utilization query reads busy time
  // through `now` from total_busy_ and free_at_, and busy time through the
  // window's start from dropped_cum_ when the window reaches past the
  // oldest retained interval, else from one binary search plus cum_ — no
  // walk over the window's population. RingDeque keeps the steady-state
  // slide (push_back/pop_front) allocation-free.
  RingDeque<Interval> intervals_;
  RingDeque<Duration> cum_;
  Duration dropped_cum_ = 0;  // cum_ value of the last pruned interval
};

/// A group of cores (a VM or a node). Dispatch is least-loaded by default,
/// or pinned by hash for flow/core affinity.
class CpuSet {
 public:
  CpuSet(EventLoop& loop, std::size_t cores, Duration history = 0);

  [[nodiscard]] std::size_t size() const noexcept { return cores_.size(); }

  CpuCore& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] const CpuCore& core(std::size_t i) const { return *cores_.at(i); }

  /// Runs on the least-loaded core. Returns completion time. `queue_wait`,
  /// when non-null, receives the job's FCFS queueing delay.
  TimePoint execute(Duration cost, Callback done = nullptr,
                    Duration* queue_wait = nullptr);

  /// Runs on core `hash % size()` (flow pinning). Returns completion time.
  TimePoint execute_pinned(std::uint64_t hash, Duration cost,
                           Callback done = nullptr,
                           Duration* queue_wait = nullptr);

  /// Index of the core that would next become free.
  [[nodiscard]] std::size_t least_loaded() const;

  /// CpuCore::track_utilization on every core.
  void track_utilization(Duration window);

  /// Mean utilization across cores over the trailing window. Throws
  /// std::logic_error unless the cores track utilization.
  [[nodiscard]] double utilization(Duration window) const;

  /// Sum of busy time across cores, expressed in core-seconds.
  [[nodiscard]] double total_busy_core_seconds() const;

 private:
  std::vector<std::unique_ptr<CpuCore>> cores_;
};

}  // namespace canal::sim
