// Discrete-event simulation core.
//
// A binary-heap scheduler over (time, sequence) keys. Ties are broken by
// insertion order so runs are deterministic. Events are arbitrary callables;
// higher-level components (CPU cores, links, timers) are built on top.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace canal::sim {

class EventLoop;

/// Names one scheduled event: its slab slot plus the slot's generation at
/// scheduling time. Firing or cancelling the event moves the generation on,
/// so the handle goes stale exactly once and never reaches a later event
/// that reuses the slot. Free to copy; must not outlive its loop.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. A no-op on a default-constructed or
  /// stale handle, including from inside the event's own callback.
  void cancel() const noexcept;

  /// True while the event is pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const noexcept;

  bool operator==(const EventHandle&) const = default;

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, std::uint32_t slot, std::uint32_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}

  EventLoop* loop_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The simulation event loop. Single-threaded and deterministic.
class EventLoop {
 public:
  using Callback = sim::Callback;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `when` (clamped to now()). The
  /// handle costs nothing to make; callers that never cancel drop it.
  EventHandle post_at(TimePoint when, Callback cb);

  /// Schedules `cb` to run `delay` after now().
  EventHandle post(Duration delay, Callback cb) {
    return post_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Runs events until the queue empties. Returns the number of events run.
  std::size_t run();

  /// Runs events with time <= `deadline`, then advances now() to `deadline`.
  std::size_t run_until(TimePoint deadline);

  /// Runs events for `span` of simulated time from now().
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  /// Number of pending (possibly cancelled) events.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size() + (bucket_.size() - bucket_cursor_);
  }

  /// Earliest pending event time, or std::nullopt when the queue is empty.
  /// Cancelled events still count (they are skipped only when popped), so
  /// the value is a lower bound on the next *effective* event — which is
  /// exactly what a conservative shard scheduler needs (see shard.h).
  [[nodiscard]] std::optional<TimePoint> next_event_time() const noexcept {
    if (bucket_cursor_ < bucket_.size()) return now_;  // runs at exactly now_
    if (!heap_.empty()) return heap_.front().when;
    return std::nullopt;
  }

 private:
  friend class EventHandle;

  // The heap sifts small (when, seq, slot, gen) keys; the callback payloads
  // (~5x larger, with inline capture storage) sit in a stable slab indexed
  // by `slot` and are never moved by heap operations. Slots are recycled
  // through a free list, so steady-state scheduling touches no allocator.
  // Ordering is identical to a direct heap of events: (when, seq) keys are
  // unique and insertion-ordered, so simulated behaviour is unchanged.
  //
  // Cancellation: gens_[slot] is bumped when the slot's event fires or is
  // cancelled. A key whose `gen` no longer matches was cancelled; it is
  // skipped (and its slot recycled) when popped. A slot is recycled only
  // when its key pops, so a live key always names its own payload.
  //
  // Same-timestamp batching: an event scheduled for `now_` while the loop
  // stands at `now_` skips the heap entirely and is appended to `bucket_`,
  // a FIFO drained before time advances. This is order-exact: while now_
  // == T no event with when == T can enter the heap (it lands in the
  // bucket), so every T-keyed heap entry predates — and has a smaller seq
  // than — every bucket entry, and draining heap-T-entries first, then the
  // bucket in append order, replays the exact (when, seq) order a pure
  // heap would have produced. The win is skipping two O(log n) sifts per
  // same-tick event — the dominant class once request fan-out chains post
  // zero-delay continuations.
  struct HeapKey {
    TimePoint when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;  // gens_[slot] when scheduled
  };
  static_assert(sizeof(HeapKey) == 24);
  struct Later {
    bool operator()(const HeapKey& a, const HeapKey& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::size_t drain(TimePoint deadline);
  bool fire(HeapKey key);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<HeapKey> heap_;
  std::vector<HeapKey> bucket_;      // FIFO of events at exactly now_
  std::size_t bucket_cursor_ = 0;    // next bucket entry to run
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> gens_;  // per-slot generation, parallel to slab_
  std::vector<std::uint32_t> free_slots_;
};

inline bool EventHandle::pending() const noexcept {
  return loop_ != nullptr && loop_->gens_[slot_] == gen_;
}

inline void EventHandle::cancel() const noexcept {
  if (pending()) ++loop_->gens_[slot_];
}

/// Repeating timer built on EventLoop. Fires `period` apart until stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop& loop, Duration period, std::function<void()> tick)
      : loop_(loop), period_(period), tick_(std::move(tick)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Schedules the first tick `initial_delay` from now, replacing any
  /// pending one.
  void start(Duration initial_delay = 0);

  /// Cancels future ticks. From inside a tick, also keeps that tick from
  /// re-arming the timer.
  void stop() noexcept {
    handle_.cancel();
    handle_ = {};
  }

  [[nodiscard]] bool running() const noexcept { return handle_.pending(); }

 private:
  void arm(Duration delay);

  EventLoop& loop_;
  Duration period_;
  std::function<void()> tick_;
  EventHandle handle_;
};

}  // namespace canal::sim
