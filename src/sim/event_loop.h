// Discrete-event simulation core.
//
// A binary-heap scheduler over (time, sequence) keys. Ties are broken by
// insertion order so runs are deterministic. Events are arbitrary callables;
// higher-level components (CPU cores, links, timers) are built on top.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace canal::sim {

/// Handle used to cancel a scheduled event. Cancelling is O(1); the event
/// stays in the heap but is skipped when popped.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly or on a
  /// default-constructed handle.
  void cancel() noexcept {
    if (alive_) *alive_ = false;
  }

  /// True if the event is still pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const noexcept { return alive_ && *alive_; }

 private:
  friend class EventLoop;
  explicit EventHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::shared_ptr<bool> alive_;
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

  /// Schedules `cb` to run at absolute time `when` (clamped to now()).
  /// The handle is the only reason to call this rather than post_at (its
  /// liveness flag costs one allocation), hence [[nodiscard]].
  [[nodiscard]] EventHandle schedule_at(TimePoint when, Callback cb);

  /// schedule_at reusing a caller-owned liveness flag. Repeating timers
  /// allocate their flag once and re-arm with it forever instead of paying
  /// one shared_ptr control block per tick. The flag is set true here; the
  /// loop sets it false when the event fires (or cancel() does).
  [[nodiscard]] EventHandle schedule_at(TimePoint when, Callback cb,
                                        const std::shared_ptr<bool>& alive);

  /// Schedules `cb` to run `delay` after now().
  [[nodiscard]] EventHandle schedule(Duration delay, Callback cb) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Fire-and-forget variant of schedule_at: no cancellation handle, so no
  /// per-event liveness allocation. Use on hot paths that never cancel.
  void post_at(TimePoint when, Callback cb);

  /// Fire-and-forget variant of schedule().
  void post(Duration delay, Callback cb) {
    post_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
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
  // The heap sifts small (when, seq, slot) keys; the callback payloads
  // (~10x larger, with inline capture storage) sit in a stable slab indexed
  // by `slot` and are never moved by heap operations. Slots are recycled
  // through a free list, so steady-state scheduling touches no allocator.
  // Ordering is identical to a direct heap of events: (when, seq) keys are
  // unique and insertion-ordered, so simulated behaviour is unchanged.
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
  struct Event {
    Callback cb;
    std::shared_ptr<bool> alive;
  };
  struct HeapKey {
    TimePoint when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const HeapKey& a, const HeapKey& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot(Callback cb, std::shared_ptr<bool> alive);
  void enqueue(TimePoint when, std::uint32_t slot);
  bool pop_and_run();
  bool run_bucket_front();

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<HeapKey> heap_;
  std::vector<HeapKey> bucket_;      // FIFO of events at exactly now_
  std::size_t bucket_cursor_ = 0;    // next bucket entry to run
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
};

/// Repeating timer built on EventLoop. Fires `period` apart until stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop& loop, Duration period, std::function<void()> tick)
      : loop_(loop), period_(period), tick_(std::move(tick)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Schedules the first tick `initial_delay` from now.
  void start(Duration initial_delay = 0);

  /// Cancels future ticks.
  void stop() noexcept { handle_.cancel(); }

  [[nodiscard]] bool running() const noexcept { return handle_.pending(); }

 private:
  void arm(Duration delay);

  EventLoop& loop_;
  Duration period_;
  std::function<void()> tick_;
  EventHandle handle_;
  // One liveness flag for the timer's lifetime, re-armed every tick — a
  // periodic timer would otherwise allocate a fresh control block per tick
  // forever (see EventLoop::schedule_at's shared-alive overload).
  std::shared_ptr<bool> alive_;
};

}  // namespace canal::sim
