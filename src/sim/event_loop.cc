#include "sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace canal::sim {

EventHandle EventLoop::post_at(TimePoint when, Callback cb) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(cb));
    gens_.push_back(0);
  }
  const HeapKey key{when, next_seq_++, slot, gens_[slot]};
  if (when == now_) {
    // Same-tick event: FIFO bucket, no heap sift. seq still drawn from the
    // global counter so pop order matches a pure heap exactly (see header).
    bucket_.push_back(key);
  } else {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return EventHandle(this, slot, key.gen);
}

bool EventLoop::fire(HeapKey key) {
  // Move the payload out and recycle the slot before invoking: the callback
  // may schedule new events, which can reuse this slot or grow the slab.
  Callback cb = std::move(slab_[key.slot]);
  free_slots_.push_back(key.slot);
  if (gens_[key.slot] != key.gen) return false;  // cancelled
  ++gens_[key.slot];
  cb();
  return true;
}

std::size_t EventLoop::drain(TimePoint deadline) {
  std::size_t count = 0;
  for (;;) {
    if (heap_.empty() || heap_.front().when > now_) {
      // Heap entries keyed at now_ predate every bucket entry (smaller seq;
      // see header), so the bucket runs only once they have drained.
      if (bucket_cursor_ < bucket_.size()) {
        if (now_ > deadline) break;  // bucket entries run at exactly now_
        if (fire(bucket_[bucket_cursor_++])) ++count;
        continue;
      }
      if (bucket_cursor_ != 0) {
        bucket_.clear();
        bucket_cursor_ = 0;
      }
      if (heap_.empty() || heap_.front().when > deadline) break;
    }
    const HeapKey key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    now_ = key.when;
    if (fire(key)) ++count;
  }
  return count;
}

std::size_t EventLoop::run() {
  return drain(std::numeric_limits<TimePoint>::max());
}

std::size_t EventLoop::run_until(TimePoint deadline) {
  const std::size_t count = drain(deadline);
  if (now_ < deadline) now_ = deadline;
  return count;
}

void PeriodicTimer::start(Duration initial_delay) {
  stop();
  arm(initial_delay);
}

void PeriodicTimer::arm(Duration delay) {
  handle_ = loop_.post(delay, [this] {
    const EventHandle self = handle_;
    tick_();
    // A tick that stopped or restarted the timer has replaced handle_.
    if (handle_ == self) arm(period_);
  });
}

}  // namespace canal::sim
