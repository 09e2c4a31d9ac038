#include "sim/cpu.h"

#include <algorithm>
#include <stdexcept>

namespace canal::sim {

TimePoint CpuCore::execute(Duration cost, Callback done,
                           Duration* queue_wait) {
  if (cost < 0) cost = 0;
  const TimePoint start = std::max(free_at_, loop_.now());
  if (queue_wait != nullptr) *queue_wait = start - loop_.now();
  const TimePoint end = start + cost;
  free_at_ = end;
  total_busy_ += cost;
  ++jobs_;
  if (cost > 0 && history_ > 0) {
    if (!intervals_.empty() && intervals_.back().end == start) {
      intervals_.back().end = end;  // coalesce back-to-back work
      cum_.back() += cost;
    } else {
      intervals_.push_back({start, end});
      cum_.push_back((cum_.empty() ? dropped_cum_ : cum_.back()) + cost);
    }
    prune(loop_.now() - history_);
  }
  if (done) loop_.post_at(end, std::move(done));
  return end;
}

void CpuCore::track_utilization(Duration window) {
  if (window <= history_) return;
  if (history_ <= 0) {
    // History starts now. Busy time through now counts as already pruned;
    // work still queued keeps the core busy without a gap from now to
    // free_at_ (FCFS), so it is one retained interval.
    const TimePoint now = loop_.now();
    dropped_cum_ = total_busy_;
    if (free_at_ > now) {
      dropped_cum_ -= free_at_ - now;
      intervals_.push_back({now, free_at_});
      cum_.push_back(total_busy_);
    }
  }
  history_ = window;
}

void CpuCore::prune(TimePoint horizon) {
  while (!intervals_.empty() && intervals_.front().end < horizon) {
    dropped_cum_ = cum_.front();
    intervals_.pop_front();
    cum_.pop_front();
  }
  // Time-based pruning alone cannot bound memory when every retained
  // interval is younger than `history`; enforce the hard cap by dropping
  // the oldest entries.
  while (intervals_.size() > kMaxIntervals) {
    dropped_cum_ = cum_.front();
    intervals_.pop_front();
    cum_.pop_front();
  }
}

double CpuCore::utilization(Duration window) const {
  if (history_ <= 0) {
    throw std::logic_error(
        "CpuCore::utilization on a core that keeps no busy history; the "
        "reader must call track_utilization first");
  }
  if (window <= 0 || intervals_.empty()) return 0.0;
  // busy = B(hi) - B(lo), where B(t) is the retained busy time through t
  // on top of dropped_cum_. Every interval starts at or before the `now`
  // it was recorded at, so only the newest can run past hi = now, and it
  // ends at free_at_: B(hi) comes from the running total alone. B(lo) is
  // dropped_cum_ whenever lo is at or before the oldest retained start;
  // otherwise one binary search finds the first interval ending after lo
  // and the prefix-sum column plus a clip gives it. Pure integer
  // arithmetic, so the result is bit-identical to a linear overlap sum.
  const TimePoint hi = loop_.now();
  const TimePoint lo = hi - window;
  Duration busy = total_busy_ - (free_at_ > hi ? free_at_ - hi : 0);
  if (lo <= intervals_.front().start) {
    busy -= dropped_cum_;
  } else {
    const std::size_t n = intervals_.size();
    std::size_t first = 0;
    for (std::size_t step = n; step > 0; step /= 2) {  // first with end > lo
      while (first + step <= n && intervals_[first + step - 1].end <= lo) {
        first += step;
      }
    }
    if (first == n) return 0.0;
    busy -= first == 0 ? dropped_cum_ : cum_[first - 1];
    if (intervals_[first].start < lo) busy -= lo - intervals_[first].start;
  }
  return static_cast<double>(busy) / static_cast<double>(window);
}

CpuSet::CpuSet(EventLoop& loop, std::size_t cores, Duration history) {
  cores_.reserve(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    cores_.push_back(std::make_unique<CpuCore>(loop, history));
  }
}

std::size_t CpuSet::least_loaded() const {
  std::size_t best = 0;
  TimePoint best_free = std::numeric_limits<TimePoint>::max();
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i]->free_at() < best_free) {
      best_free = cores_[i]->free_at();
      best = i;
    }
  }
  return best;
}

TimePoint CpuSet::execute(Duration cost, Callback done,
                          Duration* queue_wait) {
  return cores_[least_loaded()]->execute(cost, std::move(done), queue_wait);
}

TimePoint CpuSet::execute_pinned(std::uint64_t hash, Duration cost,
                                 Callback done,
                                 Duration* queue_wait) {
  return cores_[hash % cores_.size()]->execute(cost, std::move(done),
                                               queue_wait);
}

double CpuSet::utilization(Duration window) const {
  if (cores_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& c : cores_) sum += c->utilization(window);
  return sum / static_cast<double>(cores_.size());
}

void CpuSet::track_utilization(Duration window) {
  for (auto& c : cores_) c->track_utilization(window);
}

double CpuSet::total_busy_core_seconds() const {
  double sum = 0.0;
  for (const auto& c : cores_) sum += to_seconds(c->total_busy());
  return sum;
}

}  // namespace canal::sim
