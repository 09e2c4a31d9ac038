#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace canal::sim {

void Histogram::record(double value) {
  samples_.push_back(value);
  sorted_valid_ = false;
}

void Histogram::clear() noexcept {
  samples_.clear();
  sorted_.clear();
  sorted_valid_ = false;
}

void Histogram::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Histogram::min() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double Histogram::max() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double Histogram::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double Histogram::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::vector<std::pair<double, double>> Histogram::cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  ensure_sorted();
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points);
    const auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(sorted_.size() - 1) + 0.5);
    out.emplace_back(sorted_[std::min(idx, sorted_.size() - 1)], frac);
  }
  return out;
}

void TimeSeries::record(TimePoint t, double value) {
  samples_.push_back({t, value});
  prune(t);
}

void TimeSeries::prune(TimePoint now) {
  if (max_age_ <= 0) return;
  while (!samples_.empty() && samples_.front().t < now - max_age_) {
    samples_.pop_front();
  }
}

double TimeSeries::sum_in(TimePoint lo, TimePoint hi) const {
  double sum = 0.0;
  for (const auto& s : samples_) {
    if (s.t >= lo && s.t <= hi) sum += s.value;
  }
  return sum;
}

double TimeSeries::mean_in(TimePoint lo, TimePoint hi) const {
  const std::size_t n = count_in(lo, hi);
  return n == 0 ? 0.0 : sum_in(lo, hi) / static_cast<double>(n);
}

double TimeSeries::max_in(TimePoint lo, TimePoint hi) const {
  double best = 0.0;
  bool any = false;
  for (const auto& s : samples_) {
    if (s.t >= lo && s.t <= hi) {
      best = any ? std::max(best, s.value) : s.value;
      any = true;
    }
  }
  return best;
}

std::size_t TimeSeries::count_in(TimePoint lo, TimePoint hi) const {
  std::size_t n = 0;
  for (const auto& s : samples_) {
    if (s.t >= lo && s.t <= hi) ++n;
  }
  return n;
}

std::optional<double> TimeSeries::value_at(TimePoint t) const {
  std::optional<double> out;
  for (const auto& s : samples_) {
    if (s.t <= t) out = s.value;
    else break;
  }
  return out;
}

double TimeSeries::trend_in(TimePoint lo, TimePoint hi) const {
  // Least squares slope of value vs time (seconds).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (const auto& s : samples_) {
    if (s.t < lo || s.t > hi) continue;
    const double x = to_seconds(s.t - lo);
    sx += x;
    sy += s.value;
    sxx += x * x;
    sxy += x * s.value;
    ++n;
  }
  if (n < 2) return 0.0;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

void RateMeter::prune(TimePoint now) const {
  while (!events_.empty() && events_.front().first < now - window_) {
    window_sum_ -= events_.front().second;
    events_.pop_front();
  }
  if (events_.empty()) window_sum_ = 0.0;  // cancel float drift
}

void RateMeter::record(TimePoint t, double weight) {
  events_.emplace_back(t, weight);
  window_sum_ += weight;
  ++total_;
  prune(t);
}

double RateMeter::rate(TimePoint now) const {
  prune(now);
  return window_sum_ / to_seconds(window_);
}

double pearson(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

HwhmWindow hwhm_window(const TimeSeries& series) {
  HwhmWindow out;
  const auto& samples = series.samples();
  if (samples.empty()) return out;
  double lo = samples.front().value;
  double hi = samples.front().value;
  std::size_t peak_idx = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].value > hi) {
      hi = samples[i].value;
      peak_idx = i;
    }
    lo = std::min(lo, samples[i].value);
  }
  const double half = lo + (hi - lo) / 2.0;
  std::size_t start = peak_idx;
  while (start > 0 && samples[start - 1].value >= half) --start;
  std::size_t end = peak_idx;
  while (end + 1 < samples.size() && samples[end + 1].value >= half) ++end;
  out.start = samples[start].t;
  out.end = samples[end].t;
  out.peak = samples[peak_idx].t;
  return out;
}

}  // namespace canal::sim
