#include "probe.h"

#include <time.h>

#include <algorithm>
#include <functional>

namespace perfbench {
namespace {

constexpr std::uint32_t kEvents = 4096;
constexpr std::uint64_t kKeys = 16384;
constexpr std::uint64_t kKeyStride = 2654435761u;
constexpr std::size_t kRing = 256;
constexpr int kSteps = 75'000;

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

SpeedProbe::SpeedProbe() : ring_(kRing, nullptr) {
  heap_.reserve(kEvents);
  for (std::uint64_t k = 0; k < kKeys; ++k) map_[k * kKeyStride] = k;
}

SpeedProbe::~SpeedProbe() {
  for (char* p : ring_) delete[] p;
}

double SpeedProbe::run_ms() {
  pass(kSteps / 2);
  const double t0 = thread_cpu_ms();
  pass(kSteps);
  return thread_cpu_ms() - t0;
}

void SpeedProbe::pass(int steps) {
  const auto later = std::greater<>();
  std::uint64_t x = 88172645463325252ull;
  heap_.clear();
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    heap_.emplace_back(xorshift(x) % 100'000, i);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  for (int step = 0; step < steps; ++step) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [when, id] = heap_.back();
    heap_.pop_back();
    const std::uint64_t r = xorshift(x);
    const auto it = map_.find((r % kKeys) * kKeyStride);
    if (it != map_.end()) sink_ += it->second;
    char*& slot = ring_[static_cast<std::size_t>(step) % kRing];
    delete[] slot;
    slot = new char[64 + (r & 127)];
    slot[0] = static_cast<char>(sink_);
    heap_.emplace_back(when + 1 + r % 1000, id);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
}

}  // namespace perfbench
