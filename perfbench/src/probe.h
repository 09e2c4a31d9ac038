// Host speed probe.
//
// On a shared host the simulator's cost per request swings by up to 2x in
// phases lasting seconds to minutes, as neighbours contend for the core's
// caches and the memory system. A single run cannot average those phases
// out. The benchmark therefore runs this fixed kernel on the main thread
// before and after every repeat and, when the repeat ran on that thread,
// scales its host times to a nominal probe time.
//
// The kernel does the simulator's dominant kinds of work, all on state
// owned here and independent of src/: a binary heap of timestamped events,
// lookups in a hash map of 16k entries, and small heap allocations and
// frees. A change to the simulator therefore moves the measured times but
// not the probe.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Probe CPU time that maps to a speed factor of 1: roughly one pass on
  /// an uncontended core of the 4-vCPU Xeon VM the benchmark was tuned on.
  static constexpr double kNominalMs = 12.0;

  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Runs one fixed pass, after an untimed warm-up pass that brings the
  /// probe's state back into cache (a large repeat evicts it); returns the
  /// timed pass's thread CPU time in milliseconds.
  double run_ms();

 private:
  void pass(int steps);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::vector<char*> ring_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
