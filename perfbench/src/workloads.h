// The benchmark's three workloads. Each call builds a fresh world, drives
// it open loop on simulated time to completion and returns one repeat's
// measurements. Load generators re-arm themselves (one outstanding event
// per flow) instead of pre-posting their whole schedule, so set-up time
// and peak RSS measure the simulator rather than the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "spans.h"

namespace perfbench {

struct Repeat {
  /// Simulated outputs. A change that only speeds up the simulator leaves
  /// them identical; every repeat of a run must reproduce them exactly.
  std::map<std::string, double> checked;
  /// Per-layer counters (deterministic) and host timings of single layers.
  std::map<std::string, double> layer;

  std::uint64_t issued = 0;     // requests the generators sent
  std::uint64_t ok = 0;         // completions with an ok status
  std::uint64_t failed = 0;     // completions with any other status
  std::uint64_t duplicate = 0;  // completions of an already-completed id
  std::uint64_t missing = 0;    // ids that never completed

  double setup_s = 0.0;        // host wall, workload start -> first event
  double drain_wall_s = 0.0;   // host wall of the event-loop drain(s)
  double drain_cpu_s = 0.0;    // process CPU (all threads) of the drain(s)
  bool single_threaded = true;  // false when a thread pool ran the drain
  std::uint64_t allocs = 0;    // global operator-new calls in the drain(s)
};

/// `tracer` is null on untraced repeats; when set, spans are recorded and
/// the timed replays run after the drain.
Repeat run_canal_steady(std::uint64_t seed, Tracer* tracer);
Repeat run_plane_churn(std::uint64_t seed, Tracer* tracer);
Repeat run_region_sharded(std::uint64_t seed, std::size_t shards,
                          Tracer* tracer);

/// Process CPU time (all threads), seconds.
[[nodiscard]] double process_cpu_s();

}  // namespace perfbench
