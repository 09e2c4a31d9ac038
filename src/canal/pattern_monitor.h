// Traffic-pattern monitoring with transparent migration (§4.2 + §6.3).
//
// Periodically samples the traffic patterns of the top services on each
// backend; when services sharing a backend peak in phase, plans a scatter
// (InPhaseMigrationPlanner) and *executes* it transparently: the service is
// extended onto the complementary target backend, new connections shift
// there, and once the source's sessions for the service have drained the
// source placement is retired.
#pragma once

#include <memory>
#include <vector>

#include "canal/inphase_migration.h"

namespace canal::core {

struct PatternMonitorConfig {
  /// How often patterns are (re)evaluated.
  sim::Duration evaluation_period = sim::hours(1);
  /// Backends below this utilization are never scattered.
  double min_source_utilization = 0.3;
  /// Window over which source utilization is judged (diurnal loads are
  /// bursty; judge over a long window). The monitor keeps this much busy
  /// history on every gateway replica core.
  sim::Duration utilization_window = sim::hours(1);
  InPhaseConfig planner;
};

struct ExecutedMigration {
  MigrationPlan plan;
  sim::TimePoint started = 0;
  std::optional<sim::TimePoint> completed;  ///< source fully drained
};

class TrafficPatternMonitor {
 public:
  TrafficPatternMonitor(sim::EventLoop& loop, MeshGateway& gateway,
                        PatternMonitorConfig config);
  ~TrafficPatternMonitor();

  void start();
  void stop();
  /// One synchronous evaluation pass over all backends.
  void evaluate_now();

  [[nodiscard]] const std::vector<ExecutedMigration>& migrations()
      const noexcept {
    return migrations_;
  }
  [[nodiscard]] std::size_t in_progress() const;

 private:
  void evaluate_backend(GatewayBackend& backend);
  void execute(const MigrationPlan& plan);
  void poll_drain(std::size_t index);

  sim::EventLoop& loop_;
  MeshGateway& gateway_;
  PatternMonitorConfig config_;
  InPhaseMigrationPlanner planner_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::vector<ExecutedMigration> migrations_;
};

}  // namespace canal::core
