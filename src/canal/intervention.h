// Anomaly-detection-triggered rapid intervention (§4.2, §6.2).
//
// Backend-level alerts are classified (telemetry::classify_backend_anomaly)
// and answered with the matching response:
//   normal growth     -> precise scaling (canal/scaling.h),
//   session flood     -> lossy sandbox migration: sessions reset, service
//                        rebuilt in the sandbox within seconds,
//   expensive query   -> lossless sandbox migration: new sessions go to the
//                        sandbox, existing flows drain by idle timeout
//                        (median ~20 min),
//   undetermined      -> flagged for the operator, no automatic action.
// Tenant-level protection throttles at the gateway (early rate limiting at
// the redirector) when the user's own cluster nears saturation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "canal/gateway.h"
#include "canal/scaling.h"
#include "telemetry/anomaly.h"

namespace canal::core {

enum class MigrationKind : std::uint8_t { kLossy, kLossless };

struct MigrationRecord {
  MigrationKind kind = MigrationKind::kLossy;
  net::ServiceId service{};
  sim::TimePoint started = 0;
  std::optional<sim::TimePoint> completed;
  std::size_t sessions_reset = 0;  ///< lossy only
};

/// Executes and tracks sandbox migrations.
class MigrationController {
 public:
  MigrationController(sim::EventLoop& loop, MeshGateway& gateway)
      : loop_(loop), gateway_(gateway) {}

  /// Resets every session of the service and rebuilds it in the sandbox.
  /// Completes within seconds (config push to the sandbox).
  void migrate_lossy(net::ServiceId service, net::AzId az);

  /// Moves new sessions to the sandbox; existing flows keep draining on
  /// the old backends and the migration completes when they have aged out.
  void migrate_lossless(net::ServiceId service, net::AzId az);

  [[nodiscard]] const std::vector<MigrationRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t in_progress() const;

 private:
  void poll_drain(std::size_t record_index,
                  std::vector<net::BackendId> old_backends);

  sim::EventLoop& loop_;
  MeshGateway& gateway_;
  std::vector<MigrationRecord> records_;
};

struct ResponderConfig {
  double alert_threshold = 0.7;
  sim::Duration check_period = sim::seconds(5);
  sim::Duration snapshot_window = sim::seconds(5);
  telemetry::AnomalyThresholds thresholds;
};

struct InterventionEvent {
  telemetry::AnomalyKind anomaly = telemetry::AnomalyKind::kUndetermined;
  net::BackendId backend{};
  net::ServiceId service{};
  sim::TimePoint time = 0;
  std::string action;
};

/// Watches backend water levels, classifies anomalies, and dispatches the
/// response (scale / migrate / flag).
class AnomalyResponder {
 public:
  AnomalyResponder(sim::EventLoop& loop, MeshGateway& gateway,
                   PreciseScaler& scaler, MigrationController& migrations,
                   ResponderConfig config);
  ~AnomalyResponder();

  void start();
  void stop();
  void check_now() { sweep(); }

  [[nodiscard]] const std::vector<InterventionEvent>& events() const noexcept {
    return events_;
  }

 private:
  void sweep();
  void respond(GatewayBackend& backend, telemetry::AnomalyKind kind,
               const telemetry::BackendSnapshot& snap);
  [[nodiscard]] net::ServiceId dominant_new_session_service(
      GatewayBackend& backend) const;

  sim::EventLoop& loop_;
  MeshGateway& gateway_;
  PreciseScaler& scaler_;
  MigrationController& migrations_;
  ResponderConfig config_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::vector<InterventionEvent> events_;
  std::unordered_map<net::BackendId, telemetry::BackendSnapshot, net::IdHash>
      baselines_;
};

/// Tenant-level guard (§4.2): when the tenant's own K8s cluster approaches
/// saturation, throttle its services at the gateway and pause mesh-side
/// auto-scaling; lift the throttle once the cluster recovers.
///
/// The guard reads node CPU utilization over kClusterWindow, so its
/// constructor makes the cluster track that much node history, on nodes
/// added later too. Node CPU work done before the guard attaches is not
/// visible to it; work still queued at that moment is.
class TenantGuard {
 public:
  /// Trailing window of node CPU utilization the guard averages.
  static constexpr sim::Duration kClusterWindow = sim::seconds(5);

  struct Config {
    double cluster_alert_utilization = 0.9;
    double cluster_recovered_utilization = 0.6;
    /// Throttle limit as a fraction of the service's current RPS.
    double throttle_fraction = 0.5;
    sim::Duration check_period = sim::seconds(5);
  };

  TenantGuard(sim::EventLoop& loop, MeshGateway& gateway,
              k8s::Cluster& cluster, Config config);
  ~TenantGuard();

  void start();
  void stop();
  void check_now() { sweep(); }

  [[nodiscard]] bool throttling() const noexcept { return throttling_; }

 private:
  void sweep();
  [[nodiscard]] double cluster_utilization() const;

  sim::EventLoop& loop_;
  MeshGateway& gateway_;
  k8s::Cluster& cluster_;
  Config config_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  bool throttling_ = false;
};

}  // namespace canal::core
