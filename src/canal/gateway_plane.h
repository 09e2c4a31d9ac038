// The gateway-attached half of the Canal-style dataplanes: CanalMesh
// (on-node proxies in front of the gateway) and ProxylessMesh (DNS
// redirect straight to it) differ only in what sits on the user's nodes.
// Everything they do with the multi-tenant mesh gateway lives here once:
// per-service VNIs, service registration and placement, the config-epoch
// fan-out over backend groups, outlier ejection across replicas, VXLAN
// encapsulation toward the gateway VIP, and reading the GatewayOutcome.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "canal/gateway.h"
#include "mesh/dataplane.h"
#include "net/packet.h"
#include "sim/flat_map.h"

namespace canal::core {

/// The gateway's anycast VIP: DNS and the on-node proxies' L4 routes point
/// every service here.
inline constexpr net::Ipv4Addr kGatewayVip{100, 64, 0, 1};

class GatewayPlane : public mesh::MeshDataplane {
 public:
  [[nodiscard]] MeshGateway& gateway() noexcept { return gateway_; }
  [[nodiscard]] std::uint32_t vni_of(net::ServiceId service) const;

  /// One epoch target per backend group hosting services: all replicas of
  /// a backend share one configuration set (Fig 8), so the apply thunk
  /// fans the delivered config out across every replica engine of that
  /// backend at once. The group carries the tenant's full config for
  /// simplicity — the saving comes from pushing to O(backends), not
  /// O(pods).
  [[nodiscard]] std::vector<k8s::EpochTarget> config_epoch_targets(
      const EngineApply& apply) const final;
  /// User-side mesh CPU plus the cloud-side gateway's.
  [[nodiscard]] double total_cpu_core_seconds() const final {
    return user_cpu_core_seconds() + gateway_.total_cpu_core_seconds();
  }

 protected:
  /// The request frame of a gateway-attached plane: it also records the
  /// replica and backend that served the request.
  struct Frame : mesh::RequestFrame {
    GatewayReplica* replica = nullptr;
    GatewayBackend* backend = nullptr;
  };

  GatewayPlane(sim::EventLoop& loop, k8s::Cluster& cluster,
               MeshGateway& gateway)
      : MeshDataplane(loop, cluster), gateway_(gateway) {}

  /// Assigns each cluster service a VNI, registers it with the gateway and
  /// places it (home AZ = the AZ of the service's first endpoint).
  /// Idempotent: services already registered or placed are left alone.
  void install_services();

  /// Appends the endpoint-delta targets `new_pods` cause: every gateway
  /// backend hosting one of their services, services in first-seen order.
  void append_backend_targets(const std::vector<k8s::Pod*>& new_pods,
                              std::vector<k8s::ConfigTarget>& targets) const;

  /// The request's packet on the tenant's VXLAN network toward the gateway
  /// VIP; the vSwitch maps the VNI to the global service ID before the
  /// gateway VM sees the packet.
  [[nodiscard]] net::Packet encapsulate(const mesh::RequestFrame& f) const;

  /// Reads the gateway's answer into `f`, then resolves the target as
  /// resolve_target() does. The serving replica is recorded before any
  /// early return: when its L7 engine answered with an error (e.g. a 4xx
  /// direct response), it still opened a session the plane must close.
  std::optional<int> on_gateway(Frame& f, const GatewayOutcome& outcome) {
    f.replica = outcome.replica;
    f.backend = outcome.backend;
    return resolve_target(f, outcome);
  }

  /// Outlier ejection reaches every gateway replica hosting the service
  /// (all backends in its placement), bumping each replica engine's
  /// cluster version so the flow fastpath revalidates.
  void apply_endpoint_health(net::ServiceId service,
                             std::uint64_t endpoint_key,
                             bool healthy) final;

  MeshGateway& gateway_;

 private:
  sim::FlatHashMap<net::ServiceId, std::uint32_t, net::IdHash> vnis_;
};

}  // namespace canal::core
