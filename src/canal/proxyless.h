// Cloud-based proxyless service mesh (Appendix B).
//
// Some customers block ALL third-party software from their nodes — even the
// minimal on-node proxy. Proxyless mode removes it:
//   * redirection — the cloud provider configures the tenant's DNS so
//     service names resolve to the mesh gateway VIP (requires permission),
//   * authentication — per-container virtual network interfaces (ENIs)
//     with embedded anti-spoofing replace workload certificates; ENIs
//     consume node memory and IP space, so per-node limits apply,
//   * encryption — semi-managed: the customer's own TLS library (their
//     certs) or gateway-terminated TLS if they trust the provider,
//   * observability — gateway-side only (no on-node collection points).
#pragma once

#include <cstdint>
#include <optional>

#include "canal/gateway.h"
#include "canal/gateway_plane.h"
#include "mesh/dataplane.h"
#include "sim/flat_map.h"

namespace canal::core {

/// Per-container virtual NIC allocation with per-node limits (Appendix B:
/// "as the number of containers grows, the maximum limit of interfaces is
/// easily hit").
class EniRegistry {
 public:
  struct Config {
    std::size_t max_enis_per_node = 10;
    /// Node memory consumed per interface (accounting only).
    std::uint64_t memory_bytes_per_eni = 4 * 1024 * 1024;
  };

  explicit EniRegistry(Config config) : config_(config) {}
  EniRegistry() : EniRegistry(Config{}) {}

  /// Allocates an ENI for a pod; nullopt when the node's limit is hit.
  std::optional<std::uint32_t> allocate(const k8s::Pod& pod);
  void release(net::PodId pod);

  /// True if the pod owns an ENI (the authentication check: traffic from a
  /// pod without its own verified interface is rejected).
  [[nodiscard]] bool authenticated(net::PodId pod) const {
    return enis_.contains(pod);
  }
  [[nodiscard]] std::size_t allocated_on(const k8s::Node& node) const;
  [[nodiscard]] std::uint64_t memory_bytes_on(const k8s::Node& node) const {
    return allocated_on(node) * config_.memory_bytes_per_eni;
  }

 private:
  Config config_;
  sim::FlatHashMap<net::PodId, std::uint32_t, net::IdHash> enis_;
  sim::FlatHashMap<const k8s::Node*, std::size_t> per_node_;
  sim::FlatHashMap<net::PodId, const k8s::Node*, net::IdHash> node_of_;
  std::uint32_t next_eni_ = 1;
};

/// The proxyless dataplane: app -> (DNS redirect) -> mesh gateway -> server
/// app, with ENI-based authentication and no on-node proxies at all.
class ProxylessMesh final : public GatewayPlane {
 public:
  struct Config {
    /// Customer manages certificates: TLS runs in the app's own library
    /// and costs node CPU; otherwise the gateway terminates TLS and the
    /// node-side crypto cost disappears (provider is trusted).
    bool user_managed_certs = true;
    proxy::ProxyCostModel app_tls_costs;
    mesh::NetworkProfile network;
    EniRegistry::Config eni;
  };

  ProxylessMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                MeshGateway& gateway, Config config, sim::Rng rng);
  ~ProxylessMesh() override;

  /// Registers services with the gateway (VNIs, placement) and allocates
  /// ENIs for all running pods. Returns the number of pods whose ENI
  /// allocation failed (they cannot authenticate).
  std::size_t install();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "canal-proxyless";
  }
  void send_request(const mesh::RequestOptions& opts,
                    mesh::RequestCallback done) override;
  [[nodiscard]] std::vector<k8s::ConfigTarget> pod_create_targets(
      const std::vector<k8s::Pod*>& new_pods) const override;
  /// App-side TLS CPU when user_managed_certs (there is no mesh proxy, but
  /// the mesh still costs the user this much on their nodes).
  [[nodiscard]] double user_cpu_core_seconds() const override {
    return app_tls_core_seconds_;
  }
  [[nodiscard]] std::size_t proxy_count() const override { return 0; }

  [[nodiscard]] EniRegistry& enis() noexcept { return enis_; }

 private:
  Config config_;
  sim::Rng rng_;
  EniRegistry enis_;
  double app_tls_core_seconds_ = 0.0;
  mesh::EphemeralPorts ports_{40000};
};

}  // namespace canal::core
