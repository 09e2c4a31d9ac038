// The Canal Mesh dataplane: on-node proxies + the centralized multi-tenant
// mesh gateway + shared key servers (Fig 6).
//
// Request path (hairpin through the gateway, Appendix A):
//   client app -> on-node proxy (eBPF redirect, L4, mTLS originate via key
//   server) -> mesh gateway (VNI->service-ID at the vSwitch, ECMP,
//   redirector, L7 routing, mTLS terminate) -> server-node on-node proxy
//   (mTLS terminate) -> server app; responses retrace the path.
#pragma once

#include <memory>

#include "canal/gateway.h"
#include "canal/gateway_plane.h"
#include "canal/onnode.h"
#include "crypto/keyserver.h"
#include "mesh/dataplane.h"
#include "sim/arena.h"
#include "sim/flat_map.h"

namespace canal::core {

class CanalMesh final : public GatewayPlane {
 public:
  struct Config {
    OnNodeProxy::Config onnode;
    mesh::NetworkProfile network;
    bool https = true;
  };

  CanalMesh(sim::EventLoop& loop, k8s::Cluster& cluster, MeshGateway& gateway,
            Config config, sim::Rng rng);
  ~CanalMesh() override;

  /// Creates on-node proxies, assigns VNIs, places every service on the
  /// gateway (home AZ = the AZ of the service's first endpoint).
  void install();

  /// Attaches the in-AZ key server to every on-node proxy in that AZ and
  /// to gateway replicas (current and future) in that AZ.
  void attach_key_server(net::AzId az, crypto::KeyServer* server);

  void on_pod_created(k8s::Pod& pod);
  void reinstall_all();

  [[nodiscard]] std::string_view name() const noexcept override {
    return "canal";
  }
  void send_request(const mesh::RequestOptions& opts,
                    mesh::RequestCallback done) override;
  [[nodiscard]] std::vector<k8s::ConfigTarget> pod_create_targets(
      const std::vector<k8s::Pod*>& new_pods) const override;
  [[nodiscard]] double user_cpu_core_seconds() const override;
  [[nodiscard]] std::size_t proxy_count() const override;

  [[nodiscard]] OnNodeProxy* proxy_for(const k8s::Node& node);

 private:
  /// Pooled per-request continuation state (DESIGN.md §14): the whole
  /// client→gateway→server→response chain captures only this pointer, so
  /// every hop's closure stays in std::function's small buffer. Defined in
  /// the .cc; the out-of-line destructor keeps Pool<> happy with the
  /// incomplete type here.
  struct RequestState;

  OnNodeProxy& ensure_proxy(const k8s::Node& node);
  /// Points `proxy`'s L4 route for every service at the gateway VIP.
  void add_gateway_routes(OnNodeProxy& proxy);

  // send_request's hop chain, one member per async boundary (request out:
  // client proxy -> gateway -> server proxy -> pod; response back).
  void forward_to_gateway(RequestState* st);
  void deliver_to_server(RequestState* st);
  void return_via_gateway(RequestState* st);
  void return_to_client(RequestState* st);
  void finish_request(RequestState* st, int status);

  Config config_;
  sim::Rng rng_;
  // Flat tables (DESIGN.md §14): proxy lookup is per-request. Ordered so
  // config installs and CPU sums iterate in a fixed key order.
  sim::FlatOrderedMap<const k8s::Node*, std::unique_ptr<OnNodeProxy>>
      proxies_;
  sim::FlatHashMap<std::uint16_t, crypto::KeyServer*> key_servers_;
  sim::Pool<RequestState> requests_;
  mesh::EphemeralPorts ports_{30000};
};

}  // namespace canal::core
