// The one topology builder: a k8s cluster of the §5.1 shape plus any of the
// five dataplanes, each built on demand from a single seed table.
//
// Cross-plane comparisons (Fig 10/11, Table 5, the fuzz oracle) only mean
// something when every plane runs on the same cluster with the same random
// draws. Topology builds the cluster in a fixed order — nodes first, then
// for each service `service-N` its pods — so two topologies from one spec
// agree on every service id, pod id and pod->node placement, whichever
// plane is later built on them. Every stochastic input is drawn from a
// sub-stream `spec.seed + offset`, with the offsets written once below.
//
// Concurrency: a Topology owns (or, for the sharded region harness,
// borrows) its sim::EventLoop and owns every object hanging off it. One
// Topology per run is therefore safe on any thread (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "canal/proxyless.h"
#include "crypto/keyserver.h"
#include "k8s/cluster.h"
#include "mesh/ambient.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "sim/event_loop.h"

namespace canal::core {

/// Cluster shape. Defaults are the §5.1 testbed: two 8-core worker nodes,
/// three services of ten pods, a two-backend gateway.
struct TopologySpec {
  std::size_t nodes = 2;
  std::size_t node_cores = 8;
  /// One entry per service `service-N`: its pod count.
  std::vector<std::size_t> pods_per_service = {10, 10, 10};
  sim::Duration app_service_time = sim::milliseconds(1);
  /// Backends of the gateway's single AZ (canal and proxyless planes).
  std::size_t gateway_backends = 2;
  std::uint64_t seed = 1;
};

/// The seed table: each component draws from its own sub-stream
/// `sim::Rng(spec.seed + offset)`. Offset 6 is unused. Changing any value
/// changes every golden that builds that component.
inline constexpr std::uint64_t kClusterSeed = 0;
inline constexpr std::uint64_t kIstioSeed = 1;
inline constexpr std::uint64_t kAmbientSeed = 2;
inline constexpr std::uint64_t kGatewaySeed = 3;
inline constexpr std::uint64_t kKeyServerSeed = 4;
inline constexpr std::uint64_t kCanalSeed = 5;
inline constexpr std::uint64_t kProxylessSeed = 7;
inline constexpr std::uint64_t kNoMeshSeed = 8;

class Topology {
 public:
  explicit Topology(TopologySpec spec = {});
  /// Builds on a caller-owned loop (one shard domain of a ShardedSim).
  Topology(sim::EventLoop& loop, TopologySpec spec);
  /// Planes hold references into the topology (loop, cluster, gateway).
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Each builder installs its plane and returns it; the plane is also
  /// kept in the matching member below. Planes are independent: a test
  /// may build several on one topology (they then share app pods).
  mesh::NoMesh& build_nomesh(mesh::NetworkProfile network = {});
  mesh::IstioMesh& build_istio(mesh::IstioMesh::Config config = {});
  mesh::AmbientMesh& build_ambient(mesh::AmbientMesh::Config config = {});
  /// Gateway (one AZ of `gateway_backends`), in-AZ key server, then the
  /// canal plane with the key server attached.
  CanalMesh& build_canal(CanalMesh::Config config = {},
                         GatewayConfig gateway_config = {});
  /// Gateway as for canal (no key server), then the proxyless plane.
  /// Canal and proxyless share the one gateway slot, so a topology holds
  /// at most one of the two.
  ProxylessMesh& build_proxyless(ProxylessMesh::Config config = {},
                                 GatewayConfig gateway_config = {});

  /// The profile every topology pod runs (`fast_fraction` 1.0, mean
  /// `app_service_time`, sigma 0.05); pods added later should reuse it.
  [[nodiscard]] k8s::AppProfile app_profile() const;

 private:
  Topology(std::unique_ptr<sim::EventLoop> owned, sim::EventLoop* borrowed,
           TopologySpec spec);
  void build_gateway(GatewayConfig config);
  [[nodiscard]] sim::Rng rng(std::uint64_t offset) const {
    return sim::Rng(spec.seed + offset);
  }

  std::unique_ptr<sim::EventLoop> owned_loop_;

 public:
  const TopologySpec spec;
  sim::EventLoop& loop;
  k8s::Cluster cluster;
  /// The topology's services in build order (`services[i]` is service-i).
  std::vector<k8s::Service*> services;

  std::unique_ptr<mesh::NoMesh> nomesh;
  std::unique_ptr<mesh::IstioMesh> istio;
  std::unique_ptr<mesh::AmbientMesh> ambient;
  std::unique_ptr<MeshGateway> gateway;
  std::unique_ptr<crypto::KeyServer> key_server;
  std::unique_ptr<CanalMesh> canal;
  std::unique_ptr<ProxylessMesh> proxyless;
};

}  // namespace canal::core
