#include "canal/topology.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace canal::core {

Topology::Topology(TopologySpec spec)
    : Topology(std::make_unique<sim::EventLoop>(), nullptr, std::move(spec)) {}

Topology::Topology(sim::EventLoop& loop, TopologySpec spec)
    : Topology(nullptr, &loop, std::move(spec)) {}

Topology::Topology(std::unique_ptr<sim::EventLoop> owned,
                   sim::EventLoop* borrowed, TopologySpec spec_in)
    : owned_loop_(std::move(owned)),
      spec(std::move(spec_in)),
      loop(owned_loop_ ? *owned_loop_ : *borrowed),
      cluster(loop, static_cast<net::TenantId>(1), rng(kClusterSeed)) {
  for (std::size_t n = 0; n < spec.nodes; ++n) {
    cluster.add_node(static_cast<net::AzId>(0), spec.node_cores);
  }
  const k8s::AppProfile profile = app_profile();
  for (std::size_t s = 0; s < spec.pods_per_service.size(); ++s) {
    k8s::Service& service = cluster.add_service("service-" + std::to_string(s));
    services.push_back(&service);
    for (std::size_t p = 0; p < spec.pods_per_service[s]; ++p) {
      cluster.add_pod(service, profile).set_phase(k8s::PodPhase::kRunning);
    }
  }
}

k8s::AppProfile Topology::app_profile() const {
  k8s::AppProfile profile;
  profile.fast_fraction = 1.0;
  profile.fast_service_mean = spec.app_service_time;
  profile.sigma = 0.05;
  return profile;
}

mesh::NoMesh& Topology::build_nomesh(mesh::NetworkProfile network) {
  nomesh = std::make_unique<mesh::NoMesh>(loop, cluster, network,
                                          spec.seed + kNoMeshSeed);
  return *nomesh;
}

mesh::IstioMesh& Topology::build_istio(mesh::IstioMesh::Config config) {
  istio = std::make_unique<mesh::IstioMesh>(loop, cluster, std::move(config),
                                            rng(kIstioSeed));
  istio->install();
  return *istio;
}

mesh::AmbientMesh& Topology::build_ambient(mesh::AmbientMesh::Config config) {
  ambient = std::make_unique<mesh::AmbientMesh>(
      loop, cluster, std::move(config), rng(kAmbientSeed));
  ambient->install();
  return *ambient;
}

void Topology::build_gateway(GatewayConfig config) {
  if (gateway != nullptr) {
    throw std::logic_error("Topology: the gateway is already built");
  }
  gateway = std::make_unique<MeshGateway>(loop, std::move(config),
                                          rng(kGatewaySeed));
  gateway->add_az(spec.gateway_backends);
}

CanalMesh& Topology::build_canal(CanalMesh::Config config,
                                 GatewayConfig gateway_config) {
  build_gateway(std::move(gateway_config));
  key_server = std::make_unique<crypto::KeyServer>(
      loop, static_cast<net::AzId>(0), 8, rng(kKeyServerSeed));
  canal = std::make_unique<CanalMesh>(loop, cluster, *gateway,
                                      std::move(config), rng(kCanalSeed));
  canal->install();
  canal->attach_key_server(static_cast<net::AzId>(0), key_server.get());
  return *canal;
}

ProxylessMesh& Topology::build_proxyless(ProxylessMesh::Config config,
                                         GatewayConfig gateway_config) {
  build_gateway(std::move(gateway_config));
  proxyless = std::make_unique<ProxylessMesh>(
      loop, cluster, *gateway, std::move(config), rng(kProxylessSeed));
  proxyless->install();
  return *proxyless;
}

}  // namespace canal::core
