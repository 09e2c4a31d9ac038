// The §5.1 testbed (worker nodes hosting app pods across a few services)
// with one dataplane installed, built from src/'s public API alone so the
// benchmark does not depend on the bench/ harness. Construction order and
// RNG seeds (cluster = seed, istio = seed+1, ambient = seed+2, gateway =
// seed+3, key server = seed+4, canal = seed+5) follow bench/harness.h's
// Testbed, so the region workload reproduces BENCH_region.json exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/gateway.h"
#include "crypto/keyserver.h"
#include "k8s/cluster.h"
#include "mesh/ambient.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "sim/event_loop.h"
#include "spans.h"

namespace perfbench {

namespace sim = canal::sim;
namespace k8s = canal::k8s;
namespace mesh = canal::mesh;
namespace net = canal::net;
namespace core = canal::core;
namespace proxy = canal::proxy;

enum class Plane { kCanal, kAmbient, kIstio };

[[nodiscard]] inline const char* plane_name(Plane p) {
  switch (p) {
    case Plane::kCanal: return "canal";
    case Plane::kAmbient: return "ambient";
    case Plane::kIstio: return "istio";
  }
  return "?";
}

struct WorldOptions {
  std::size_t nodes = 2;
  std::size_t services = 3;
  std::size_t pods_per_service = 10;
  std::size_t node_cores = 8;
  sim::Duration app_service_time = sim::milliseconds(1);
  std::size_t gateway_backends = 2;
  /// Non-zero values override the canal gateway's GatewayConfig defaults.
  std::size_t gateway_replicas_per_backend = 0;
  std::size_t gateway_replica_cores = 0;
  std::size_t gateway_backends_per_service = 0;
  std::uint64_t seed = 1;
};

class World {
 public:
  /// Builds the cluster (nodes, services, running pods) under a
  /// "k8s.build" span.
  World(sim::EventLoop& loop, const WorldOptions& opts, SpanLog* log)
      : loop_(loop),
        cluster_(loop, static_cast<net::TenantId>(1), sim::Rng(opts.seed)),
        opts_(opts) {
    Scope span(log, "k8s.build");
    for (std::size_t i = 0; i < opts.nodes; ++i) {
      cluster_.add_node(static_cast<net::AzId>(0), opts.node_cores);
    }
    k8s::AppProfile profile;
    profile.fast_fraction = 1.0;
    profile.fast_service_mean = opts.app_service_time;
    profile.sigma = 0.05;
    for (std::size_t s = 0; s < opts.services; ++s) {
      k8s::Service& service =
          cluster_.add_service("service-" + std::to_string(s));
      services_.push_back(&service);
      for (std::size_t p = 0; p < opts.pods_per_service; ++p) {
        cluster_.add_pod(service, profile).set_phase(k8s::PodPhase::kRunning);
      }
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Constructs and installs one dataplane under a "mesh.install.<plane>"
  /// span.
  void install(Plane plane, SpanLog* log);

  [[nodiscard]] Plane plane() const { return plane_; }
  [[nodiscard]] mesh::MeshDataplane& mesh();
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] k8s::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const std::vector<k8s::Service*>& services() const {
    return services_;
  }
  [[nodiscard]] k8s::Pod* client() const {
    return services_.front()->endpoints.front();
  }
  [[nodiscard]] net::ServiceId target_service() const {
    return services_.back()->id;
  }
  /// Null unless the canal plane is installed.
  [[nodiscard]] core::MeshGateway* gateway() { return gateway_.get(); }
  [[nodiscard]] canal::crypto::KeyServer* key_server() {
    return key_server_.get();
  }

  /// Every proxy engine of the installed plane (on-node proxies and
  /// gateway replicas, sidecars, or ztunnels and waypoints).
  [[nodiscard]] std::vector<proxy::ProxyEngine*> engines();
  /// Every simulated CPU set reachable from the testbed: node CPUs, proxy
  /// and replica CPUs, the key server.
  [[nodiscard]] std::set<sim::CpuSet*> cpu_sets();

 private:
  sim::EventLoop& loop_;
  k8s::Cluster cluster_;
  WorldOptions opts_;
  std::vector<k8s::Service*> services_;
  Plane plane_ = Plane::kCanal;

  std::unique_ptr<mesh::IstioMesh> istio_;
  std::unique_ptr<mesh::AmbientMesh> ambient_;
  std::unique_ptr<core::MeshGateway> gateway_;
  std::unique_ptr<canal::crypto::KeyServer> key_server_;
  std::unique_ptr<core::CanalMesh> canal_;
};

/// Σ CpuCore::jobs() over a set of CPU sets.
[[nodiscard]] std::uint64_t cpu_jobs(const std::set<sim::CpuSet*>& sets);

}  // namespace perfbench
