#include "world.h"

#include <stdexcept>

namespace perfbench {

void World::install(Plane plane, SpanLog* log) {
  plane_ = plane;
  switch (plane) {
    case Plane::kCanal: {
      Scope span(log, "mesh.install.canal");
      core::GatewayConfig config;
      if (opts_.gateway_replicas_per_backend > 0) {
        config.replicas_per_backend = opts_.gateway_replicas_per_backend;
      }
      if (opts_.gateway_replica_cores > 0) {
        config.replica_cores = opts_.gateway_replica_cores;
      }
      if (opts_.gateway_backends_per_service > 0) {
        config.backends_per_service_local = opts_.gateway_backends_per_service;
      }
      gateway_ = std::make_unique<core::MeshGateway>(loop_, config,
                                                     sim::Rng(opts_.seed + 3));
      gateway_->add_az(opts_.gateway_backends);
      key_server_ = std::make_unique<canal::crypto::KeyServer>(
          loop_, static_cast<net::AzId>(0), 8, sim::Rng(opts_.seed + 4));
      canal_ = std::make_unique<core::CanalMesh>(
          loop_, cluster_, *gateway_, core::CanalMesh::Config{},
          sim::Rng(opts_.seed + 5));
      canal_->install();
      canal_->attach_key_server(static_cast<net::AzId>(0), key_server_.get());
      return;
    }
    case Plane::kAmbient: {
      Scope span(log, "mesh.install.ambient");
      ambient_ = std::make_unique<mesh::AmbientMesh>(
          loop_, cluster_, mesh::AmbientMesh::Config{},
          sim::Rng(opts_.seed + 2));
      ambient_->install();
      return;
    }
    case Plane::kIstio: {
      Scope span(log, "mesh.install.istio");
      istio_ = std::make_unique<mesh::IstioMesh>(
          loop_, cluster_, mesh::IstioMesh::Config{}, sim::Rng(opts_.seed + 1));
      istio_->install();
      return;
    }
  }
}

mesh::MeshDataplane& World::mesh() {
  switch (plane_) {
    case Plane::kCanal:
      if (canal_) return *canal_;
      break;
    case Plane::kAmbient:
      if (ambient_) return *ambient_;
      break;
    case Plane::kIstio:
      if (istio_) return *istio_;
      break;
  }
  throw std::logic_error("World::mesh: no plane installed");
}

std::vector<proxy::ProxyEngine*> World::engines() {
  std::vector<proxy::ProxyEngine*> out;
  const auto add = [&out](proxy::ProxyEngine* e) {
    if (e != nullptr) out.push_back(e);
  };
  switch (plane_) {
    case Plane::kCanal:
      for (const auto& node : cluster_.nodes()) {
        if (core::OnNodeProxy* p = canal_->proxy_for(*node)) add(&p->engine());
      }
      for (core::GatewayBackend* backend : gateway_->all_backends()) {
        for (std::size_t i = 0; i < backend->replica_count(); ++i) {
          add(&backend->replica(i)->engine());
        }
      }
      break;
    case Plane::kAmbient:
      for (const auto& node : cluster_.nodes()) {
        add(ambient_->ztunnel_engine(*node));
      }
      for (const k8s::Service* service : services_) {
        add(ambient_->waypoint_engine(service->id));
      }
      break;
    case Plane::kIstio:
      for (const auto& pod : cluster_.pods()) {
        add(istio_->sidecar_engine(pod->id()));
      }
      break;
  }
  return out;
}

std::set<sim::CpuSet*> World::cpu_sets() {
  std::set<sim::CpuSet*> out;
  for (const auto& node : cluster_.nodes()) out.insert(&node->cpu());
  for (proxy::ProxyEngine* engine : engines()) out.insert(&engine->cpu());
  if (canal_) {
    for (const auto& node : cluster_.nodes()) {
      if (core::OnNodeProxy* p = canal_->proxy_for(*node)) {
        out.insert(&p->cpu());
      }
    }
    for (core::GatewayBackend* backend : gateway_->all_backends()) {
      for (std::size_t i = 0; i < backend->replica_count(); ++i) {
        out.insert(&backend->replica(i)->cpu());
      }
    }
    out.insert(&key_server_->cpu());
  }
  return out;
}

std::uint64_t cpu_jobs(const std::set<sim::CpuSet*>& sets) {
  std::uint64_t jobs = 0;
  for (const sim::CpuSet* set : sets) {
    for (std::size_t i = 0; i < set->size(); ++i) jobs += set->core(i).jobs();
  }
  return jobs;
}

}  // namespace perfbench
