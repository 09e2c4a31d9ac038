#include "canal/gateway_plane.h"

#include <algorithm>
#include <string>

namespace canal::core {

namespace {

std::string backend_target_name(const GatewayBackend& backend) {
  return "gw-backend-" + std::to_string(net::id_value(backend.id()));
}

}  // namespace

std::uint32_t GatewayPlane::vni_of(net::ServiceId service) const {
  const auto it = vnis_.find(service);
  return it == vnis_.end() ? 0 : it->second;
}

void GatewayPlane::install_services() {
  for (const auto& service : cluster_.services()) {
    if (!vnis_.contains(service->id)) {
      const std::uint32_t vni = gateway_.allocate_vni();
      vnis_[service->id] = vni;
      gateway_.register_service(*service, vni);
    }
    if (gateway_.placement_of(service->id).empty()) {
      const net::AzId home_az = service->endpoints.empty()
                                    ? static_cast<net::AzId>(0)
                                    : service->endpoints.front()->node().az();
      gateway_.install_service(*service, home_az);
    }
  }
}

std::vector<k8s::EpochTarget> GatewayPlane::config_epoch_targets(
    const EngineApply& apply) const {
  std::vector<k8s::EpochTarget> targets;
  const std::size_t tenant_config = mesh::full_config_bytes(cluster_);
  for (GatewayBackend* backend : gateway_.all_backends()) {
    if (backend->services().empty()) continue;
    targets.push_back({{backend_target_name(*backend), tenant_config},
                       [backend, apply] {
                         for (std::size_t i = 0; i < backend->replica_count();
                              ++i) {
                           apply(backend->replica(i)->engine());
                         }
                       }});
  }
  return targets;
}

void GatewayPlane::append_backend_targets(
    const std::vector<k8s::Pod*>& new_pods,
    std::vector<k8s::ConfigTarget>& targets) const {
  std::vector<net::ServiceId> affected;
  for (const k8s::Pod* pod : new_pods) {
    if (std::find(affected.begin(), affected.end(), pod->service()) ==
        affected.end()) {
      affected.push_back(pod->service());
    }
  }
  for (const auto service_id : affected) {
    const k8s::Service* service = gateway_.service_object(service_id);
    for (GatewayBackend* backend : gateway_.placement_of(service_id)) {
      targets.push_back(
          {backend_target_name(*backend),
           service != nullptr ? mesh::service_config_bytes(*service) : 512});
    }
  }
}

net::Packet GatewayPlane::encapsulate(const mesh::RequestFrame& f) const {
  net::Packet packet;
  packet.tuple = f.tuple;
  packet.payload_bytes = static_cast<std::uint32_t>(f.req.wire_size());
  if (f.opts.new_connection) packet.set_flag(net::TcpFlag::kSyn);
  net::VxlanHeader vxlan;
  vxlan.vni = vni_of(f.opts.dst_service);
  vxlan.outer = net::FiveTuple{f.opts.client->node().ip(), kGatewayVip,
                               f.tuple.src_port, 4789, net::Protocol::kUdp};
  packet.vxlan = vxlan;
  return packet;
}

void GatewayPlane::apply_endpoint_health(net::ServiceId service,
                                         std::uint64_t endpoint_key,
                                         bool healthy) {
  const std::string cluster_name = mesh::service_cluster_name(service);
  for (GatewayBackend* backend : gateway_.placement_of(service)) {
    for (std::size_t i = 0; i < backend->replica_count(); ++i) {
      if (proxy::UpstreamCluster* c =
              backend->replica(i)->engine().clusters().find(cluster_name)) {
        c->set_endpoint_health(endpoint_key, healthy);
      }
    }
  }
}

}  // namespace canal::core
