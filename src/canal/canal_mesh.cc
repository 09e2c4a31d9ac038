#include "canal/canal_mesh.h"

#include <algorithm>

namespace canal::core {

CanalMesh::CanalMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                     MeshGateway& gateway, Config config, sim::Rng rng)
    : loop_(loop),
      cluster_(cluster),
      gateway_(gateway),
      config_(std::move(config)),
      rng_(rng) {}

/// Pooled continuation state for one send_request chain. Every async hop
/// captures only the RequestState pointer (8 bytes, trivially copyable), so
/// each std::function built on the request path stays in the small-buffer
/// slot and the steady-state path never boxes a closure on the heap
/// (DESIGN.md §14). Slots are recycled by requests_; owned buffers (the
/// http::Request, the options copy) keep their capacity across reuse.
struct CanalMesh::RequestState {
  CanalMesh* self = nullptr;
  http::Request req;
  net::FiveTuple tuple{};
  sim::TimePoint start = 0;
  net::TenantId tenant{};
  mesh::RequestOptions opts;
  mesh::RequestCallback done;
  OnNodeProxy* client_proxy = nullptr;
  OnNodeProxy* server_proxy = nullptr;
  GatewayReplica* replica = nullptr;
  GatewayBackend* backend = nullptr;
  proxy::UpstreamEndpoint* endpoint = nullptr;
  k8s::Pod* target = nullptr;
  std::shared_ptr<telemetry::Trace> trace;
  net::Packet packet{};
  net::AzId client_az{};
  sim::Duration hop2 = 0;
  sim::TimePoint wire = 0;       ///< start of the hop currently in flight
  sim::TimePoint app_start = 0;
  std::uint64_t resp_bytes = 0;
  int resp_status = 0;
  [[nodiscard]] telemetry::Trace* tracer() const { return trace.get(); }
};

CanalMesh::~CanalMesh() = default;

OnNodeProxy& CanalMesh::ensure_proxy(const k8s::Node& node) {
  auto& slot = proxies_[&node];
  if (!slot) {
    OnNodeProxy::Config proxy_config = config_.onnode;
    proxy_config.identity =
        "spiffe://tenant-" + std::to_string(net::id_value(cluster_.tenant())) +
        "/node/" + std::to_string(net::id_value(node.id()));
    slot = std::make_unique<OnNodeProxy>(loop_, node, proxy_config,
                                         rng_.fork());
    const auto ks_it = key_servers_.find(net::id_value(node.az()));
    if (ks_it != key_servers_.end()) {
      slot->attach_key_server(ks_it->second);
    }
    // L4 forwarding target for every service: the gateway VIP.
    for (const auto& service : cluster_.services()) {
      auto& upstream = slot->engine().clusters().add_cluster(
          mesh::service_cluster_name(service->id));
      if (upstream.endpoints().empty()) {
        upstream.add_endpoint(net::Endpoint{net::Ipv4Addr(100, 64, 0, 1), 443},
                              0);
      }
    }
  }
  return *slot;
}

void CanalMesh::attach_key_server(net::AzId az, crypto::KeyServer* server) {
  key_servers_[net::id_value(az)] = server;
  for (auto& [node, proxy] : proxies_) {
    if (node->az() == az) proxy->attach_key_server(server);
  }
}

void CanalMesh::install() {
  for (const auto& node : cluster_.nodes()) {
    ensure_proxy(*node);
  }
  // Services created after a proxy existed still need an L4 forwarding
  // target (the gateway VIP) in that proxy.
  for (auto& [node, proxy] : proxies_) {
    for (const auto& service : cluster_.services()) {
      auto& upstream = proxy->engine().clusters().add_cluster(
          mesh::service_cluster_name(service->id));
      if (upstream.endpoints().empty()) {
        upstream.add_endpoint(
            net::Endpoint{net::Ipv4Addr(100, 64, 0, 1), 443}, 0);
      }
    }
  }
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

void CanalMesh::on_pod_created(k8s::Pod& pod) {
  ensure_proxy(pod.node());
  k8s::Service* service = cluster_.find_service(pod.service());
  if (service == nullptr) return;
  install();
  for (GatewayBackend* backend : gateway_.placement_of(service->id)) {
    backend->refresh_endpoints(*service);
  }
}

void CanalMesh::reinstall_all() { install(); }

OnNodeProxy* CanalMesh::proxy_for(const k8s::Node& node) {
  const auto it = proxies_.find(&node);
  return it == proxies_.end() ? nullptr : it->second.get();
}

std::uint32_t CanalMesh::vni_of(net::ServiceId service) const {
  const auto it = vnis_.find(service);
  return it == vnis_.end() ? 0 : it->second;
}

void CanalMesh::apply_endpoint_health(net::ServiceId service,
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

std::size_t CanalMesh::service_endpoint_total(net::ServiceId service) const {
  const k8s::Service* obj = cluster_.find_service(service);
  return obj != nullptr ? obj->endpoints.size() : 0;
}

void CanalMesh::finish_request(RequestState* st, int status) {
  if (st->endpoint != nullptr && st->endpoint->active_requests > 0) {
    --st->endpoint->active_requests;
  }
  const sim::Duration latency = loop_.now() - st->start;
  if (st->backend != nullptr && status >= 400) {
    st->backend->stats_for(st->opts.dst_service).on_error(loop_.now());
  }
  if (st->opts.close_after) {
    if (st->client_proxy) st->client_proxy->engine().close_connection(st->tuple);
    if (st->server_proxy) st->server_proxy->engine().close_connection(st->tuple);
    if (st->replica) st->replica->engine().close_connection(st->tuple);
  }
  mesh::RequestResult result;
  result.status = status;
  result.latency = latency;
  if (st->target != nullptr) result.served_by = st->target->id();
  result.tenant = st->tenant;
  result.trace = st->trace;
  // `result` now owns everything the continuation needs; release the slot
  // before invoking it so a re-issued request can reuse the storage.
  auto done = std::move(st->done);
  st->trace.reset();
  requests_.release(st);
  done(result);
}

void CanalMesh::send_request(const mesh::RequestOptions& opts,
                             mesh::RequestCallback done) {
  RequestState* st = requests_.acquire();
  st->self = this;
  st->start = loop_.now();
  st->tenant = mesh::effective_tenant(opts);
  st->opts = opts;
  st->done = std::move(done);
  st->client_proxy = nullptr;
  st->server_proxy = nullptr;
  st->replica = nullptr;
  st->backend = nullptr;
  st->endpoint = nullptr;
  st->target = nullptr;
  st->trace.reset();
  if (opts.trace) {
    st->trace = std::make_shared<telemetry::Trace>();
    st->trace->set_tenant(st->tenant);
  }
  if (opts.client == nullptr) {
    // Malformed request: no originating pod. Fail fast instead of
    // dereferencing null below.
    mesh::RequestResult result;
    result.status = 400;
    result.tenant = st->tenant;
    result.trace = st->trace;
    auto cb = std::move(st->done);
    st->trace.reset();
    requests_.release(st);
    cb(result);
    return;
  }
  mesh::build_request_into(opts, st->req);
  const std::uint16_t src_port =
      opts.src_port != 0 ? opts.src_port : next_port_++;
  st->tuple =
      net::FiveTuple{opts.client->ip(), mesh::service_vip(opts.dst_service),
                     src_port, 443, net::Protocol::kTcp};
  if (next_port_ < 30000) next_port_ = 30000;

  if (cluster_.find_service(opts.dst_service) == nullptr) {
    // Unknown destination service: 404, matching every other dataplane
    // (a known service with an unregistered VNI still yields the
    // vSwitch-level 403 below).
    finish_request(st, 404);
    return;
  }
  st->client_proxy = proxy_for(opts.client->node());
  if (st->client_proxy == nullptr) {
    finish_request(st, 500);
    return;
  }
  st->client_proxy->record_pod_traffic(opts.client->id(),
                                       st->req.wire_size());

  if (config_.network.dropped(rng_, st->start)) {
    // Lost on the wire: `done` never fires; only a per-try timeout in the
    // retry layer recovers. The slot is free for reuse immediately (its
    // callback is overwritten on the next acquisition).
    requests_.release(st);
    return;
  }

  // On-node L4 hop (eBPF redirected, mTLS originate via key server).
  st->client_proxy->engine().handle_request(
      st->tuple, opts.dst_service, opts.new_connection, st->req,
      [st](proxy::ProxyEngine::RequestOutcome outcome) {
        CanalMesh& self = *st->self;
        if (!outcome.ok) {
          self.finish_request(st, outcome.status);
          return;
        }
        // Encapsulate toward the gateway: the vSwitch will map the VNI to
        // the global service ID before the VM sees the packet.
        st->packet = net::Packet{};
        st->packet.tuple = st->tuple;
        st->packet.payload_bytes =
            static_cast<std::uint32_t>(st->req.wire_size());
        if (st->opts.new_connection) st->packet.set_flag(net::TcpFlag::kSyn);
        net::VxlanHeader vxlan;
        vxlan.vni = self.vni_of(st->opts.dst_service);
        vxlan.outer = net::FiveTuple{st->opts.client->node().ip(),
                                     net::Ipv4Addr(100, 64, 0, 1),
                                     st->tuple.src_port, 4789,
                                     net::Protocol::kUdp};
        st->packet.vxlan = vxlan;

        st->client_az = st->opts.client->node().az();
        const sim::Duration hop1 =
            self.config_.network.intra_az +
            self.config_.network.fault_latency(self.loop_.now());
        st->wire = self.loop_.now();
        self.loop_.post(hop1, [st] { st->self->forward_to_gateway(st); });
      },
      st->tracer());
}

void CanalMesh::forward_to_gateway(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/client-gateway", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->packet.payload_bytes);
  }
  gateway_.handle_request(
      st->packet, st->opts.new_connection, config_.https, st->req,
      st->client_az,
      [st](GatewayOutcome outcome) {
        CanalMesh& self = *st->self;
        // Record the serving replica before any early return: when the L7
        // engine answered with an error (e.g. a 4xx direct response), it
        // still opened a session that finish_request() must close.
        st->replica = outcome.replica;
        st->backend = outcome.backend;
        if (!outcome.ok) {
          self.finish_request(st, outcome.status);
          return;
        }
        if (outcome.endpoint == nullptr) {
          // 2xx/3xx direct response answered by the gateway replica: no
          // upstream endpoint, nothing to forward.
          self.finish_request(st, outcome.status);
          return;
        }
        st->endpoint = outcome.endpoint;
        st->target = self.cluster_.find_pod(
            static_cast<net::PodId>(outcome.endpoint->key));
        if (st->target == nullptr || !st->target->ready()) {
          self.finish_request(st, 503);
          return;
        }
        st->server_proxy = &self.ensure_proxy(st->target->node());
        st->hop2 = self.config_.network.intra_az +
                   self.config_.network.fault_latency(self.loop_.now());
        st->wire = self.loop_.now();
        self.loop_.post(st->hop2,
                        [st] { st->self->deliver_to_server(st); });
      },
      st->tracer());
}

void CanalMesh::deliver_to_server(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/gateway-server", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->req.wire_size());
  }
  st->server_proxy->engine().handle_inbound(
      st->tuple, st->opts.dst_service, st->opts.new_connection,
      st->req.wire_size(),
      [st](bool ok, int status) {
        CanalMesh& self = *st->self;
        if (!ok) {
          self.finish_request(st, status);
          return;
        }
        st->server_proxy->record_pod_traffic(st->target->id(),
                                             st->req.wire_size());
        st->app_start = self.loop_.now();
        st->target->handle_request(st->req, [st](http::Response& resp) {
          CanalMesh& self = *st->self;
          if (st->trace) {
            st->trace->add(
                "app/" + std::to_string(net::id_value(st->target->id())),
                telemetry::Component::kApp, st->app_start, self.loop_.now(),
                0, resp.wire_size(), resp.status);
          }
          st->resp_bytes = resp.wire_size();
          st->resp_status = resp.status;
          // Response path: server proxy -> gateway replica -> client proxy.
          st->server_proxy->engine().handle_response(
              st->tuple, st->resp_bytes,
              [st] {
                st->wire = st->self->loop_.now();
                st->self->loop_.post(
                    st->hop2, [st] { st->self->return_via_gateway(st); });
              },
              st->tracer());
        });
      },
      st->tracer());
}

void CanalMesh::return_via_gateway(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/server-gateway", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->resp_bytes);
  }
  st->backend->handle_response(
      *st->replica, st->tuple, st->resp_bytes,
      [st] {
        CanalMesh& self = *st->self;
        const sim::Duration hop1 =
            self.config_.network.intra_az +
            self.config_.network.fault_latency(self.loop_.now());
        st->wire = self.loop_.now();
        self.loop_.post(hop1, [st] { st->self->return_to_client(st); });
      },
      st->tracer());
}

void CanalMesh::return_to_client(RequestState* st) {
  if (st->trace) {
    st->trace->add("link/gateway-client", telemetry::Component::kLink,
                   st->wire, loop_.now(), 0, st->resp_bytes);
  }
  st->client_proxy->engine().handle_response(
      st->tuple, st->resp_bytes,
      [st] { st->self->finish_request(st, st->resp_status); }, st->tracer());
}

std::vector<k8s::ConfigTarget> CanalMesh::routing_update_targets() const {
  // Only the consolidated gateway needs traffic-control configuration.
  // All replicas of a backend share one configuration set (Fig 8), and the
  // backend group carries the tenant's full config for simplicity — the
  // saving comes from pushing to O(backends), not O(pods).
  std::vector<k8s::ConfigTarget> targets;
  const std::size_t tenant_config = mesh::full_config_bytes(cluster_);
  for (GatewayBackend* backend :
       const_cast<MeshGateway&>(gateway_).all_backends()) {
    if (!backend->services().empty()) {
      targets.push_back(
          {"gw-backend-" + std::to_string(net::id_value(backend->id())),
           tenant_config});
    }
  }
  return targets;
}

std::vector<k8s::EpochTarget> CanalMesh::config_epoch_targets(
    const EngineApply& apply) const {
  // One epoch target per backend group: all replicas of a backend share
  // one configuration set (Fig 8), so the apply thunk fans the delivered
  // config out across every replica engine of that backend at once.
  std::vector<k8s::EpochTarget> targets;
  const std::size_t tenant_config = mesh::full_config_bytes(cluster_);
  for (GatewayBackend* backend :
       const_cast<MeshGateway&>(gateway_).all_backends()) {
    if (backend->services().empty()) continue;
    targets.push_back(
        {{"gw-backend-" + std::to_string(net::id_value(backend->id())),
          tenant_config},
         [backend, apply] {
           for (std::size_t i = 0; i < backend->replica_count(); ++i) {
             apply(backend->replica(i)->engine());
           }
         }});
  }
  return targets;
}

std::vector<k8s::ConfigTarget> CanalMesh::pod_create_targets(
    const std::vector<k8s::Pod*>& new_pods) const {
  std::vector<k8s::ConfigTarget> targets;
  // Gateway backends hosting the affected services receive endpoint deltas.
  std::vector<net::ServiceId> affected;
  std::vector<const k8s::Node*> nodes;
  for (const k8s::Pod* pod : new_pods) {
    if (std::find(affected.begin(), affected.end(), pod->service()) ==
        affected.end()) {
      affected.push_back(pod->service());
    }
    if (std::find(nodes.begin(), nodes.end(), &pod->node()) == nodes.end()) {
      nodes.push_back(&pod->node());
    }
  }
  for (const auto service_id : affected) {
    const k8s::Service* service = gateway_.service_object(service_id);
    for (GatewayBackend* backend :
         const_cast<MeshGateway&>(gateway_).placement_of(service_id)) {
      targets.push_back(
          {"gw-backend-" + std::to_string(net::id_value(backend->id())),
           service != nullptr ? mesh::service_config_bytes(*service) : 512});
    }
  }
  // On-node proxies need only identity material for the new pods.
  for (const k8s::Node* node : nodes) {
    targets.push_back(
        {"onnode-" + std::to_string(net::id_value(node->id())),
         OnNodeProxy::config_bytes()});
  }
  return targets;
}

double CanalMesh::user_cpu_core_seconds() const {
  double total = 0.0;
  for (const auto& [node, proxy] : proxies_) {
    total += proxy->cpu().total_busy_core_seconds();
  }
  return total;
}

double CanalMesh::total_cpu_core_seconds() const {
  return user_cpu_core_seconds() + gateway_.total_cpu_core_seconds();
}

std::size_t CanalMesh::proxy_count() const {
  // Control-plane-managed entities: on-node proxies + gateway backends.
  return proxies_.size() +
         const_cast<MeshGateway&>(gateway_).all_backends().size();
}

}  // namespace canal::core
