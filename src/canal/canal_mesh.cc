#include "canal/canal_mesh.h"

#include <algorithm>

namespace canal::core {

CanalMesh::CanalMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                     MeshGateway& gateway, Config config, sim::Rng rng)
    : GatewayPlane(loop, cluster, gateway),
      config_(std::move(config)),
      rng_(rng) {}

/// Pooled continuation state for one send_request chain: the shared
/// request frame plus canal's proxies and hop scratch. Every async hop
/// captures only the RequestState pointer (8 bytes, trivially copyable), so
/// each std::function built on the request path stays in the small-buffer
/// slot and the steady-state path never boxes a closure on the heap
/// (DESIGN.md §14). Slots are recycled by requests_; owned buffers (the
/// http::Request, the options copy) keep their capacity across reuse.
struct CanalMesh::RequestState : Frame {
  CanalMesh* self = nullptr;
  OnNodeProxy* client_proxy = nullptr;
  OnNodeProxy* server_proxy = nullptr;
  net::Packet packet{};
  net::AzId client_az{};
  sim::Duration hop2 = 0;
  sim::TimePoint wire = 0;       ///< start of the hop currently in flight
  sim::TimePoint app_start = 0;
  std::uint64_t resp_bytes = 0;
  int resp_status = 0;
};

CanalMesh::~CanalMesh() = default;

void CanalMesh::add_gateway_routes(OnNodeProxy& proxy) {
  for (const auto& service : cluster_.services()) {
    auto& upstream = proxy.engine().clusters().add_cluster(
        mesh::service_cluster_name(service->id));
    if (upstream.endpoints().empty()) {
      upstream.add_endpoint(net::Endpoint{kGatewayVip, 443}, 0);
    }
  }
}

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
    add_gateway_routes(*slot);
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
  for (auto& [node, proxy] : proxies_) add_gateway_routes(*proxy);
  install_services();
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

void CanalMesh::finish_request(RequestState* st, int status) {
  if (st->backend != nullptr && status >= 400) {
    st->backend->stats_for(st->opts.dst_service).on_error(loop_.now());
  }
  if (st->opts.close_after) {
    if (st->client_proxy) st->client_proxy->engine().close_connection(st->tuple);
    if (st->server_proxy) st->server_proxy->engine().close_connection(st->tuple);
    if (st->replica) st->replica->engine().close_connection(st->tuple);
  }
  const mesh::RequestResult result = conclude(*st, status);
  // `result` now owns everything the continuation needs; release the slot
  // before invoking it so a re-issued request can reuse the storage.
  auto done = std::move(st->done);
  requests_.release(st);
  done(result);
}

void CanalMesh::send_request(const mesh::RequestOptions& opts,
                             mesh::RequestCallback done) {
  RequestState* st = requests_.acquire();
  st->self = this;
  st->client_proxy = nullptr;
  st->server_proxy = nullptr;
  st->replica = nullptr;
  st->backend = nullptr;
  if (!open_request(*st, opts, std::move(done))) {
    finish_request(st, 400);
    return;
  }
  st->tuple = ports_.tuple_for(opts, 443);

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
        st->packet = self.encapsulate(*st);
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
  link_span(*st, "link/client-gateway", st->wire, st->packet.payload_bytes);
  gateway_.handle_request(
      st->packet, st->opts.new_connection, config_.https, st->req,
      st->client_az,
      [st](GatewayOutcome outcome) {
        CanalMesh& self = *st->self;
        if (const auto status = self.on_gateway(*st, outcome)) {
          self.finish_request(st, *status);
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
  link_span(*st, "link/gateway-server", st->wire, st->req.wire_size());
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
          st->self->app_span(*st, st->app_start, resp);
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
  link_span(*st, "link/server-gateway", st->wire, st->resp_bytes);
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
  link_span(*st, "link/gateway-client", st->wire, st->resp_bytes);
  st->client_proxy->engine().handle_response(
      st->tuple, st->resp_bytes,
      [st] { st->self->finish_request(st, st->resp_status); }, st->tracer());
}

std::vector<k8s::ConfigTarget> CanalMesh::pod_create_targets(
    const std::vector<k8s::Pod*>& new_pods) const {
  // Gateway backends hosting the affected services receive endpoint deltas.
  std::vector<k8s::ConfigTarget> targets;
  append_backend_targets(new_pods, targets);
  // On-node proxies need only identity material for the new pods.
  std::vector<const k8s::Node*> nodes;
  for (const k8s::Pod* pod : new_pods) {
    if (std::find(nodes.begin(), nodes.end(), &pod->node()) == nodes.end()) {
      nodes.push_back(&pod->node());
    }
  }
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

std::size_t CanalMesh::proxy_count() const {
  // Control-plane-managed entities: on-node proxies + gateway backends.
  return proxies_.size() + gateway_.all_backends().size();
}

}  // namespace canal::core
