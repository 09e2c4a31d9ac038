#include "canal/proxyless.h"

namespace canal::core {

std::optional<std::uint32_t> EniRegistry::allocate(const k8s::Pod& pod) {
  if (const auto it = enis_.find(pod.id()); it != enis_.end()) {
    return it->second;
  }
  auto& count = per_node_[&pod.node()];
  if (count >= config_.max_enis_per_node) return std::nullopt;
  ++count;
  const std::uint32_t id = next_eni_++;
  enis_[pod.id()] = id;
  node_of_[pod.id()] = &pod.node();
  return id;
}

void EniRegistry::release(net::PodId pod) {
  const auto it = enis_.find(pod);
  if (it == enis_.end()) return;
  enis_.erase(it);
  const auto node_it = node_of_.find(pod);
  if (node_it != node_of_.end()) {
    auto& count = per_node_[node_it->second];
    if (count > 0) --count;
    node_of_.erase(node_it);
  }
}

std::size_t EniRegistry::allocated_on(const k8s::Node& node) const {
  const auto it = per_node_.find(&node);
  return it == per_node_.end() ? 0 : it->second;
}

ProxylessMesh::ProxylessMesh(sim::EventLoop& loop, k8s::Cluster& cluster,
                             MeshGateway& gateway, Config config, sim::Rng rng)
    : GatewayPlane(loop, cluster, gateway),
      config_(config),
      rng_(rng),
      enis_(config.eni) {}

ProxylessMesh::~ProxylessMesh() = default;

std::size_t ProxylessMesh::install() {
  install_services();
  std::size_t failed = 0;
  for (const auto& pod : cluster_.pods()) {
    if (pod->phase() == k8s::PodPhase::kTerminated) continue;
    if (!enis_.allocate(*pod)) ++failed;
  }
  return failed;
}

void ProxylessMesh::send_request(const mesh::RequestOptions& opts,
                                 mesh::RequestCallback done) {
  // Observability is gateway-side only: no on-node collection point
  // exists to record a per-request trace.
  auto st = std::make_shared<Frame>();
  auto finish = [this, st](int status) {
    if (st->opts.close_after && st->replica != nullptr) {
      st->replica->engine().close_connection(st->tuple);
    }
    complete(*st, status);
  };
  if (!open_request(*st, opts, std::move(done), /*traced=*/false)) {
    finish(400);
    return;
  }
  if (cluster_.find_service(opts.dst_service) == nullptr) {
    // DNS cannot resolve an unknown service to the gateway VIP: 404, not
    // the gateway's unknown-VNI 403 (which is for known-but-unregistered
    // services).
    finish(404);
    return;
  }
  st->tuple = ports_.tuple_for(opts, 443);

  // Authentication: the ENI attached to the container vouches for the
  // traffic; pods without one cannot be verified and are rejected.
  if (!enis_.authenticated(opts.client->id())) {
    loop_.post(0, [finish]() mutable { finish(403); });
    return;
  }

  if (config_.network.dropped(rng_, st->start)) {
    // Lost on the wire: `done` never fires; only a per-try timeout in the
    // retry layer recovers.
    return;
  }

  // Client-side TLS in the app's own library when the customer manages
  // certificates; this burns the user's node CPU (there is no proxy).
  sim::Duration app_crypto = 0;
  if (config_.user_managed_certs) {
    app_crypto = config_.app_tls_costs.crypto.symmetric_cost(
        st->req.wire_size() + 512);
    if (opts.new_connection) {
      app_crypto += config_.app_tls_costs.crypto.software_asym_cost;
    }
    app_tls_core_seconds_ += sim::to_seconds(app_crypto);
  }
  opts.client->node().cpu().execute(app_crypto, [this, st, finish]() mutable {
    // DNS already resolves the service name to the gateway VIP; the packet
    // rides the tenant's VXLAN network to the gateway.
    const net::Packet packet = encapsulate(*st);
    const net::AzId client_az = st->opts.client->node().az();
    const sim::Duration hop1 = config_.network.intra_az +
                               config_.network.fault_latency(loop_.now());
    loop_.post(hop1, [this, st, finish, packet, client_az]() mutable {
      gateway_.handle_request(
          packet, st->opts.new_connection, config_.user_managed_certs,
          st->req, client_az, [this, st, finish](GatewayOutcome outcome) mutable {
            if (const auto status = on_gateway(*st, outcome)) {
              finish(*status);
              return;
            }
            // Server side has no proxy either: gateway -> server app.
            const sim::Duration hop2 =
                config_.network.intra_az +
                config_.network.fault_latency(loop_.now());
            loop_.post(hop2, [this, st, finish]() mutable {
              st->target->handle_request(
                  st->req, [this, st, finish](http::Response& resp) mutable {
                    const std::uint64_t bytes = resp.wire_size();
                    const int status = resp.status;
                    st->backend->handle_response(
                        *st->replica, st->tuple, bytes,
                        [this, finish, status]() mutable {
                          // Two crossings back: server -> gateway -> client.
                          const sim::Duration back =
                              2 * (config_.network.intra_az +
                                   config_.network.fault_latency(loop_.now()));
                          loop_.post(back, [finish, status]() mutable {
                            finish(status);
                          });
                        });
                  });
            });
          });
    });
  });
}

std::vector<k8s::ConfigTarget> ProxylessMesh::pod_create_targets(
    const std::vector<k8s::Pod*>& new_pods) const {
  // DNS record + ENI registration per pod, then the gateway backends'
  // endpoint deltas.
  std::vector<k8s::ConfigTarget> targets;
  for (const k8s::Pod* pod : new_pods) {
    targets.push_back(
        {"dns-eni-" + std::to_string(net::id_value(pod->id())), 256});
  }
  append_backend_targets(new_pods, targets);
  return targets;
}

}  // namespace canal::core
