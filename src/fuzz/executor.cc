#include "fuzz/executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "canal/canal_mesh.h"
#include "canal/fault_injector.h"
#include "canal/gateway.h"
#include "canal/proxyless.h"
#include "canal/topology.h"
#include "crypto/accelerator.h"
#include "crypto/cert.h"
#include "crypto/keyserver.h"
#include "crypto/rotation.h"
#include "http/route.h"
#include "k8s/cluster.h"
#include "k8s/objects.h"
#include "k8s/propagation.h"
#include "mesh/ambient.h"
#include "mesh/dataplane.h"
#include "mesh/istio.h"
#include "net/ids.h"
#include "proxy/resilience.h"
#include "sim/event_loop.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "telemetry/registry.h"
#include "telemetry/sampler.h"

namespace canal::fuzz {
namespace {

/// Destination used by RequestSpec.unknown_service probes. Service ids are
/// allocated sequentially from 1 and scenarios stay tiny, so this id never
/// exists.
constexpr auto kUnknownService = static_cast<net::ServiceId>(9999);

/// Builds the shared topology spec of a scenario: every plane runs on the
/// same core::Topology shape and seed table.
core::TopologySpec topology_spec(const ScenarioSpec& s) {
  core::TopologySpec spec;
  spec.nodes = s.nodes;
  spec.node_cores = s.node_cores;
  spec.pods_per_service.assign(s.pods_per_service.begin(),
                               s.pods_per_service.end());
  spec.app_service_time = s.app_service_time;
  // Three backends with a shuffle-shard size of two, so extend-service
  // events have somewhere to extend to.
  spec.gateway_backends = 3;
  spec.seed = s.seed;
  return spec;
}

/// One plane's fully built simulated world. Every plane gets its own
/// core::Topology (own loop and cluster) so CPU contention and RNG draws
/// cannot couple planes; Topology builds every plane's cluster in the same
/// order, which keeps pod/service/backend identifiers aligned across them.
struct World {
  World(const ScenarioSpec& s, std::size_t plane_idx)
      : spec(s),
        plane_index(plane_idx),
        topology(topology_spec(s)),
        loop(topology.loop),
        cluster(topology.cluster),
        services(topology.services),
        app_profile(topology.app_profile()),
        retry_rng(s.seed + 97),
        rotation_rng(s.seed + 11),
        sampler(kTraceSampleRate, s.seed) {
    for (std::size_t i = 0; i < services.size(); ++i) {
      service_index[services[i]->id] = static_cast<int>(i);
    }
  }

  const ScenarioSpec& spec;
  std::size_t plane_index;
  /// Address must stay stable and outlive the planes: every
  /// NetworkProfile points at this plan before it is populated.
  sim::FaultPlan plan;
  core::Topology topology;
  sim::EventLoop& loop;
  k8s::Cluster& cluster;
  const std::vector<k8s::Service*>& services;
  std::unique_ptr<core::FaultInjector> injector;

  mesh::MeshDataplane* plane = nullptr;
  k8s::AppProfile app_profile;
  mesh::RetryPolicy retry_policy;
  sim::Rng retry_rng;

  /// Modeled control plane, built lazily on the first kPushConfig /
  /// kRotateCerts event. Dedicated southbound channel + controller cores
  /// + crypto accelerator, so control-plane work never contends with the
  /// dataplane's CPU and the ops events stay semantically transparent.
  std::unique_ptr<k8s::ConfigPropagation> propagation;
  /// Cert distribution rides its own propagation instance (own epoch
  /// space + southbound stream, the SDS/RDS split): a cert epoch racing
  /// ahead of an in-flight route epoch must never supersede it.
  std::unique_ptr<k8s::ConfigPropagation> cert_propagation;
  std::unique_ptr<sim::CpuSet> rotation_cpu;
  std::unique_ptr<crypto::AsymmetricAccelerator> rotation_accel;
  std::unique_ptr<crypto::CertificateAuthority> rotation_ca;
  std::vector<std::unique_ptr<crypto::CertRotationWave>> rotation_waves;
  sim::Rng rotation_rng;

  telemetry::MetricsRegistry registry;
  /// Routes traces to per-tenant recorders (tenant label on every metric).
  telemetry::TenantRecorderSet recorders;
  telemetry::TraceSampler sampler;
  /// Per-tenant expected registry state, accumulated in record order so
  /// `sum` undergoes the exact same IEEE additions as the histogram's.
  struct ExpectedTenant {
    std::uint64_t count = 0;
    double latency_sum_us = 0.0;
    std::uint64_t errors = 0;
  };
  std::map<net::TenantId, ExpectedTenant> expected;
  std::unordered_map<net::ServiceId, int, net::IdHash> service_index;
  sim::TimePoint last_completion = 0;

  [[nodiscard]] bool traced() const noexcept {
    return plane_index != kProxyless;
  }
  [[nodiscard]] bool has_gateway() const noexcept {
    return topology.gateway != nullptr;
  }
};

void violate(PlaneResult& result, std::string detail) {
  result.invariant_violations.push_back(std::move(detail));
}

// --- world construction ---------------------------------------------------

/// Builds the world's plane on its topology, with every network profile
/// (the gateway's too) pointing at the world's fault plan.
mesh::MeshDataplane& faulted_plane(World& w) {
  core::Topology& t = w.topology;
  mesh::NetworkProfile net;
  net.faults = &w.plan;
  core::GatewayConfig gateway;
  gateway.network = net;
  switch (w.plane_index) {
    case kNoMesh:
      return t.build_nomesh(net);
    case kIstio: {
      mesh::IstioMesh::Config config;
      config.network = net;
      return t.build_istio(config);
    }
    case kAmbient: {
      mesh::AmbientMesh::Config config;
      config.network = net;
      return t.build_ambient(config);
    }
    case kCanal: {
      core::CanalMesh::Config config;
      config.network = net;
      return t.build_canal(config, gateway);
    }
    default: {
      core::ProxylessMesh::Config config;
      config.network = net;
      return t.build_proxyless(config, gateway);
    }
  }
}

/// Arms the shared resilience filter chain (token bucket -> breaker ->
/// outlier ejection) on the plane from the spec's ResilienceSpec. Every
/// plane receives the identical config; only completion timing differs.
void enable_resilience(World& w) {
  const ResilienceSpec& r = w.spec.resilience;
  if (!r.enabled) return;
  proxy::ResilienceConfig config;
  proxy::BreakerConfig breaker;
  breaker.consecutive_errors = r.breaker_consecutive_errors;
  breaker.base_ejection_time = r.breaker_ejection_time;
  config.breaker = breaker;
  proxy::OutlierConfig outlier;
  outlier.consecutive_errors = r.outlier_consecutive_errors;
  outlier.base_ejection_time = r.outlier_ejection_time;
  outlier.max_ejection_percent = r.max_ejection_percent;
  config.outlier = outlier;
  if (r.rate_limit) {
    proxy::RateLimitConfig limit;
    limit.tokens_per_second = r.rate_tokens_per_second;
    limit.burst = r.rate_burst;
    config.rate_limit = limit;
  }
  w.plane->enable_resilience(config);
}

// --- custom route tables --------------------------------------------------

[[nodiscard]] bool has_custom_routes(const ScenarioSpec& spec,
                                     std::uint32_t service) {
  for (const auto& d : spec.direct_responses) {
    if (d.service == service) return true;
  }
  for (const auto& sp : spec.splits) {
    if (sp.service == service) return true;
  }
  return false;
}

/// The most recent kPushConfig event for service `s` whose push time is
/// <= `now`, or nullptr. Bootstrap/reconfig paths (new sidecars, gateway
/// extends) rebuild tables from the controller's *desired* state — the
/// latest pushed config — which keeps late-built proxies consistent with
/// the converged fleet. The planted stale-route plane never sees pushed
/// config anywhere, matching its suppressed epoch applies.
[[nodiscard]] const EventSpec* pushed_for(const World& w, std::uint32_t s,
                                          sim::TimePoint now) {
  if (w.spec.planted_skip_config_plane ==
      static_cast<int>(w.plane_index)) {
    return nullptr;
  }
  const EventSpec* best = nullptr;
  for (const auto& ev : w.spec.events) {
    if (ev.kind != EventKind::kPushConfig || ev.at > now) continue;
    if (ev.service % w.spec.service_count() != s) continue;
    if (best == nullptr || ev.at >= best->at) best = &ev;
  }
  return best;
}

/// Builds the route table installed for custom-routed service `s`:
/// the pushed rule (when a kPushConfig event is being applied), then
/// direct-response rules, then split rules, then the default route.
[[nodiscard]] http::RouteTable custom_table(const World& w, std::uint32_t s,
                                            const EventSpec* pushed = nullptr) {
  http::RouteTable table;
  if (pushed != nullptr) {
    http::RouteRule rule;
    rule.name = "pushed";
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = std::string(kPushedConfigPrefix);
    rule.action.direct_response_status = pushed->config_status;
    table.add_rule(std::move(rule));
  }
  for (const auto& d : w.spec.direct_responses) {
    if (d.service != s) continue;
    http::RouteRule rule;
    rule.name = "direct";
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = d.path_prefix;
    rule.action.direct_response_status = d.status;
    table.add_rule(std::move(rule));
  }
  for (const auto& sp : w.spec.splits) {
    if (sp.service != s) continue;
    http::RouteRule rule;
    rule.name = "split";
    rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
    rule.match.path = sp.path_prefix;
    rule.action.clusters = {
        {mesh::service_cluster_name(w.services[s]->id), sp.primary_weight},
        {mesh::service_cluster_name(w.services[sp.canary_service]->id),
         sp.canary_weight}};
    table.add_rule(std::move(rule));
  }
  http::RouteRule fallback;
  fallback.name = "default";
  fallback.action.clusters = {
      {mesh::service_cluster_name(w.services[s]->id), 1}};
  table.add_rule(std::move(fallback));
  return table;
}

/// Installs the canary endpoint pools plus custom route tables into one L7
/// engine. Canary pools go in first so a table never references a missing
/// cluster; `install_canaries` is false for Istio sidecars, whose full
/// config already contains every service's pool (reinstalling would reset
/// the canary service's own table).
void apply_custom_routes(World& w, proxy::ProxyEngine& engine,
                         bool install_canaries) {
  if (install_canaries) {
    for (const auto& sp : w.spec.splits) {
      mesh::install_service_config(engine, *w.services[sp.canary_service]);
    }
  }
  for (std::uint32_t s = 0; s < w.spec.service_count(); ++s) {
    const EventSpec* pushed = pushed_for(w, s, w.loop.now());
    if (!has_custom_routes(w.spec, s) && pushed == nullptr) continue;
    engine.set_route_table(w.services[s]->id, custom_table(w, s, pushed));
  }
}

/// Re-applies custom routing on one gateway backend (after install_service /
/// extend_service clobbered its tables with defaults).
void apply_gateway_custom_routes(World& w, core::GatewayBackend& backend) {
  bool hosts_custom = false;
  for (std::uint32_t s = 0; s < w.spec.service_count(); ++s) {
    if (!backend.hosts(w.services[s]->id)) continue;
    if (has_custom_routes(w.spec, s) ||
        pushed_for(w, s, w.loop.now()) != nullptr) {
      hosts_custom = true;
    }
  }
  if (!hosts_custom) return;
  for (std::size_t i = 0; i < backend.replica_count(); ++i) {
    proxy::ProxyEngine& engine = backend.replica(i)->engine();
    for (const auto& sp : w.spec.splits) {
      if (!backend.hosts(w.services[sp.service]->id)) continue;
      mesh::install_service_config(engine, *w.services[sp.canary_service]);
    }
    for (std::uint32_t s = 0; s < w.spec.service_count(); ++s) {
      const EventSpec* pushed = pushed_for(w, s, w.loop.now());
      if (!has_custom_routes(w.spec, s) && pushed == nullptr) continue;
      if (!backend.hosts(w.services[s]->id)) continue;
      engine.set_route_table(w.services[s]->id, custom_table(w, s, pushed));
    }
  }
}

void install_custom_routes(World& w) {
  switch (w.plane_index) {
    case kNoMesh:
      break;  // L4-only: route tables are ignored by design
    case kIstio:
      for (const auto& pod : w.cluster.pods()) {
        if (auto* engine = w.topology.istio->sidecar_engine(pod->id())) {
          apply_custom_routes(w, *engine, /*install_canaries=*/false);
        }
      }
      break;
    case kAmbient:
      for (std::uint32_t s = 0; s < w.spec.service_count(); ++s) {
        if (!has_custom_routes(w.spec, s)) continue;
        if (auto* engine =
                w.topology.ambient->waypoint_engine(w.services[s]->id)) {
          for (const auto& sp : w.spec.splits) {
            if (sp.service != s) continue;
            mesh::install_service_config(*engine,
                                         *w.services[sp.canary_service]);
          }
          engine->set_route_table(w.services[s]->id, custom_table(w, s));
        }
      }
      break;
    default:
      for (core::GatewayBackend* backend : w.topology.gateway->all_backends()) {
        apply_gateway_custom_routes(w, *backend);
      }
      break;
  }
}

// --- endpoint refresh on membership changes -------------------------------

/// Refreshes every endpoint pool holding `service` after a membership
/// change (new pod). Covers canary copies of the pool installed for
/// weighted splits. Refreshing preserves RR cursors and surviving
/// UpstreamEndpoint identity, so in-flight requests are safe.
void refresh_service_everywhere(World& w, k8s::Service& service) {
  switch (w.plane_index) {
    case kNoMesh:
      break;  // reads Service::ready_endpoints() directly
    case kIstio:
      for (const auto& pod : w.cluster.pods()) {
        if (auto* engine = w.topology.istio->sidecar_engine(pod->id())) {
          mesh::refresh_endpoints(*engine, service);
        }
      }
      break;
    case kAmbient: {
      if (auto* engine = w.topology.ambient->waypoint_engine(service.id)) {
        mesh::refresh_endpoints(*engine, service);
      }
      for (const auto& sp : w.spec.splits) {
        if (w.services[sp.canary_service] != &service) continue;
        if (auto* owner = w.topology.ambient->waypoint_engine(
                w.services[sp.service]->id)) {
          mesh::refresh_endpoints(*owner, service);
        }
      }
      break;
    }
    default: {
      for (core::GatewayBackend* backend :
           w.topology.gateway->placement_of(service.id)) {
        backend->refresh_endpoints(service);
      }
      for (const auto& sp : w.spec.splits) {
        if (w.services[sp.canary_service] != &service) continue;
        for (core::GatewayBackend* backend :
             w.topology.gateway->placement_of(w.services[sp.service]->id)) {
          backend->refresh_endpoints(service);
        }
      }
      break;
    }
  }
}

// --- scenario events ------------------------------------------------------

void apply_add_pod(World& w, const EventSpec& ev) {
  k8s::Service& service = *w.services[ev.service];
  k8s::Pod& pod = w.cluster.add_pod(service, w.app_profile);
  pod.set_phase(k8s::PodPhase::kRunning);
  switch (w.plane_index) {
    case kNoMesh:
      break;
    case kIstio:
      w.topology.istio->add_sidecar(pod);
      if (auto* engine = w.topology.istio->sidecar_engine(pod.id())) {
        apply_custom_routes(w, *engine, /*install_canaries=*/false);
      }
      break;
    case kAmbient:
      w.topology.ambient->on_pod_created(pod);
      break;
    case kCanal:
      w.topology.canal->on_pod_created(pod);
      break;
    default:
      w.topology.proxyless->enis().allocate(pod);
      break;
  }
  refresh_service_everywhere(w, service);
}

void apply_extend_service(World& w, const EventSpec& ev) {
  if (!w.has_gateway()) return;
  const net::ServiceId id = w.services[ev.service]->id;
  for (core::GatewayBackend* backend : w.topology.gateway->all_backends()) {
    if (backend->is_sandbox() || !backend->alive() || backend->hosts(id)) {
      continue;
    }
    w.topology.gateway->extend_service(id, *backend);
    apply_gateway_custom_routes(w, *backend);
    return;
  }
}

void apply_retract_service(World& w, const EventSpec& ev) {
  if (!w.has_gateway()) return;
  const net::ServiceId id = w.services[ev.service]->id;
  auto placement = w.topology.gateway->placement_of(id);
  if (placement.size() < 2) return;  // keep the service resolvable
  w.topology.gateway->retract_service(id, *placement.back());
}

void apply_drain_replica(World& w, const EventSpec& ev) {
  if (!w.has_gateway()) return;
  auto backends = w.topology.gateway->all_backends();
  if (backends.empty()) return;
  core::GatewayBackend& backend = *backends[ev.backend % backends.size()];
  if (ev.replica >= backend.replica_count()) return;
  core::GatewayReplica& replica = *backend.replica(ev.replica);
  std::size_t in_service = 0;
  for (std::size_t i = 0; i < backend.replica_count(); ++i) {
    if (backend.in_service(backend.replica(i)->id())) ++in_service;
  }
  // Draining the last serving replica would not be transparent.
  if (in_service < 2 || !backend.in_service(replica.id())) return;
  backend.drain_replica(replica.id());
}

void ensure_propagation(World& w) {
  if (w.propagation != nullptr) return;
  w.propagation = std::make_unique<k8s::ConfigPropagation>(
      w.loop, k8s::ControlPlaneProfile{});
}

void ensure_rotation(World& w) {
  if (w.rotation_accel != nullptr) return;
  w.cert_propagation = std::make_unique<k8s::ConfigPropagation>(
      w.loop, k8s::ControlPlaneProfile{});
  w.rotation_cpu = std::make_unique<sim::CpuSet>(w.loop, 4);
  w.rotation_accel = std::make_unique<crypto::AsymmetricAccelerator>(
      w.loop, *w.rotation_cpu, crypto::AccelMode::kBatched);
  w.rotation_ca = std::make_unique<crypto::CertificateAuthority>(
      "fuzz-ca", w.rotation_rng);
}

/// kPushConfig: delivers the event's route table as a config epoch. Each
/// proxy's table flips at its own delivery time — between the push and
/// convergence the planes disagree, which is exactly the window the
/// config-propagation-window allowlist entry exempts.
void apply_push_config(World& w, PlaneResult& result, std::size_t event_index,
                       std::size_t window) {
  ensure_propagation(w);
  const EventSpec& ev = w.spec.events[event_index];
  const auto s = static_cast<std::uint32_t>(
      ev.service % w.spec.service_count());
  mesh::MeshDataplane::EngineApply apply;
  if (w.spec.planted_skip_config_plane == static_cast<int>(w.plane_index)) {
    // Planted stale-route bug: epochs ack, route tables never change.
    apply = [](proxy::ProxyEngine&) {};
  } else {
    apply = [&w, &result, s, event_index](proxy::ProxyEngine& engine) {
      engine.set_route_table(w.services[s]->id,
                             custom_table(w, s, &w.spec.events[event_index]));
      result.max_epoch_skew =
          std::max(result.max_epoch_skew, w.propagation->epoch_skew());
    };
  }
  w.propagation->push_epoch(
      w.plane->config_epoch_targets(apply),
      [&w, &result, window](k8s::EpochReport) {
        result.config_windows[window].second = w.loop.now();
      });
}

/// kRotateCerts: staggered re-signing of every workload identity through
/// the batch crypto accelerator, then southbound distribution of the
/// fresh certs as one null-apply epoch (certificates change no routes).
/// Distribution goes through the dedicated cert stream — never the route
/// stream, where a fast cert epoch would supersede an in-flight route
/// push and silently drop its table.
void apply_rotate_certs(World& w, PlaneResult& result,
                        std::size_t event_index) {
  ensure_rotation(w);
  const EventSpec& ev = w.spec.events[event_index];
  std::vector<std::string> identities;
  for (const auto& pod : w.cluster.pods()) {
    identities.push_back("spiffe://tenant-1/ns/default/sa/pod-" +
                         std::to_string(net::id_value(pod->id())));
  }
  crypto::CertRotationWave::Options options;
  if (ev.duration > 0) options.stagger = ev.duration;
  w.rotation_waves.push_back(std::make_unique<crypto::CertRotationWave>(
      w.loop, *w.rotation_ca, options));
  w.rotation_waves.back()->run(
      identities, *w.rotation_accel, w.rotation_rng, nullptr,
      [&w, &result](crypto::RotationReport report) {
        result.certs_rotated += report.rotated;
        auto targets =
            w.plane->config_epoch_targets([](proxy::ProxyEngine&) {});
        const auto n = targets.empty() ? std::size_t{1} : targets.size();
        for (auto& t : targets) {
          t.target.config_bytes = report.cert_bytes / n;
        }
        w.cert_propagation->push_epoch(std::move(targets));
      });
}

/// Fault events go into the FaultPlan (armed by the injector / consulted by
/// NetworkProfile); ops events are scheduled directly on the loop.
void schedule_events(World& w, PlaneResult& result) {
  for (std::size_t e = 0; e < w.spec.events.size(); ++e) {
    const EventSpec& ev = w.spec.events[e];
    switch (ev.kind) {
      case EventKind::kPodKill: {
        const auto& endpoints = w.services[ev.service]->endpoints;
        const k8s::Pod* pod = endpoints[ev.pod % endpoints.size()];
        w.plan.kill_pod_for(ev.at, net::id_value(pod->id()), ev.duration);
        break;
      }
      case EventKind::kLinkLoss:
        w.plan.link_loss(ev.at, ev.at + ev.duration, 1.0);
        break;
      case EventKind::kLatencySpike:
        w.plan.link_latency_spike(ev.at, ev.at + ev.duration,
                                  ev.extra_latency);
        break;
      case EventKind::kReplicaCrash: {
        if (!w.has_gateway()) break;
        auto backends = w.topology.gateway->all_backends();
        const core::GatewayBackend* backend =
            backends[ev.backend % backends.size()];
        const auto backend_id =
            static_cast<std::uint32_t>(net::id_value(backend->id()));
        w.plan.crash_gateway_replica(ev.at, backend_id, ev.replica);
        w.plan.recover_gateway_replica(ev.at + ev.duration, backend_id,
                                       ev.replica);
        break;
      }
      case EventKind::kAddPod:
        w.loop.post_at(ev.at, [&w, e] { apply_add_pod(w, w.spec.events[e]); });
        break;
      case EventKind::kExtendService:
        w.loop.post_at(ev.at,
                       [&w, e] { apply_extend_service(w, w.spec.events[e]); });
        break;
      case EventKind::kRetractService:
        w.loop.post_at(ev.at,
                       [&w, e] { apply_retract_service(w, w.spec.events[e]); });
        break;
      case EventKind::kDrainReplica:
        w.loop.post_at(ev.at,
                       [&w, e] { apply_drain_replica(w, w.spec.events[e]); });
        break;
      case EventKind::kPushConfig: {
        const std::size_t window = result.config_windows.size();
        result.config_windows.emplace_back(ev.at, ev.at);
        w.loop.post_at(ev.at, [&w, &result, e, window] {
          apply_push_config(w, result, e, window);
        });
        break;
      }
      case EventKind::kRotateCerts:
        w.loop.post_at(ev.at,
                       [&w, &result, e] { apply_rotate_certs(w, result, e); });
        break;
    }
  }
  w.injector = std::make_unique<core::FaultInjector>(w.loop, w.cluster,
                                                     w.topology.gateway.get());
  w.injector->arm(w.plan);
}

// --- request driving ------------------------------------------------------

void record_completion(World& w, PlaneResult& result, std::size_t i,
                       const mesh::RequestResult& r) {
  RequestOutcome& out = result.outcomes[i];
  const RequestSpec& rs = w.spec.requests[i];
  if (out.completed) {
    violate(result, "request " + std::to_string(i) + " completed twice");
    return;
  }
  out.completed = true;
  out.status = r.status;
  out.attempts = r.attempts;
  out.timed_out = r.timed_out;
  out.rate_limited = r.rate_limited;
  out.resilience_affected = r.resilience_affected;
  out.completed_at = w.loop.now();
  if (w.loop.now() < w.last_completion) {
    violate(result, "clock regressed at request " + std::to_string(i));
  }
  w.last_completion = w.loop.now();
  if (k8s::Pod* pod = w.cluster.find_pod(r.served_by)) {
    const auto it = w.service_index.find(pod->service());
    out.served_service = it == w.service_index.end() ? -1 : it->second;
  }
  // Test-only planted differential bug (shrinker convergence tests).
  if (w.spec.planted_plane == static_cast<int>(w.plane_index) &&
      !rs.null_client && !rs.unknown_service &&
      rs.dst_service == w.spec.planted_service) {
    out.status = 599;
  }
  if (net::id_value(r.tenant) != rs.tenant) {
    violate(result, "request " + std::to_string(i) + " ran as tenant " +
                        std::to_string(net::id_value(r.tenant)) +
                        ", spec says " + std::to_string(rs.tenant));
  }
  if (!w.traced()) return;
  out.traced = r.trace != nullptr;
  if (r.trace == nullptr) {
    violate(result, "request " + std::to_string(i) + " missing trace");
    return;
  }
  if (r.trace->tenant() != r.tenant) {
    violate(result, "request " + std::to_string(i) +
                        " trace tenant disagrees with result tenant");
  }
  if (!r.trace->contiguous()) {
    violate(result, "request " + std::to_string(i) +
                        " trace has gaps/overlaps: " + r.trace->to_json());
  }
  if (r.trace->total_duration() != r.latency) {
    violate(result,
            "request " + std::to_string(i) + " trace spans sum to " +
                std::to_string(r.trace->total_duration()) + "ns, latency is " +
                std::to_string(r.latency) + "ns");
  }
  w.recorders.record(*r.trace, r.status);
  World::ExpectedTenant& expected = w.expected[r.trace->tenant()];
  ++expected.count;
  expected.latency_sum_us += sim::to_microseconds(r.trace->total_duration());
  if (r.status >= 400) ++expected.errors;
  if (out.sampled) result.traces.add(*r.trace, i, r.status);
}

void schedule_requests(World& w, PlaneResult& result) {
  result.outcomes.resize(w.spec.requests.size());
  for (std::size_t i = 0; i < w.spec.requests.size(); ++i) {
    result.outcomes[i].issued_at = w.spec.requests[i].at;
    w.loop.post_at(w.spec.requests[i].at, [&w, &result, i] {
      const RequestSpec& rs = w.spec.requests[i];
      mesh::RequestOptions opts;
      if (!rs.null_client) {
        const auto& endpoints = w.services[rs.client_service]->endpoints;
        opts.client = endpoints[rs.client_pod % endpoints.size()];
      }
      opts.dst_service = rs.unknown_service
                             ? kUnknownService
                             : w.services[rs.dst_service]->id;
      opts.tenant = static_cast<net::TenantId>(rs.tenant);
      opts.path = rs.path;
      opts.trace = w.traced();
      // Head-based sampling: decided when the request is issued, before
      // any outcome is known.
      if (w.traced()) {
        result.outcomes[i].sampled = w.sampler.should_sample(opts.tenant);
      }
      w.plane->send_request_with_retries(
          opts, w.retry_policy, w.retry_rng,
          [&w, &result, i](mesh::RequestResult r) {
            record_completion(w, result, i, r);
          });
    });
  }
}

// --- post-run invariants --------------------------------------------------

void check_sessions_of(PlaneResult& result, const std::string& where,
                       std::size_t count) {
  if (count == 0) return;
  violate(result, where + " holds " + std::to_string(count) +
                      " sessions after drain");
}

void check_gateway_sessions(World& w, PlaneResult& result) {
  std::size_t index = 0;
  for (core::GatewayBackend* backend : w.topology.gateway->all_backends()) {
    for (std::size_t i = 0; i < backend->replica_count(); ++i) {
      check_sessions_of(result,
                        "gateway backend " + std::to_string(index) +
                            " replica " + std::to_string(i),
                        backend->replica(i)->engine().sessions().size());
    }
    ++index;
  }
}

void check_session_drain(World& w, PlaneResult& result) {
  switch (w.plane_index) {
    case kNoMesh:
      break;
    case kIstio:
      for (const auto& pod : w.cluster.pods()) {
        if (auto* engine = w.topology.istio->sidecar_engine(pod->id())) {
          check_sessions_of(result,
                            "sidecar of pod " +
                                std::to_string(net::id_value(pod->id())),
                            engine->sessions().size());
        }
      }
      break;
    case kAmbient: {
      std::size_t n = 0;
      for (const auto& node : w.cluster.nodes()) {
        if (auto* engine = w.topology.ambient->ztunnel_engine(*node)) {
          check_sessions_of(result, "ztunnel " + std::to_string(n),
                            engine->sessions().size());
        }
        ++n;
      }
      for (std::size_t s = 0; s < w.services.size(); ++s) {
        if (auto* engine =
                w.topology.ambient->waypoint_engine(w.services[s]->id)) {
          check_sessions_of(result, "waypoint " + std::to_string(s),
                            engine->sessions().size());
        }
      }
      break;
    }
    case kCanal: {
      std::size_t n = 0;
      for (const auto& node : w.cluster.nodes()) {
        if (auto* proxy = w.topology.canal->proxy_for(*node)) {
          check_sessions_of(result, "on-node proxy " + std::to_string(n),
                            proxy->engine().sessions().size());
        }
        ++n;
      }
      check_gateway_sessions(w, result);
      break;
    }
    default:
      check_gateway_sessions(w, result);
      break;
  }
}

/// Metrics ≡ trace-totals, per tenant: every tenant's registry slice
/// (count, summed latency, request/error counters) must equal what the
/// traces it recorded imply. The latency sum is compared exactly — the
/// histogram performs the identical IEEE additions in the identical
/// order — so a single misrouted or double-counted record is caught.
void check_metrics(World& w, PlaneResult& result) {
  if (!w.traced()) return;  // proxyless has gateway-side observability only
  std::uint64_t tenant_total = 0;
  for (const auto& [tenant, expected] : w.expected) {
    const std::string tenant_str = std::to_string(net::id_value(tenant));
    const telemetry::MetricsRegistry::Labels labels = {
        {"dataplane", std::string(kPlanes[w.plane_index])},
        {"tenant", tenant_str}};
    const telemetry::HdrHistogram* latency =
        w.registry.find_histogram("request_latency_us", labels);
    const std::uint64_t recorded = latency == nullptr ? 0 : latency->count();
    if (recorded != expected.count) {
      violate(result, "tenant " + tenant_str + " registry holds " +
                          std::to_string(recorded) +
                          " request latencies, traces produced " +
                          std::to_string(expected.count));
      continue;
    }
    if (latency == nullptr) continue;
    if (latency->sum() != expected.latency_sum_us) {
      violate(result, "tenant " + tenant_str + " latency sum is " +
                          std::to_string(latency->sum()) +
                          "us, trace-derived sum is " +
                          std::to_string(expected.latency_sum_us) + "us");
    }
    const auto* requests = w.registry.find_counter("requests_total", labels);
    const double counted = requests == nullptr ? 0.0 : requests->value();
    if (counted != static_cast<double>(expected.count)) {
      violate(result, "tenant " + tenant_str + " requests_total counter is " +
                          std::to_string(counted) + ", traces recorded " +
                          std::to_string(expected.count));
    }
    const auto* errors =
        w.registry.find_counter("request_errors_total", labels);
    const double error_count = errors == nullptr ? 0.0 : errors->value();
    if (error_count != static_cast<double>(expected.errors)) {
      violate(result, "tenant " + tenant_str +
                          " request_errors_total counter is " +
                          std::to_string(error_count) + ", traces recorded " +
                          std::to_string(expected.errors));
    }
    tenant_total += recorded;
  }
  // The tenant slices must also account for every recorded trace — a
  // record that invented a tenant would show up as a phantom histogram.
  std::uint64_t registry_total = 0;
  for (const auto& [labels, hist] :
       w.registry.histograms_named("request_latency_us")) {
    (void)labels;
    registry_total += hist->count();
  }
  if (registry_total != tenant_total) {
    violate(result, "registry holds " + std::to_string(registry_total) +
                        " request latencies across all labels, expected " +
                        std::to_string(tenant_total) +
                        " from the known tenants");
  }
}

/// Sampled-trace counts must match the sampler's closed form exactly:
/// after n issued requests at rate r with phase p, floor(n*r + p) traces
/// are in the export — no drift, no off-by-one, on any plane.
void check_sampling(World& w, PlaneResult& result) {
  if (!w.traced()) return;
  // Tenants come from the spec, not from w.expected: a tenant whose every
  // request failed early still issued requests and owes the closed form.
  std::map<net::TenantId, std::uint64_t> spec_issued;
  for (const RequestSpec& rs : w.spec.requests) {
    ++spec_issued[static_cast<net::TenantId>(rs.tenant)];
  }
  std::uint64_t sampled_total = 0;
  for (const auto& [tenant, issued_in_spec] : spec_issued) {
    const std::uint64_t issued = w.sampler.issued(tenant);
    if (issued != issued_in_spec) {
      violate(result, "tenant " + std::to_string(net::id_value(tenant)) +
                          " issued " + std::to_string(issued) +
                          " sampler decisions, spec has " +
                          std::to_string(issued_in_spec) + " requests");
    }
    const std::uint64_t sampled = w.sampler.sampled(tenant);
    const std::uint64_t closed_form = w.sampler.expected_samples(tenant,
                                                                 issued);
    if (sampled != closed_form) {
      violate(result, "tenant " + std::to_string(net::id_value(tenant)) +
                          " sampled " + std::to_string(sampled) + " of " +
                          std::to_string(issued) +
                          " traces, closed form says " +
                          std::to_string(closed_form));
    }
    sampled_total += sampled;
  }
  if (result.traces.size() != sampled_total &&
      result.invariant_violations.empty()) {
    violate(result, "trace export holds " +
                        std::to_string(result.traces.size()) +
                        " traces, sampler took " +
                        std::to_string(sampled_total));
  }
}

void check_conservation(World& w, PlaneResult& result) {
  std::size_t completed = 0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    if (result.outcomes[i].completed) {
      ++completed;
    } else {
      violate(result, "request " + std::to_string(i) +
                          " still in flight after the loop drained");
    }
  }
  if (completed != w.spec.requests.size()) {
    violate(result, "conservation: issued " +
                        std::to_string(w.spec.requests.size()) +
                        ", completed " + std::to_string(completed));
  }
  if (w.loop.pending_events() != 0) {
    violate(result, "event loop reports " +
                        std::to_string(w.loop.pending_events()) +
                        " pending events after run()");
  }
}

}  // namespace

PlaneResult run_plane(const ScenarioSpec& spec, std::size_t plane_index) {
  World w(spec, plane_index);
  PlaneResult result;
  result.plane = kPlanes[plane_index];

  w.plane = &faulted_plane(w);
  install_custom_routes(w);
  enable_resilience(w);
  w.recorders = telemetry::TenantRecorderSet(
      w.registry, telemetry::MetricsRegistry::Labels{
                      {"dataplane", std::string(kPlanes[plane_index])}});
  w.retry_policy.max_attempts = 3;
  // Well above any clean-path latency (including injected spikes), so only
  // genuinely lost requests are abandoned.
  w.retry_policy.per_try_timeout = sim::milliseconds(250);

  schedule_events(w, result);
  schedule_requests(w, result);
  w.loop.run();

  check_conservation(w, result);
  check_session_drain(w, result);
  check_metrics(w, result);
  check_sampling(w, result);
  if (w.propagation != nullptr) {
    result.config_applies = w.propagation->applies_total();
    result.config_superseded = w.propagation->superseded_total();
  }
  if (w.cert_propagation != nullptr) {
    result.config_applies += w.cert_propagation->applies_total();
    result.config_superseded += w.cert_propagation->superseded_total();
  }
  if (w.rotation_accel != nullptr) {
    result.rotation_batches = w.rotation_accel->batches_flushed();
  }
  return result;
}

std::array<PlaneResult, 5> run_all_planes(const ScenarioSpec& spec) {
  return {run_plane(spec, kNoMesh), run_plane(spec, kIstio),
          run_plane(spec, kAmbient), run_plane(spec, kCanal),
          run_plane(spec, kProxyless)};
}

}  // namespace canal::fuzz
