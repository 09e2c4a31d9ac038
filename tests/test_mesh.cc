// Integration tests for the baseline dataplanes: NoMesh, Istio (per-pod
// sidecars), Ambient (ztunnel + waypoint).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "canal/topology.h"
#include "proxy/engine.h"
#include "tests/testutil.h"

namespace canal::mesh {
namespace {

/// service-0 is the frontend (clients), service-1 the backend.
struct Testbed : core::Topology {
  explicit Testbed(std::size_t nodes = 2, std::size_t pods_per_service = 3)
      : core::Topology(
            testutil::frontend_backend_spec(167, nodes, pods_per_service)) {}

  k8s::Service* frontend = services[0];
  k8s::Service* backend = services[1];

  k8s::Pod* client() { return frontend->endpoints.front(); }

  RequestOptions request_to_backend() {
    RequestOptions opts;
    opts.client = client();
    opts.dst_service = backend->id;
    opts.path = "/api/items";
    return opts;
  }
};

RequestResult run_one(sim::EventLoop& loop, MeshDataplane& mesh,
                      const RequestOptions& opts) {
  std::optional<RequestResult> result;
  mesh.send_request(opts, [&](RequestResult r) { result = r; });
  loop.run();
  EXPECT_TRUE(result.has_value());
  return result.value_or(RequestResult{});
}

TEST(NoMesh, DirectRequestSucceeds) {
  Testbed bed;
  NoMesh& mesh = bed.build_nomesh();
  const auto result = run_one(bed.loop, mesh, bed.request_to_backend());
  EXPECT_EQ(result.status, 200);
  EXPECT_GT(result.latency, 0);
  EXPECT_EQ(mesh.proxy_count(), 0u);
  EXPECT_DOUBLE_EQ(mesh.user_cpu_core_seconds(), 0.0);
}

TEST(NoMesh, UnknownServiceIs404) {
  Testbed bed;
  NoMesh& mesh = bed.build_nomesh();
  RequestOptions opts = bed.request_to_backend();
  opts.dst_service = static_cast<net::ServiceId>(0xDEAD);
  EXPECT_EQ(run_one(bed.loop, mesh, opts).status, 404);
}

TEST(NoMesh, NoReadyEndpointsIs503) {
  Testbed bed;
  NoMesh& mesh = bed.build_nomesh();
  for (k8s::Pod* pod : bed.backend->endpoints) {
    pod->set_phase(k8s::PodPhase::kTerminated);
  }
  EXPECT_EQ(run_one(bed.loop, mesh, bed.request_to_backend()).status, 503);
}

TEST(Istio, RequestTraversesTwoSidecars) {
  Testbed bed;
  IstioMesh& mesh = bed.build_istio();
  EXPECT_EQ(mesh.proxy_count(), bed.cluster.pod_count());

  const auto result = run_one(bed.loop, mesh, bed.request_to_backend());
  EXPECT_EQ(result.status, 200);
  EXPECT_GT(mesh.user_cpu_core_seconds(), 0.0);

  // Both the client's and the server's sidecars processed traffic.
  auto* client_engine = mesh.sidecar_engine(bed.client()->id());
  ASSERT_NE(client_engine, nullptr);
  EXPECT_EQ(client_engine->requests_total(), 1u);
  auto* server_engine = mesh.sidecar_engine(result.served_by);
  ASSERT_NE(server_engine, nullptr);
  EXPECT_EQ(server_engine->requests_total(), 1u);
}

TEST(Istio, SlowerThanNoMesh) {
  Testbed bed;
  NoMesh& bare = bed.build_nomesh();
  IstioMesh& istio = bed.build_istio();
  const auto bare_result = run_one(bed.loop, bare, bed.request_to_backend());
  const auto istio_result = run_one(bed.loop, istio, bed.request_to_backend());
  EXPECT_GT(istio_result.latency, bare_result.latency);
}

TEST(Istio, CloseAfterTearsDownSessions) {
  Testbed bed;
  IstioMesh& mesh = bed.build_istio();
  RequestOptions opts = bed.request_to_backend();
  opts.close_after = true;
  run_one(bed.loop, mesh, opts);
  EXPECT_EQ(mesh.sidecar_engine(bed.client()->id())->sessions().size(), 0u);
}

TEST(Istio, FullConfigPushedToEverySidecar) {
  Testbed bed;
  IstioMesh& mesh = bed.build_istio();
  const auto targets = mesh.routing_update_targets();
  EXPECT_EQ(targets.size(), bed.cluster.pod_count());
  const std::size_t full = full_config_bytes(bed.cluster);
  for (const auto& target : targets) {
    EXPECT_EQ(target.config_bytes, full);
  }
}

TEST(Istio, PodCreateTouchesAllSidecars) {
  Testbed bed;
  IstioMesh& mesh = bed.build_istio();
  k8s::Pod& fresh = bed.cluster.add_pod(*bed.backend, k8s::AppProfile{});
  const auto targets = mesh.pod_create_targets({&fresh});
  // Existing sidecars + the new one.
  EXPECT_EQ(targets.size(), bed.cluster.pod_count());
}

TEST(Istio, MtlsHandshakePerNewConnection) {
  Testbed bed;
  IstioMesh& mesh = bed.build_istio();
  RequestOptions opts = bed.request_to_backend();
  opts.new_connection = true;
  run_one(bed.loop, mesh, opts);
  EXPECT_GE(mesh.sidecar_engine(bed.client()->id())->handshakes(), 1u);
}

TEST(Ambient, RequestTraversesZtunnelsAndWaypoint) {
  Testbed bed;
  AmbientMesh& mesh = bed.build_ambient();
  // nodes ztunnels + services waypoints.
  EXPECT_EQ(mesh.proxy_count(),
            bed.cluster.nodes().size() + bed.cluster.services().size());

  const auto result = run_one(bed.loop, mesh, bed.request_to_backend());
  EXPECT_EQ(result.status, 200);
  auto* waypoint = mesh.waypoint_engine(bed.backend->id);
  ASSERT_NE(waypoint, nullptr);
  EXPECT_EQ(waypoint->requests_total(), 1u);
  auto* client_zt = mesh.ztunnel_engine(bed.client()->node());
  ASSERT_NE(client_zt, nullptr);
  EXPECT_EQ(client_zt->requests_total(), 1u);
}

TEST(Ambient, FewerProxiesThanIstio) {
  Testbed bed(2, 5);
  IstioMesh& istio = bed.build_istio();
  AmbientMesh& ambient = bed.build_ambient();
  EXPECT_LT(ambient.proxy_count(), istio.proxy_count());
}

TEST(Ambient, RoutingUpdateCheaperThanIstio) {
  Testbed bed(2, 5);
  IstioMesh& istio = bed.build_istio();
  AmbientMesh& ambient = bed.build_ambient();
  auto bytes = [](const std::vector<k8s::ConfigTarget>& targets) {
    std::size_t total = 0;
    for (const auto& t : targets) total += t.config_bytes;
    return total;
  };
  EXPECT_LT(bytes(ambient.routing_update_targets()),
            bytes(istio.routing_update_targets()));
}

TEST(Ambient, LatencyBetweenNoMeshAndIstio) {
  Testbed bed;
  NoMesh& bare = bed.build_nomesh();
  IstioMesh& istio = bed.build_istio();
  AmbientMesh& ambient = bed.build_ambient();

  // Warm (established) connections isolate per-request path costs.
  // Average several requests: endpoint/waypoint placement varies hops.
  auto mean_latency = [&](MeshDataplane& mesh) {
    sim::Duration total = 0;
    for (int i = 0; i < 20; ++i) {
      RequestOptions opts = bed.request_to_backend();
      opts.new_connection = false;
      total += run_one(bed.loop, mesh, opts).latency;
    }
    return total / 20;
  };
  const auto t_bare = mean_latency(bare);
  const auto t_ambient = mean_latency(ambient);
  const auto t_istio = mean_latency(istio);
  EXPECT_LT(t_bare, t_ambient);
  EXPECT_LT(t_ambient, t_istio);
}

TEST(Ambient, WaypointIsSingleL7Point) {
  // Istio runs the request through TWO L7 proxies; Ambient through one.
  Testbed bed;
  IstioMesh& istio = bed.build_istio();
  AmbientMesh& ambient = bed.build_ambient();
  RequestOptions opts = bed.request_to_backend();
  opts.new_connection = false;
  run_one(bed.loop, istio, opts);
  run_one(bed.loop, ambient, opts);
  // Count L7 engines that processed a request.
  int istio_l7 = 0;
  for (const auto& pod : bed.cluster.pods()) {
    auto* engine = istio.sidecar_engine(pod->id());
    if (engine != nullptr && engine->requests_total() > 0) ++istio_l7;
  }
  int ambient_l7 = 0;
  for (const auto& service : bed.cluster.services()) {
    auto* engine = ambient.waypoint_engine(service->id);
    if (engine != nullptr && engine->requests_total() > 0) ++ambient_l7;
  }
  EXPECT_EQ(istio_l7, 2);
  EXPECT_EQ(ambient_l7, 1);
}

TEST(Ambient, PodCreationRefreshesWaypoint) {
  Testbed bed;
  AmbientMesh& mesh = bed.build_ambient();
  k8s::AppProfile profile;
  profile.fast_service_mean = sim::milliseconds(1);
  k8s::Pod& fresh = bed.cluster.add_pod(*bed.backend, profile);
  fresh.set_phase(k8s::PodPhase::kRunning);
  mesh.on_pod_created(fresh);
  // The waypoint's endpoint pool now includes the new pod.
  auto* waypoint = mesh.waypoint_engine(bed.backend->id);
  auto* cluster = waypoint->clusters().find(
      service_cluster_name(bed.backend->id));
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->endpoints().size(), bed.backend->endpoints.size());
}

TEST(ConfigHelpers, FullConfigCoversAllServices) {
  Testbed bed;
  const std::size_t full = full_config_bytes(bed.cluster);
  const std::size_t frontend_only = service_config_bytes(*bed.frontend);
  EXPECT_GT(full, frontend_only);
  EXPECT_GE(full, service_config_bytes(*bed.frontend) +
                      service_config_bytes(*bed.backend));
}

TEST(ConfigHelpers, ServiceVipDeterministic) {
  EXPECT_EQ(service_vip(static_cast<net::ServiceId>(5)),
            service_vip(static_cast<net::ServiceId>(5)));
  EXPECT_NE(service_vip(static_cast<net::ServiceId>(5)),
            service_vip(static_cast<net::ServiceId>(6)));
}

TEST(ConfigHelpers, BuildRequestCarriesOptions) {
  RequestOptions opts;
  opts.path = "/checkout";
  opts.method = http::Method::kPost;
  opts.headers = {{"X-User", "42"}};
  opts.request_bytes = 100;
  const http::Request req = build_request(opts);
  EXPECT_EQ(req.path, "/checkout");
  EXPECT_EQ(req.method, http::Method::kPost);
  EXPECT_EQ(req.headers.get("X-User"), "42");
  EXPECT_EQ(req.body.size(), 100u);
}

// Throughput property: Istio saturates earlier than Ambient under the same
// offered load (the Fig 11 ordering).
TEST(Comparative, IstioSaturatesBeforeAmbient) {
  Testbed bed(2, 3);
  IstioMesh& istio = bed.build_istio();
  AmbientMesh& ambient = bed.build_ambient();

  auto drive = [&](MeshDataplane& mesh) {
    sim::Histogram latency_ms;
    constexpr int kRequests = 600;
    const sim::Duration spacing = sim::microseconds(500);  // 2000 RPS
    const sim::TimePoint start = bed.loop.now();
    for (int i = 0; i < kRequests; ++i) {
      bed.loop.schedule_at(start + i * spacing, [&, i] {
        RequestOptions opts = bed.request_to_backend();
        opts.new_connection = false;
        mesh.send_request(opts, [&](RequestResult r) {
          latency_ms.record(sim::to_milliseconds(r.latency));
        });
      });
    }
    bed.loop.run();
    return latency_ms.percentile(99);
  };
  const double istio_p99 = drive(istio);
  const double ambient_p99 = drive(ambient);
  EXPECT_GT(istio_p99, ambient_p99);
}

// ---- service_vip regression ----------------------------------------------

TEST(ConfigHelpers, ServiceVipDistinctBeyond16BitCounters) {
  // The old mapping truncated the counter to 16 bits, silently aliasing
  // service 1 with service 2^16 + 1.
  const auto low = service_vip(static_cast<net::ServiceId>(1));
  const auto wrapped = service_vip(static_cast<net::ServiceId>(0x10001));
  const auto high = service_vip(static_cast<net::ServiceId>(0x10000));
  EXPECT_NE(low, wrapped);
  EXPECT_NE(low, high);
  EXPECT_NE(wrapped, high);
}

TEST(ConfigHelpers, ServiceVipIgnoresTenantBits) {
  // ServiceId is (tenant << 32) | counter; tenants share the VIP range by
  // design (VNIs differentiate them), so only the counter matters.
  const auto tenant1 = service_vip(static_cast<net::ServiceId>(5));
  const auto tenant2 =
      service_vip(static_cast<net::ServiceId>((7ULL << 32) | 5ULL));
  EXPECT_EQ(tenant1, tenant2);
}

TEST(ConfigHelpers, ServiceVipRejectsCounterOverflow) {
  EXPECT_THROW(service_vip(static_cast<net::ServiceId>(1ULL << 24)),
               std::invalid_argument);
  // The largest encodable counter still works.
  EXPECT_NO_THROW(service_vip(static_cast<net::ServiceId>((1ULL << 24) - 1)));
}

// ---- refresh_endpoints: LB state survives scale events -------------------

TEST(RefreshEndpoints, ScaleUpPreservesLbState) {
  Testbed bed;
  sim::CpuSet cpu{bed.loop, 2};
  proxy::ProxyEngine engine(bed.loop, cpu, proxy::ProxyEngine::Config{},
                            sim::Rng(157));
  refresh_endpoints(engine, *bed.backend);
  auto* cluster =
      engine.clusters().find(service_cluster_name(bed.backend->id));
  ASSERT_NE(cluster, nullptr);
  ASSERT_EQ(cluster->endpoints().size(), 3u);

  // Advance the round-robin cursor past two endpoints and remember an
  // endpoint object's identity.
  sim::Rng rng(1);
  static_cast<void>(cluster->pick(rng));
  static_cast<void>(cluster->pick(rng));
  const proxy::UpstreamEndpoint* original = cluster->find_endpoint(
      net::id_value(bed.backend->endpoints[0]->id()));
  ASSERT_NE(original, nullptr);

  k8s::AppProfile profile;
  profile.fast_fraction = 1.0;
  profile.fast_service_mean = sim::milliseconds(1);
  bed.cluster.add_pod(*bed.backend, profile)
      .set_phase(k8s::PodPhase::kRunning);
  refresh_endpoints(engine, *bed.backend);

  EXPECT_EQ(cluster->endpoints().size(), 4u);
  // A rebuild would have destroyed the old UpstreamEndpoint objects and
  // reset the cursor; the in-place diff preserves both.
  EXPECT_EQ(cluster->find_endpoint(
                net::id_value(bed.backend->endpoints[0]->id())),
            original);
  EXPECT_EQ(cluster->pick(rng)->key,
            net::id_value(bed.backend->endpoints[2]->id()));
}

// ---- Error-path matrix across every dataplane ----------------------------

struct PlaneFixture {
  Testbed bed;
  MeshDataplane* plane = nullptr;

  explicit PlaneFixture(const std::string& name) {
    if (name == "nomesh") plane = &bed.build_nomesh();
    if (name == "istio") plane = &bed.build_istio();
    if (name == "ambient") plane = &bed.build_ambient();
    if (name == "canal") plane = &bed.build_canal();
    if (name == "proxyless") plane = &bed.build_proxyless();
  }
};

const char* const kPlanes[] = {"nomesh", "istio", "ambient", "canal",
                               "proxyless"};

TEST(ErrorPaths, NullClientIs400OnEveryPlane) {
  for (const char* name : kPlanes) {
    SCOPED_TRACE(name);
    PlaneFixture fx(name);
    RequestOptions opts = fx.bed.request_to_backend();
    opts.client = nullptr;
    EXPECT_EQ(run_one(fx.bed.loop, *fx.plane, opts).status, 400);
  }
}

TEST(ErrorPaths, UnknownServiceIs404OnEveryPlane) {
  for (const char* name : kPlanes) {
    SCOPED_TRACE(name);
    PlaneFixture fx(name);
    RequestOptions opts = fx.bed.request_to_backend();
    opts.dst_service = static_cast<net::ServiceId>(0xDEAD);
    EXPECT_EQ(run_one(fx.bed.loop, *fx.plane, opts).status, 404);
  }
}

TEST(ErrorPaths, NoReadyEndpointsIs503OnEveryPlane) {
  for (const char* name : kPlanes) {
    SCOPED_TRACE(name);
    PlaneFixture fx(name);
    for (k8s::Pod* pod : fx.bed.backend->endpoints) {
      pod->set_phase(k8s::PodPhase::kTerminated);
    }
    EXPECT_EQ(
        run_one(fx.bed.loop, *fx.plane, fx.bed.request_to_backend()).status,
        503);
  }
}

TEST(ErrorPaths, TerminatedPodStillListedSurfaces503OnProxiedPlanes) {
  // One of three pods dies after install; the proxies' endpoint tables
  // still list it, so a round-robin cycle hits it once. NoMesh resolves
  // endpoints at send time and never does.
  for (const char* name : kPlanes) {
    SCOPED_TRACE(name);
    PlaneFixture fx(name);
    fx.bed.backend->endpoints[0]->set_phase(k8s::PodPhase::kTerminated);
    int errors = 0;
    for (int i = 0; i < 3; ++i) {
      const auto result =
          run_one(fx.bed.loop, *fx.plane, fx.bed.request_to_backend());
      if (result.status == 503) ++errors;
    }
    if (std::string(name) == "nomesh") {
      EXPECT_EQ(errors, 0);
    } else {
      EXPECT_GE(errors, 1);
    }
  }
}

TEST(ErrorPaths, SessionTableExhaustionIs503) {
  PlaneFixture fx("canal");
  for (core::GatewayBackend* backend : fx.bed.gateway->all_backends()) {
    for (std::size_t r = 0; r < backend->replica_count(); ++r) {
      auto& sessions = backend->replica(r)->engine().sessions();
      for (std::uint32_t i = 0; i < sessions.capacity(); ++i) {
        net::FiveTuple tuple{
            net::Ipv4Addr(6, static_cast<std::uint8_t>(i >> 16),
                          static_cast<std::uint8_t>(i >> 8),
                          static_cast<std::uint8_t>(i)),
            net::Ipv4Addr(10, 255, 0, 1), static_cast<std::uint16_t>(i), 443,
            net::Protocol::kTcp};
        sessions.insert(tuple, fx.bed.backend->id, fx.bed.loop.now());
      }
    }
  }
  RequestOptions opts = fx.bed.request_to_backend();
  opts.new_connection = true;
  EXPECT_EQ(run_one(fx.bed.loop, *fx.plane, opts).status, 503);
}

}  // namespace
}  // namespace canal::mesh
