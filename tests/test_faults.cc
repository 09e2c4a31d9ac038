// Tests for the failure model: sim::FaultPlan schedules and point-in-time
// queries, core::FaultInjector arming plans against live pods and gateway
// replicas, the client retry/timeout layer on top of the dataplanes, and
// the GatewayHealthMonitor closing crash-induced 503 windows.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "canal/fault_injector.h"
#include "canal/topology.h"
#include "sim/fault.h"
#include "telemetry/trace.h"
#include "tests/testutil.h"

namespace canal {
namespace {

using sim::milliseconds;

// ---- FaultPlan -----------------------------------------------------------

TEST(FaultPlan, PointQueriesHonorWindowBounds) {
  sim::FaultPlan plan;
  plan.link_loss(milliseconds(10), milliseconds(20), 0.3);
  plan.link_loss(milliseconds(15), milliseconds(30), 0.1);
  plan.link_latency_spike(milliseconds(10), milliseconds(20),
                          sim::microseconds(100));
  plan.link_latency_spike(milliseconds(15), milliseconds(30),
                          sim::microseconds(50));
  plan.stale_config(milliseconds(10), milliseconds(20), milliseconds(5));

  EXPECT_DOUBLE_EQ(plan.link_loss_at(milliseconds(5)), 0.0);
  // Window start is inclusive, end exclusive.
  EXPECT_DOUBLE_EQ(plan.link_loss_at(milliseconds(10)), 0.3);
  // Overlap: loss takes the max, latency sums.
  EXPECT_DOUBLE_EQ(plan.link_loss_at(milliseconds(17)), 0.3);
  EXPECT_EQ(plan.extra_link_latency_at(milliseconds(17)),
            sim::microseconds(150));
  EXPECT_DOUBLE_EQ(plan.link_loss_at(milliseconds(20)), 0.1);
  EXPECT_DOUBLE_EQ(plan.link_loss_at(milliseconds(30)), 0.0);
  EXPECT_EQ(plan.config_delay_at(milliseconds(12)), milliseconds(5));
  EXPECT_EQ(plan.config_delay_at(milliseconds(25)), 0);
}

TEST(FaultPlan, KillPodForSchedulesCrashAndRestart) {
  sim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.kill_pod_for(milliseconds(10), 42, milliseconds(20));
  ASSERT_EQ(plan.pod_events().size(), 2u);
  EXPECT_EQ(plan.pod_events()[0].at, milliseconds(10));
  EXPECT_FALSE(plan.pod_events()[0].restart);
  EXPECT_EQ(plan.pod_events()[1].at, milliseconds(30));
  EXPECT_TRUE(plan.pod_events()[1].restart);
  EXPECT_EQ(plan.pod_events()[1].pod, 42u);
  EXPECT_FALSE(plan.empty());
}

// ---- Mesh testbed ---------------------------------------------------------

/// service-0 is the frontend (clients), service-1 the backend.
struct MeshTestbed : core::Topology {
  MeshTestbed() : core::Topology(testutil::frontend_backend_spec(167)) {}

  k8s::Service* frontend = services[0];
  k8s::Service* backend = services[1];

  mesh::RequestOptions request_to_backend() {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend->id;
    opts.path = "/api/items";
    return opts;
  }
};

const char* const kPlanes[] = {"nomesh", "istio", "ambient", "canal",
                               "proxyless"};

/// Builds plane `name` on `bed` with its links under `net`.
mesh::MeshDataplane& build_plane(MeshTestbed& bed, const std::string& name,
                                 const mesh::NetworkProfile& net) {
  if (name == "nomesh") return bed.build_nomesh(net);
  if (name == "istio") {
    mesh::IstioMesh::Config config;
    config.network = net;
    return bed.build_istio(config);
  }
  if (name == "ambient") {
    mesh::AmbientMesh::Config config;
    config.network = net;
    return bed.build_ambient(config);
  }
  if (name == "canal") {
    core::CanalMesh::Config config;
    config.network = net;
    return bed.build_canal(config);
  }
  core::ProxylessMesh::Config config;
  config.network = net;
  return bed.build_proxyless(config);
}

mesh::RequestResult run_with_retries(sim::EventLoop& loop,
                                     mesh::MeshDataplane& mesh,
                                     const mesh::RequestOptions& opts,
                                     const mesh::RetryPolicy& policy,
                                     sim::Rng& rng,
                                     mesh::RetryBudget* budget = nullptr) {
  std::optional<mesh::RequestResult> result;
  mesh.send_request_with_retries(
      opts, policy, rng, [&](mesh::RequestResult r) { result = r; }, budget);
  loop.run();
  EXPECT_TRUE(result.has_value());
  return result.value_or(mesh::RequestResult{});
}

// ---- FaultInjector: pods -------------------------------------------------

TEST(FaultInjector, CrashLeavesPodInEndpointsUntilRestart) {
  MeshTestbed bed;
  k8s::Pod* victim = bed.backend->endpoints.front();
  sim::FaultPlan plan;
  plan.kill_pod_for(milliseconds(10),
                    net::id_value(victim->id()), milliseconds(20));
  core::FaultInjector injector(bed.loop, bed.cluster);
  injector.arm(plan);

  bed.loop.run_until(milliseconds(15));
  EXPECT_EQ(victim->phase(), k8s::PodPhase::kTerminated);
  // The stale-endpoint failure mode: the dead pod is still listed.
  EXPECT_EQ(bed.backend->endpoints.size(), 3u);
  EXPECT_EQ(injector.pods_crashed(), 1u);
  EXPECT_EQ(injector.pods_restarted(), 0u);

  bed.loop.run_until(milliseconds(40));
  EXPECT_EQ(victim->phase(), k8s::PodPhase::kRunning);
  EXPECT_EQ(injector.pods_restarted(), 1u);
}

TEST(FaultInjector, RestartHookDelayedByStaleConfigWindow) {
  MeshTestbed bed;
  k8s::Pod* victim = bed.backend->endpoints.front();
  sim::FaultPlan plan;
  plan.kill_pod_for(milliseconds(10),
                    net::id_value(victim->id()), milliseconds(10));
  plan.stale_config(0, sim::seconds(1), milliseconds(5));
  core::FaultInjector injector(bed.loop, bed.cluster);
  std::optional<sim::TimePoint> hook_fired;
  injector.set_pod_restart_hook(
      [&](k8s::Pod&) { hook_fired = bed.loop.now(); });
  injector.arm(plan);
  bed.loop.run();
  ASSERT_TRUE(hook_fired.has_value());
  // Restart at 20ms + 5ms stale-config delay.
  EXPECT_EQ(*hook_fired, milliseconds(25));
}

TEST(FaultInjector, StaleEndpoints503DuringOutageThenRecover) {
  MeshTestbed bed;
  mesh::IstioMesh& mesh = bed.build_istio();
  sim::FaultPlan plan;
  for (k8s::Pod* pod : bed.backend->endpoints) {
    plan.kill_pod_for(milliseconds(10), net::id_value(pod->id()),
                      milliseconds(20));
  }
  core::FaultInjector injector(bed.loop, bed.cluster);
  injector.arm(plan);

  std::optional<int> during;
  std::optional<int> after;
  bed.loop.schedule_at(milliseconds(15), [&] {
    mesh.send_request(bed.request_to_backend(),
                      [&](mesh::RequestResult r) { during = r.status; });
  });
  bed.loop.schedule_at(milliseconds(40), [&] {
    mesh.send_request(bed.request_to_backend(),
                      [&](mesh::RequestResult r) { after = r.status; });
  });
  bed.loop.run();
  // Istio's sidecars hold stale endpoint tables, keep picking the dead
  // pods, and surface 503s; once the pods restart the same stale entries
  // are live again.
  EXPECT_EQ(during.value_or(0), 503);
  EXPECT_EQ(after.value_or(0), 200);
}

// ---- Retry layer ---------------------------------------------------------

TEST(Retry, RetriesStale503sUntilLiveEndpoint) {
  MeshTestbed bed;
  mesh::IstioMesh& mesh = bed.build_istio();
  // Endpoints 0 and 1 die after install: round-robin picks them first.
  bed.backend->endpoints[0]->set_phase(k8s::PodPhase::kTerminated);
  bed.backend->endpoints[1]->set_phase(k8s::PodPhase::kTerminated);

  mesh::RetryPolicy policy;
  policy.max_attempts = 4;
  sim::Rng rng(7);
  mesh::RequestOptions opts = bed.request_to_backend();
  opts.trace = true;
  const auto result =
      run_with_retries(bed.loop, mesh, opts, policy, rng);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_FALSE(result.timed_out);
  // Retries are visible in the merged trace: attempt spans plus one
  // backoff span per retry, still tiling [send, done] exactly.
  ASSERT_NE(result.trace, nullptr);
  EXPECT_TRUE(result.trace->contiguous());
  EXPECT_EQ(result.trace->total_duration(), result.latency);
  EXPECT_EQ(result.trace->count_of(telemetry::Component::kRetry), 2u);
}

TEST(Retry, NonRetryableStatusesAreNotRetried) {
  MeshTestbed bed;
  mesh::NoMesh& mesh = bed.build_nomesh();
  mesh::RetryPolicy policy;
  policy.max_attempts = 5;
  sim::Rng rng(7);

  mesh::RequestOptions unknown = bed.request_to_backend();
  unknown.dst_service = static_cast<net::ServiceId>(0xDEAD);
  auto result = run_with_retries(bed.loop, mesh, unknown, policy, rng);
  EXPECT_EQ(result.status, 404);
  EXPECT_EQ(result.attempts, 1u);

  mesh::RequestOptions null_client = bed.request_to_backend();
  null_client.client = nullptr;
  result = run_with_retries(bed.loop, mesh, null_client, policy, rng);
  EXPECT_EQ(result.status, 400);
  EXPECT_EQ(result.attempts, 1u);
}

TEST(Retry, PerTryTimeoutClassifiesDroppedRequestAs504) {
  for (const char* name : kPlanes) {
    SCOPED_TRACE(name);
    MeshTestbed bed;
    sim::FaultPlan plan;
    plan.link_loss(0, sim::seconds(10), 1.0);
    mesh::NetworkProfile net;
    net.faults = &plan;
    mesh::MeshDataplane& mesh = build_plane(bed, name, net);

    mesh::RetryPolicy policy;
    policy.max_attempts = 1;
    policy.per_try_timeout = milliseconds(25);
    sim::Rng rng(7);
    const auto result = run_with_retries(
        bed.loop, mesh, bed.request_to_backend(), policy, rng);
    // The request vanished on the wire; only the per-try timeout answers.
    EXPECT_EQ(result.status, 504);
    EXPECT_TRUE(result.timed_out);
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_EQ(result.latency, milliseconds(25));
  }
}

TEST(Retry, LatencySpikeDelaysEveryWireCrossing) {
  // One request per plane, with and without a link latency spike covering
  // the whole run: the spike is paid once per wire crossing of the hop
  // chain, so the latency grows by exactly crossings x spike.
  const std::pair<const char*, int> crossings[] = {
      {"nomesh", 2}, {"istio", 2}, {"ambient", 4}, {"canal", 4},
      {"proxyless", 4}};
  constexpr sim::Duration kSpike = sim::microseconds(700);
  for (const auto& [name, hops] : crossings) {
    SCOPED_TRACE(name);
    mesh::RetryPolicy policy;
    policy.max_attempts = 1;
    sim::Rng rng(7);
    MeshTestbed calm;
    const auto base =
        run_with_retries(calm.loop, build_plane(calm, name, {}),
                         calm.request_to_backend(), policy, rng);

    MeshTestbed spiked;
    sim::FaultPlan plan;
    plan.link_latency_spike(0, sim::seconds(10), kSpike);
    mesh::NetworkProfile net;
    net.faults = &plan;
    const auto slow =
        run_with_retries(spiked.loop, build_plane(spiked, name, net),
                         spiked.request_to_backend(), policy, rng);
    EXPECT_EQ(base.status, 200);
    EXPECT_EQ(slow.status, 200);
    EXPECT_EQ(slow.latency - base.latency, hops * kSpike);
  }
}

TEST(Retry, RecoversOnceLossWindowEnds) {
  MeshTestbed bed;
  sim::FaultPlan plan;
  // Attempts 1 and 2 (sent at 0 and ~26ms) are dropped; attempt 3
  // (~52ms) lands after the window and succeeds.
  plan.link_loss(0, milliseconds(40), 1.0);
  mesh::NetworkProfile net;
  net.faults = &plan;
  mesh::NoMesh& mesh = bed.build_nomesh(net);

  mesh::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.per_try_timeout = milliseconds(25);
  sim::Rng rng(7);
  mesh::RequestOptions opts = bed.request_to_backend();
  opts.trace = true;
  const auto result = run_with_retries(bed.loop, mesh, opts, policy, rng);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_FALSE(result.timed_out);
  // Two abandoned attempts and two backoffs appear as kRetry spans, and
  // the merged trace still tiles the full [send, done] interval.
  ASSERT_NE(result.trace, nullptr);
  EXPECT_TRUE(result.trace->contiguous());
  EXPECT_EQ(result.trace->total_duration(), result.latency);
  EXPECT_EQ(result.trace->count_of(telemetry::Component::kRetry), 4u);
}

TEST(Retry, ExhaustedAttemptsSurface504) {
  MeshTestbed bed;
  sim::FaultPlan plan;
  plan.link_loss(0, sim::seconds(10), 1.0);
  mesh::NetworkProfile net;
  net.faults = &plan;
  mesh::NoMesh& mesh = bed.build_nomesh(net);

  mesh::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.per_try_timeout = milliseconds(25);
  sim::Rng rng(7);
  const auto result = run_with_retries(bed.loop, mesh,
                                       bed.request_to_backend(), policy, rng);
  EXPECT_EQ(result.status, 504);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_GT(result.latency, 3 * milliseconds(25));
}

TEST(Retry, BudgetCapsRetries) {
  MeshTestbed bed;
  sim::FaultPlan plan;
  plan.link_loss(0, sim::seconds(10), 1.0);
  mesh::NetworkProfile net;
  net.faults = &plan;
  mesh::NoMesh& mesh = bed.build_nomesh(net);

  mesh::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.per_try_timeout = milliseconds(25);
  sim::Rng rng(7);
  mesh::RetryBudget budget(/*ratio=*/0.0, /*burst=*/1);
  const auto result = run_with_retries(
      bed.loop, mesh, bed.request_to_backend(), policy, rng, &budget);
  // Only one retry fits the budget; the second is denied and the result
  // stands at two attempts.
  EXPECT_EQ(result.status, 504);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(budget.retries(), 1u);
  EXPECT_GE(budget.denied(), 1u);
}

TEST(RetryPolicy, BackoffIsCappedExponentialAndDeterministic) {
  mesh::RetryPolicy policy;
  policy.base_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(3);
  policy.jitter = 0.0;
  sim::Rng rng(1);
  EXPECT_EQ(policy.backoff_before(2, rng), milliseconds(1));
  EXPECT_EQ(policy.backoff_before(3, rng), milliseconds(2));
  EXPECT_EQ(policy.backoff_before(4, rng), milliseconds(3));  // capped
  EXPECT_EQ(policy.backoff_before(5, rng), milliseconds(3));

  policy.jitter = 0.5;
  sim::Rng a(42);
  sim::Rng b(42);
  for (std::uint32_t attempt = 2; attempt < 6; ++attempt) {
    const sim::Duration wait = policy.backoff_before(attempt, a);
    EXPECT_EQ(wait, policy.backoff_before(attempt, b));
    EXPECT_GE(wait, policy.base_backoff / 2);
  }
}

TEST(RetryBudget, AdmitsWithinRatioPlusBurst) {
  mesh::RetryBudget budget(/*ratio=*/0.1, /*burst=*/2);
  for (int i = 0; i < 10; ++i) budget.on_request();
  // 0.1 * 10 + 2 = 3 retries allowed.
  EXPECT_TRUE(budget.try_acquire());
  EXPECT_TRUE(budget.try_acquire());
  EXPECT_TRUE(budget.try_acquire());
  EXPECT_FALSE(budget.try_acquire());
  EXPECT_EQ(budget.requests(), 10u);
  EXPECT_EQ(budget.retries(), 3u);
  EXPECT_EQ(budget.denied(), 1u);
}

// ---- Gateway faults + health monitor -------------------------------------

/// One node; service-0 is the frontend, service-1 the backend; canal on a
/// two-backend gateway.
struct CanalTestbed : core::Topology {
  CanalTestbed()
      : core::Topology(testutil::frontend_backend_spec(263, /*nodes=*/1)) {
    build_canal();
  }

  k8s::Service* frontend = services[0];
  k8s::Service* backend_svc = services[1];

  mesh::RequestOptions request() {
    mesh::RequestOptions opts;
    opts.client = frontend->endpoints.front();
    opts.dst_service = backend_svc->id;
    opts.path = "/api";
    opts.new_connection = true;
    return opts;
  }
};

TEST(GatewayHealthMonitor, EvictsCrashedReplicaAndReadmitsAfterRecovery) {
  CanalTestbed bed;
  core::GatewayBackend* backend = bed.gateway->all_backends().front();
  const net::ReplicaId replica = backend->replica(0)->id();
  sim::FaultPlan plan;
  const auto backend_id = static_cast<std::uint32_t>(backend->id());
  plan.crash_gateway_replica(milliseconds(50), backend_id, 0);
  plan.recover_gateway_replica(milliseconds(500), backend_id, 0);
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);

  core::GatewayHealthMonitor::Config monitor_config;
  monitor_config.probe_interval = milliseconds(20);
  core::GatewayHealthMonitor monitor(bed.loop, *bed.gateway, monitor_config);
  monitor.start();

  EXPECT_TRUE(backend->in_service(replica));
  // Crash at 50ms; three failed probes later the replica is out of ECMP.
  bed.loop.run_until(milliseconds(200));
  EXPECT_FALSE(backend->in_service(replica));
  EXPECT_EQ(monitor.evictions(), 1u);
  EXPECT_EQ(injector.replicas_crashed(), 1u);
  // Recovery at 500ms; two healthy probes later it is back in service.
  bed.loop.run_until(milliseconds(700));
  EXPECT_TRUE(backend->in_service(replica));
  EXPECT_EQ(monitor.readmissions(), 1u);
  monitor.stop();
}

TEST(GatewayHealthMonitor, Closes503WindowFromCrashedReplicas) {
  CanalTestbed bed;
  // Crash replica 0 of every backend so roughly half the new flows hash
  // onto a dead data plane while its ECMP/bucket state lingers.
  sim::FaultPlan plan;
  for (core::GatewayBackend* backend : bed.gateway->all_backends()) {
    plan.crash_gateway_replica(
        milliseconds(50), static_cast<std::uint32_t>(backend->id()), 0);
  }
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);

  core::GatewayHealthMonitor::Config monitor_config;
  monitor_config.probe_interval = milliseconds(100);
  core::GatewayHealthMonitor monitor(bed.loop, *bed.gateway, monitor_config);
  monitor.start();

  int failures_before_eviction = 0;
  int failures_after_eviction = 0;
  constexpr int kProbes = 30;
  for (int i = 0; i < kProbes; ++i) {
    // Detection needs 3 failed probes (~350ms); these land before it.
    bed.loop.schedule_at(milliseconds(60 + i), [&] {
      bed.canal->send_request(bed.request(), [&](mesh::RequestResult r) {
        if (!r.ok()) ++failures_before_eviction;
      });
    });
    bed.loop.schedule_at(milliseconds(600 + i), [&] {
      bed.canal->send_request(bed.request(), [&](mesh::RequestResult r) {
        if (!r.ok()) ++failures_after_eviction;
      });
    });
  }
  bed.loop.run_until(sim::seconds(1));
  EXPECT_GT(failures_before_eviction, 0);
  EXPECT_EQ(failures_after_eviction, 0);
  EXPECT_EQ(monitor.evictions(), 2u);
  monitor.stop();
}

}  // namespace
}  // namespace canal
