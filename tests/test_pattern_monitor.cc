// Tests for §6.3's end-to-end traffic-pattern monitoring: detection of
// in-phase services, transparent scatter execution, drain-based source
// retirement, and the availability floor.
#include <gtest/gtest.h>

#include <cmath>

#include "canal/canal_mesh.h"
#include "canal/pattern_monitor.h"

namespace canal::core {
namespace {

struct PatternWorld {
  sim::EventLoop loop;
  k8s::Cluster cluster{loop, static_cast<net::TenantId>(1), sim::Rng(3001)};
  MeshGateway gateway{loop, GatewayConfig{}, sim::Rng(3003)};
  std::unique_ptr<CanalMesh> mesh;
  k8s::Service* a = nullptr;
  k8s::Service* b = nullptr;
  GatewayBackend* shared = nullptr;

  PatternWorld() {
    gateway.add_az(6);
    cluster.add_node(static_cast<net::AzId>(0), 8);
    a = &cluster.add_service("svc-a");
    b = &cluster.add_service("svc-b");
    k8s::AppProfile profile;
    cluster.add_pod(*a, profile).set_phase(k8s::PodPhase::kRunning);
    cluster.add_pod(*b, profile).set_phase(k8s::PodPhase::kRunning);
    mesh = std::make_unique<CanalMesh>(loop, cluster, gateway,
                                       CanalMesh::Config{}, sim::Rng(3011));
    mesh->install();
    shared = gateway.placement_of(a->id).front();
    gateway.extend_service(b->id, *shared);
    for (auto* backend : gateway.all_backends()) {
      backend->start_sampling(sim::minutes(10));
    }
  }

  /// Drives `hours` of diurnal load; services a and b in phase on `shared`.
  void drive_in_phase(int hours) {
    for (int hour = 0; hour < hours; ++hour) {
      const double phase =
          std::sin((hour % 24 - 6) / 24.0 * 2 * 3.14159265);
      const double rps = std::max(100.0, 9000.0 + 8000.0 * phase);
      shared->inject_load(a->id, rps, sim::hours(1), 0.05, 0.8);
      shared->inject_load(b->id, rps * 0.7, sim::hours(1), 0.05, 0.2);
      loop.run_until(loop.now() + sim::hours(1));
    }
  }
};

TEST(PatternMonitor, ScattersInPhaseServices) {
  PatternWorld world;
  world.drive_in_phase(36);
  TrafficPatternMonitor monitor(world.loop, world.gateway,
                                PatternMonitorConfig{});
  monitor.evaluate_now();
  ASSERT_FALSE(monitor.migrations().empty());
  const auto& migration = monitor.migrations().front();
  EXPECT_EQ(migration.plan.source, world.shared->id());
  EXPECT_NE(migration.plan.target, world.shared->id());
  // The service now also lives on the complementary target.
  GatewayBackend* target = world.gateway.find_backend(migration.plan.target);
  ASSERT_NE(target, nullptr);
  EXPECT_TRUE(target->hosts(migration.plan.service));
}

void seed_sessions(PatternWorld& world, net::ServiceId service, int count) {
  auto& sessions = world.shared->replica(0)->engine().sessions();
  // Salt the source address by service so tuples never collide across
  // services (SessionTable is keyed by 5-tuple alone).
  const auto salt = static_cast<std::uint8_t>(net::id_value(service) & 0xFF);
  for (int i = 0; i < count; ++i) {
    sessions.insert(
        net::FiveTuple{net::Ipv4Addr(10, salt,
                                     static_cast<std::uint8_t>(i >> 8),
                                     static_cast<std::uint8_t>(i)),
                       net::Ipv4Addr(10, 255, 0, 1),
                       static_cast<std::uint16_t>(i), 443,
                       net::Protocol::kTcp},
        service, world.loop.now());
  }
}

TEST(PatternMonitor, RetiresSourceAfterDrain) {
  PatternWorld world;
  world.drive_in_phase(36);
  // Live sessions for both candidate services keep the source serving
  // existing flows during the scatter.
  seed_sessions(world, world.a->id, 50);
  seed_sessions(world, world.b->id, 50);
  TrafficPatternMonitor monitor(world.loop, world.gateway,
                                PatternMonitorConfig{});
  monitor.evaluate_now();
  ASSERT_FALSE(monitor.migrations().empty());
  const auto service = monitor.migrations().front().plan.service;
  // Drain is pending: existing sessions are still live on the source.
  EXPECT_EQ(monitor.in_progress(), 1u);
  EXPECT_TRUE(world.shared->hosts(service));
  ASSERT_GT(world.gateway.placement_of(service).size(), 2u);
  // Sessions age out via the sampler's idle expiry (15 min timeout).
  world.loop.run_until(world.loop.now() + sim::hours(1));
  EXPECT_EQ(monitor.in_progress(), 0u);
  ASSERT_TRUE(monitor.migrations().front().completed.has_value());
  // The source no longer hosts the migrated service...
  EXPECT_FALSE(world.shared->hosts(service));
  // ...and the placement map agrees.
  for (GatewayBackend* backend : world.gateway.placement_of(service)) {
    EXPECT_NE(backend, world.shared);
  }
}

TEST(PatternMonitor, QuietBackendsLeftAlone) {
  PatternWorld world;
  // Mild out-of-phase load only.
  for (int hour = 0; hour < 26; ++hour) {
    world.loop.run_until(world.loop.now() + sim::hours(1));
    const double phase_a = std::sin((hour % 24) / 24.0 * 6.28);
    world.shared->inject_load(world.a->id,
                              std::max(50.0, 500.0 * (1 + phase_a)),
                              sim::minutes(1));
    world.shared->inject_load(world.b->id,
                              std::max(50.0, 500.0 * (1 - phase_a)),
                              sim::minutes(1));
  }
  TrafficPatternMonitor monitor(world.loop, world.gateway,
                                PatternMonitorConfig{});
  monitor.evaluate_now();
  EXPECT_TRUE(monitor.migrations().empty());
}

TEST(PatternMonitor, AvailabilityFloorKeepsTwoPlacements) {
  PatternWorld world;
  world.drive_in_phase(36);
  seed_sessions(world, world.a->id, 50);
  seed_sessions(world, world.b->id, 50);
  TrafficPatternMonitor monitor(world.loop, world.gateway,
                                PatternMonitorConfig{});
  monitor.evaluate_now();
  ASSERT_FALSE(monitor.migrations().empty());
  const auto service = monitor.migrations().front().plan.service;
  const auto target_id = monitor.migrations().front().plan.target;
  // While the drain is pending, shrink the placement to (source, target):
  // retirement would drop availability below two, so it must be skipped.
  for (GatewayBackend* backend : world.gateway.placement_of(service)) {
    if (backend != world.shared && backend->id() != target_id) {
      world.gateway.retract_service(service, *backend);
    }
  }
  world.loop.run_until(world.loop.now() + sim::hours(1));
  EXPECT_TRUE(world.shared->hosts(service));  // floor held
  EXPECT_EQ(world.gateway.placement_of(service).size(), 2u);
}

TEST(PatternMonitor, PeriodicEvaluationViaTimer) {
  PatternWorld world;
  TrafficPatternMonitor monitor(world.loop, world.gateway,
                                PatternMonitorConfig{});
  monitor.start();
  world.drive_in_phase(36);
  monitor.stop();
  world.loop.run_until(world.loop.now() + sim::hours(2));
  EXPECT_FALSE(monitor.migrations().empty());
}

TEST(PatternMonitor, ReadsItsWholeWindowUnderManySmallJobs) {
  // Replica cores keep 5 minutes of busy history for the water level. The
  // monitor judges sources over 1 h, so it must extend that history: on the
  // backends and replicas that exist when it is built, and on ones added
  // after. Every replica core here runs a 50 ms job every 100 ms for
  // 65 minutes (36,000 separate busy intervals per hour, under
  // CpuCore::kMaxIntervals), so the 1 h read is 0.5; with 5 minutes of
  // history it would read 0.5 * 5 / 60, about 0.04.
  sim::EventLoop loop;
  MeshGateway gateway{loop, GatewayConfig{}, sim::Rng(3003)};
  const net::AzId az = gateway.add_az(1);
  const PatternMonitorConfig config;
  TrafficPatternMonitor monitor(loop, gateway, config);
  gateway.add_backend(az);
  gateway.all_backends().front()->add_replica();
  sim::PeriodicTimer load(loop, sim::milliseconds(100), [&] {
    for (GatewayBackend* backend : gateway.all_backends()) {
      for (std::size_t r = 0; r < backend->replica_count(); ++r) {
        sim::CpuSet& cpu = backend->replica(r)->cpu();
        for (std::size_t c = 0; c < cpu.size(); ++c) {
          cpu.core(c).execute(sim::milliseconds(50));
        }
      }
    }
  });
  load.start();
  loop.run_until(sim::minutes(65));
  load.stop();
  ASSERT_EQ(gateway.all_backends().size(), 2u);
  for (GatewayBackend* backend : gateway.all_backends()) {
    EXPECT_NEAR(backend->cpu_utilization(config.utilization_window), 0.5,
                0.01);
  }
}

TEST(GatewayRetract, KeepsPlacementConsistent) {
  PatternWorld world;
  const auto before = world.gateway.placement_of(world.a->id).size();
  GatewayBackend* extra = nullptr;
  for (auto* backend : world.gateway.all_backends()) {
    if (!backend->hosts(world.a->id)) {
      extra = backend;
      break;
    }
  }
  ASSERT_NE(extra, nullptr);
  world.gateway.extend_service(world.a->id, *extra);
  EXPECT_EQ(world.gateway.placement_of(world.a->id).size(), before + 1);
  world.gateway.retract_service(world.a->id, *extra);
  EXPECT_EQ(world.gateway.placement_of(world.a->id).size(), before);
  EXPECT_FALSE(extra->hosts(world.a->id));
}

}  // namespace
}  // namespace canal::core
