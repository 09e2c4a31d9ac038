// Unit tests for the K8s substrate: cluster inventory, pod app model,
// controller push/southbound accounting, health probing.
#include <gtest/gtest.h>

#include <stdexcept>

#include "k8s/cluster.h"
#include "k8s/controller.h"
#include "k8s/health.h"
#include "k8s/objects.h"

namespace canal::k8s {
namespace {

Cluster make_cluster(sim::EventLoop& loop, std::size_t nodes = 2) {
  Cluster cluster(loop, static_cast<net::TenantId>(1), sim::Rng(131));
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster.add_node(static_cast<net::AzId>(0), 4);
  }
  return cluster;
}

TEST(Cluster, NodeAndServiceAllocation) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 3);
  EXPECT_EQ(cluster.nodes().size(), 3u);
  Service& service = cluster.add_service("frontend");
  EXPECT_EQ(service.name, "frontend");
  EXPECT_EQ(service.tenant, static_cast<net::TenantId>(1));
  EXPECT_EQ(cluster.find_service("frontend"), &service);
  EXPECT_EQ(cluster.find_service("missing"), nullptr);
}

TEST(Cluster, ServiceIdsEmbedTenant) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  EXPECT_EQ(net::id_value(service.id) >> 32, 1u);
}

TEST(Cluster, PodPlacementBalances) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 2);
  Service& service = cluster.add_service("s");
  for (int i = 0; i < 10; ++i) {
    cluster.add_pod(service, AppProfile{});
  }
  std::size_t on_first = cluster.pods_on(*cluster.nodes()[0]).size();
  std::size_t on_second = cluster.pods_on(*cluster.nodes()[1]).size();
  EXPECT_EQ(on_first, 5u);
  EXPECT_EQ(on_second, 5u);
}

TEST(Cluster, PodLifecycle) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& pod = cluster.add_pod(service, AppProfile{});
  EXPECT_EQ(pod.phase(), PodPhase::kPending);
  EXPECT_FALSE(pod.ready());
  pod.set_phase(PodPhase::kRunning);
  EXPECT_TRUE(pod.ready());
  EXPECT_EQ(cluster.running_pods(), 1u);
  EXPECT_EQ(service.ready_endpoints().size(), 1u);

  cluster.remove_pod(pod.id());
  EXPECT_EQ(pod.phase(), PodPhase::kTerminated);
  EXPECT_TRUE(service.endpoints.empty());
}

TEST(Cluster, UniquePodIps) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  std::set<net::Ipv4Addr> ips;
  for (int i = 0; i < 50; ++i) {
    ips.insert(cluster.add_pod(service, AppProfile{}).ip());
  }
  EXPECT_EQ(ips.size(), 50u);
}

TEST(Cluster, NodeUtilizationIsReadableOnlyOnceTracked) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop, 1);
  Node& before = *cluster.nodes().front();
  before.cpu().core(0).execute(sim::milliseconds(100));
  EXPECT_THROW((void)before.cpu().utilization(sim::seconds(1)),
               std::logic_error);
  EXPECT_EQ(before.cpu().core(0).interval_count(), 0u);

  cluster.track_node_utilization(sim::seconds(5));
  // A node added later gets the same history, with no second declaration.
  Node& after = cluster.add_node(static_cast<net::AzId>(0), 2);
  after.cpu().core(0).execute(sim::milliseconds(500));
  after.cpu().core(1).execute(sim::milliseconds(250));
  before.cpu().core(1).execute(sim::milliseconds(400));
  loop.run_until(sim::seconds(1));
  EXPECT_EQ(after.cpu().utilization(sim::seconds(1)), (0.5 + 0.25) / 2);
  // The existing node counts work since tracking began; the 100 ms of
  // core 0, still queued when tracking began, is counted too.
  EXPECT_EQ(before.cpu().core(0).utilization(sim::seconds(1)), 0.1);
  EXPECT_EQ(before.cpu().core(1).utilization(sim::seconds(1)), 0.4);
}

TEST(Pod, ServesRequestWithServiceTime) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  AppProfile profile;
  profile.fast_fraction = 1.0;
  profile.fast_service_mean = sim::milliseconds(10);
  profile.sigma = 0.01;
  Pod& pod = cluster.add_pod(service, profile);
  pod.set_phase(PodPhase::kRunning);

  http::Request req;
  sim::TimePoint answered = -1;
  int status = 0;
  pod.handle_request(req, [&](http::Response& resp) {
    answered = loop.now();
    status = resp.status;
  });
  loop.run();
  EXPECT_EQ(status, 200);
  EXPECT_GT(answered, sim::milliseconds(5));
  EXPECT_EQ(pod.requests_served(), 1u);
}

TEST(Pod, TerminatedAnswers503) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& pod = cluster.add_pod(service, AppProfile{});
  pod.set_phase(PodPhase::kTerminated);
  http::Request req;
  int status = 0;
  pod.handle_request(req, [&](http::Response& resp) { status = resp.status; });
  loop.run();
  EXPECT_EQ(status, 503);
}

TEST(Pod, AppErrorRateProducesErrors) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  AppProfile profile;
  profile.app_error_rate = 0.5;
  profile.fast_service_mean = sim::microseconds(1);
  profile.slow_service_mean = sim::microseconds(1);
  Pod& pod = cluster.add_pod(service, profile);
  pod.set_phase(PodPhase::kRunning);
  int errors = 0;
  for (int i = 0; i < 200; ++i) {
    http::Request req;
    pod.handle_request(req, [&](http::Response& resp) {
      if (resp.is_error()) ++errors;
    });
  }
  loop.run();
  EXPECT_NEAR(errors, 100, 30);
}

TEST(AppProfile, BimodalServiceTimes) {
  AppProfile profile;  // defaults: 45 ms / 140 ms modes
  sim::Rng rng(137);
  int fast = 0, slow = 0;
  for (int i = 0; i < 4000; ++i) {
    const double ms = sim::to_milliseconds(profile.sample_service_time(rng));
    if (ms < 90.0) ++fast;
    else ++slow;
  }
  // 60/40 mixture (Fig 24's two latency modes).
  EXPECT_NEAR(static_cast<double>(fast) / 4000.0, 0.6, 0.05);
  EXPECT_GT(slow, 0);
}

TEST(Southbound, SerializesTransfersFifo) {
  sim::EventLoop loop;
  // 8 Mbps, zero latency: 1 MB takes 1 s.
  SouthboundChannel channel(loop, 8'000'000, 0);
  sim::TimePoint first = -1, second = -1;
  channel.transfer(1'000'000, [&] { first = loop.now(); });
  channel.transfer(1'000'000, [&] { second = loop.now(); });
  loop.run();
  EXPECT_EQ(first, sim::seconds(1));
  EXPECT_EQ(second, sim::seconds(2));
  EXPECT_EQ(channel.total_bytes(), 2'000'000u);
}

TEST(Southbound, PeakBandwidthTracked) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 100'000'000, 0);
  channel.transfer(1'000'000);
  loop.run();
  EXPECT_GT(channel.peak_bps(), 0.0);
  EXPECT_LE(channel.peak_bps(), 100'000'000.0 * 1.1);
}

TEST(Controller, PushReportAccounting) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 100'000'000);
  Controller controller(loop, 4, channel);
  std::optional<PushReport> report;
  controller.push_update({{"p1", 10'000}, {"p2", 10'000}},
                         [&](PushReport r) { report = r; });
  loop.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->targets, 2u);
  EXPECT_EQ(report->bytes_pushed, 20'000u);
  EXPECT_GT(report->build_time, 0);
  EXPECT_GT(report->total_time, report->build_time);
  EXPECT_EQ(controller.updates_completed(), 1u);
}

TEST(Controller, BuildTimeScalesWithTargets) {
  sim::EventLoop loop1, loop2;
  SouthboundChannel ch1(loop1, 1'000'000'000), ch2(loop2, 1'000'000'000);
  Controller small(loop1, 1, ch1), large(loop2, 1, ch2);

  std::vector<ConfigTarget> few(10, {"p", 50'000});
  std::vector<ConfigTarget> many(100, {"p", 50'000});
  sim::Duration small_build = 0, large_build = 0;
  small.push_update(few, [&](PushReport r) { small_build = r.build_time; });
  large.push_update(many, [&](PushReport r) { large_build = r.build_time; });
  loop1.run();
  loop2.run();
  EXPECT_GT(large_build, 5 * small_build);
}

TEST(Controller, PushTimeBoundBySouthbandBandwidth) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 8'000'000, 0);  // 1 MB/s
  Controller controller(loop, 8, channel);
  std::optional<PushReport> report;
  controller.push_update(std::vector<ConfigTarget>(10, {"p", 100'000}),
                         [&](PushReport r) { report = r; });
  loop.run();
  ASSERT_TRUE(report.has_value());
  // 1 MB at 1 MB/s ≈ 1 s of pure push time.
  EXPECT_GE(report->total_time - report->build_time, sim::seconds(1));
}

TEST(Controller, EmptyUpdateCompletes) {
  sim::EventLoop loop;
  SouthboundChannel channel(loop, 1'000'000);
  Controller controller(loop, 1, channel);
  bool done = false;
  controller.push_update({}, [&](PushReport r) {
    done = true;
    EXPECT_EQ(r.targets, 0u);
  });
  loop.run();
  EXPECT_TRUE(done);
}

TEST(HealthProber, ProbesAllTargetsPeriodically) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& p1 = cluster.add_pod(service, AppProfile{});
  Pod& p2 = cluster.add_pod(service, AppProfile{});
  p1.set_phase(PodPhase::kRunning);
  p2.set_phase(PodPhase::kRunning);

  HealthProber prober(loop, sim::seconds(1));
  prober.add_target(&p1);
  prober.add_target(&p2);
  prober.start(sim::seconds(1));
  loop.run_until(sim::seconds(10));
  prober.stop();
  EXPECT_EQ(prober.probes_sent(), 20u);
  EXPECT_EQ(p1.health_probes_received(), 10u);
  EXPECT_TRUE(prober.last_healthy(&p1));
}

TEST(HealthProber, DetectsUnhealthyTargets) {
  sim::EventLoop loop;
  Cluster cluster = make_cluster(loop);
  Service& service = cluster.add_service("s");
  Pod& pod = cluster.add_pod(service, AppProfile{});
  pod.set_phase(PodPhase::kRunning);
  HealthProber prober(loop, sim::seconds(1));
  prober.add_target(&pod);
  prober.start(sim::seconds(1));
  loop.run_until(sim::seconds(2));
  EXPECT_TRUE(prober.last_healthy(&pod));
  pod.set_phase(PodPhase::kTerminated);
  loop.run_until(sim::seconds(4));
  EXPECT_FALSE(prober.last_healthy(&pod));
}

// Property sweep: controller full-push volume grows quadratically with
// pods under the per-pod-sidecar model (the §2.1 O(N^2) observation).
class FullPushSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FullPushSweep, BytesGrowQuadratically) {
  const std::size_t pods = GetParam();
  // Full config is O(pods) per sidecar; pushing to all pods is O(pods^2).
  const std::size_t per_sidecar = 100 * pods;
  const std::size_t total = per_sidecar * pods;
  EXPECT_EQ(total, 100 * pods * pods);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FullPushSweep,
                         ::testing::Values(10, 100, 1000));

}  // namespace
}  // namespace canal::k8s
