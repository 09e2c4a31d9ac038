// Fig 4:  controller CPU usage (config build vs push) and pod update time
//         as the cluster grows — building full configs is CPU-bound and
//         scales with cluster size; pushing is I/O-bound.
// Fig 14: configuration completion time when creating pods: Canal only
//         configures the centralized gateway (paper: 1.5x-2.1x faster than
//         Istio, 1.2x-1.5x than Ambient).
// Fig 15: southbound bandwidth occupation during a routing-policy update
//         (paper: Istio 9.8x, Ambient 4.6x Canal's bytes).
#include <cstdio>

#include "bench/harness.h"
#include "k8s/propagation.h"

namespace canal::bench {
namespace {

void fig4() {
  Table table("Fig 4: controller CPU and update completion vs cluster size");
  table.header({"pods", "build cpu", "push time", "total", "bytes pushed"});
  // Canonical control-plane sizing, except the figure's 10 Gbps LAN
  // southbound (the cluster-local xDS path, not the 250 Mbps VPN).
  k8s::ControlPlaneProfile profile;
  profile.southbound_bandwidth_bps = 10'000'000'000;
  for (const std::size_t pods : {1000u, 2000u, 4000u, 8000u}) {
    // Full per-sidecar config grows with cluster size: O(pods) rules.
    const std::size_t per_sidecar = 200 * pods;
    std::vector<k8s::ConfigTarget> targets(
        pods, k8s::ConfigTarget{"sidecar", per_sidecar});
    const k8s::PushReport report =
        k8s::measure_push(profile, std::move(targets)).report;
    table.row({fmt("%.0f", static_cast<double>(pods)),
               sim::format_duration(report.build_time),
               sim::format_duration(report.total_time - report.build_time),
               sim::format_duration(report.total_time),
               fmt("%.0f MB", static_cast<double>(report.bytes_pushed) / 1e6)});
  }
  table.print();
  std::printf(
      "  -> build CPU grows ~quadratically (pods x per-sidecar O(pods) "
      "config); push is I/O-bound\n");
}

/// xDS push model (bounded-concurrency streams, per-target apply RTT,
/// southbound transfer + build CPU) at the canonical sizing.
sim::Duration push_completion(std::vector<k8s::ConfigTarget> targets) {
  return k8s::measure_push(k8s::ControlPlaneProfile{}, std::move(targets))
      .completion;
}

void fig14() {
  Table table("Fig 14: P90 config completion time creating pods");
  table.header({"new pods", "istio", "ambient", "canal", "istio/canal",
                "ambient/canal"});
  // Pod start itself (image pull, netns) is common to all meshes.
  const sim::Duration kPodStart = sim::seconds(2);
  for (const std::size_t new_pods : {50u, 100u, 200u}) {
    auto make_bed = [] {
      core::TopologySpec options;
      options.nodes = 20;
      options.pods_per_service.assign(10, 40);
      return std::make_unique<core::Topology>(options);
    };
    auto create_pods = [&](core::Topology& bed) {
      std::vector<k8s::Pod*> fresh;
      for (std::size_t i = 0; i < new_pods; ++i) {
        fresh.push_back(
            &bed.cluster.add_pod(*bed.services[i % bed.services.size()],
                                 k8s::AppProfile{}));
      }
      return fresh;
    };

    auto istio_bed = make_bed();
    istio_bed->build_istio();
    const auto istio_time =
        kPodStart +
        push_completion(istio_bed->istio->pod_create_targets(
            create_pods(*istio_bed)));

    auto ambient_bed = make_bed();
    ambient_bed->build_ambient();
    const auto ambient_time =
        kPodStart +
        push_completion(ambient_bed->ambient->pod_create_targets(
            create_pods(*ambient_bed)));

    auto canal_bed = make_bed();
    canal_bed->build_canal();
    const auto canal_time =
        kPodStart +
        push_completion(canal_bed->canal->pod_create_targets(
            create_pods(*canal_bed)));

    table.row({fmt("%.0f", static_cast<double>(new_pods)),
               sim::format_duration(istio_time),
               sim::format_duration(ambient_time),
               sim::format_duration(canal_time),
               fmt_x(sim::to_seconds(istio_time) / sim::to_seconds(canal_time)),
               fmt_x(sim::to_seconds(ambient_time) /
                     sim::to_seconds(canal_time))});
  }
  table.print();
  std::printf("  paper: istio 1.5x-2.1x, ambient 1.2x-1.5x slower than canal\n");
}

void fig15() {
  // Production shape (§2.2): pods:services ~ 2:1, pods:nodes ~ 15:1;
  // the gateway runs a handful of shared backends.
  core::TopologySpec options;
  options.nodes = 4;
  options.pods_per_service.assign(30, 2);
  options.gateway_backends = 6;
  core::Topology bed(options);
  bed.build_istio();
  bed.build_ambient();
  bed.build_canal();

  auto total_bytes = [](const std::vector<k8s::ConfigTarget>& targets) {
    std::uint64_t total = 0;
    for (const auto& target : targets) total += target.config_bytes;
    return total;
  };
  const double istio = static_cast<double>(
      total_bytes(bed.istio->routing_update_targets()));
  const double ambient = static_cast<double>(
      total_bytes(bed.ambient->routing_update_targets()));
  const double canal = static_cast<double>(
      total_bytes(bed.canal->routing_update_targets()));

  Table table("Fig 15: southbound bytes for a routing-policy update");
  table.header({"dataplane", "targets", "bytes", "vs canal", "paper"});
  table.row({"istio", fmt("%.0f", static_cast<double>(
                                      bed.istio->proxy_count())),
             fmt("%.1f MB", istio / 1e6), fmt_x(istio / canal), "~9.8x"});
  table.row({"ambient", fmt("%.0f", static_cast<double>(
                                        bed.ambient->proxy_count())),
             fmt("%.1f MB", ambient / 1e6), fmt_x(ambient / canal), "~4.6x"});
  table.row({"canal", fmt("%.0f", static_cast<double>(
                                      bed.canal->routing_update_targets()
                                          .size())),
             fmt("%.1f MB", canal / 1e6), "1.0x", "baseline"});
  table.print();
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::fig4();
  canal::bench::fig14();
  canal::bench::fig15();
  return 0;
}
