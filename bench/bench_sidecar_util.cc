// Fig 2: sidecar CPU utilization vs end-to-end latency. The paper's
// production finding: latency doubles once sidecar CPU passes ~45% and
// spikes 100x-1000x beyond ~75% — the reason sidecar resources must be
// over-provisioned.
#include <cstdio>

#include "bench/harness.h"

namespace canal::bench {
namespace {

void fig2() {
  Table table("Fig 2: sidecar CPU utilization vs end-to-end latency");
  table.header({"target util", "measured util", "mean latency", "p99",
                "vs idle latency"});

  double idle_latency = 0.0;
  for (const double target_util : {0.1, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95}) {
    core::TopologySpec options;
    options.app_service_time = sim::microseconds(100);
    options.node_cores = 64;
    core::Topology bed(options);
    mesh::IstioMesh::Config config;
    config.sidecar_cores_per_node = 2;
    bed.istio = std::make_unique<mesh::IstioMesh>(bed.loop, bed.cluster,
                                                  config, sim::Rng(21));
    bed.istio->install();

    // Sidecar CPU per request ~2.9 ms across 4 cores => utilization u at
    // rps = u * 4 / 2.9ms.
    const double rps = target_util * 4.0 / 2.9e-3;
    const auto result =
        drive_open_loop(bed, *bed.istio, rps, sim::seconds(3), false);
    const double util = result.user_cores() / 4.0;
    if (idle_latency == 0.0) idle_latency = result.latency_us.mean();
    table.row({fmt_pct(target_util), fmt_pct(util),
               fmt_us(result.latency_us.mean()),
               fmt_us(result.latency_us.percentile(99)),
               fmt_x(result.latency_us.mean() / idle_latency)});
  }
  table.print();
  std::printf(
      "  paper: ~2x latency past 45%% utilization; 100x-1000x spikes past "
      "75%%\n");
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::fig2();
  return 0;
}
