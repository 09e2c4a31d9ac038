// Ablation A7: full vs incremental configuration push.
//
// §2.1 observes that Istio "currently lacks good support" for incremental
// updates, so every change ships the full O(N) configuration to all N
// sidecars — O(N^2) southbound bytes. This ablation quantifies what an
// incremental (delta) push would save for each architecture, and shows why
// Canal's consolidation attacks the N in "to all N proxies" instead.
#include <cstdio>

#include "bench/harness.h"

namespace canal::bench {
namespace {

void ablation_incremental_push() {
  Table table("Ablation A7: full vs incremental push, one route change");
  table.header({"architecture", "targets", "full push", "incremental push",
                "delta saving"});

  for (const std::size_t pods : {100u, 400u, 1600u}) {
    core::TopologySpec options;
    options.nodes = std::max<std::size_t>(2, pods / 15);
    const std::size_t services = std::max<std::size_t>(2, pods / 50);
    options.pods_per_service.assign(services, pods / services);
    core::Topology bed(options);
    bed.build_istio();
    bed.build_canal();

    // One service's routing rule changed. Full push: every target gets its
    // complete config. Incremental: every target gets only the changed
    // service's rules (~the per-service config).
    const std::size_t full = mesh::full_config_bytes(bed.cluster);
    const std::size_t delta =
        mesh::service_config_bytes(*bed.cluster.services().front());

    const double istio_full =
        static_cast<double>(full) * static_cast<double>(pods);
    const double istio_incremental =
        static_cast<double>(delta) * static_cast<double>(pods);
    table.row({"istio @" + std::to_string(pods) + " pods",
               fmt("%.0f", static_cast<double>(pods)),
               fmt("%.2f MB", istio_full / 1e6),
               fmt("%.2f MB", istio_incremental / 1e6),
               fmt_x(istio_full / istio_incremental)});

    const auto canal_targets = bed.canal->routing_update_targets();
    double canal_full = 0;
    for (const auto& target : canal_targets) {
      canal_full += static_cast<double>(target.config_bytes);
    }
    const double canal_incremental =
        static_cast<double>(delta) * static_cast<double>(canal_targets.size());
    table.row({"canal @" + std::to_string(pods) + " pods",
               fmt("%.0f", static_cast<double>(canal_targets.size())),
               fmt("%.2f MB", canal_full / 1e6),
               fmt("%.2f MB", canal_incremental / 1e6),
               fmt_x(canal_full / std::max(1.0, canal_incremental))});
  }
  table.print();
  std::printf(
      "  incremental pushes shrink bytes-per-target; consolidation shrinks "
      "the target count itself — they compose\n");
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::ablation_incremental_push();
  return 0;
}
