// Fig 5:  CPU usage of Istio and Ambient under growing workloads
//         (motivation: Ambient's sharing helps but proxies still burn
//          user-cluster CPU).
// Fig 13: CPU core usage of Istio / Ambient / Canal under the same
//         workloads. Paper: Canal consumes 12x–19x less user CPU than
//         Istio and 4.6x–7.2x less than Ambient; Canal(total) adds the
//         cloud-side gateway.
#include <cstdio>

#include "bench/harness.h"

namespace canal::bench {
namespace {

void fig5_fig13() {
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 64;
  core::Topology bed(options);
  bed.build_istio();
  bed.build_ambient();
  bed.build_canal();

  Table fig13("Fig 5/13: mesh CPU cores used vs workload");
  fig13.header({"rps", "istio", "ambient", "canal (proxy)", "canal (total)",
                "istio/canal", "ambient/canal"});

  double min_istio_ratio = 1e9, max_istio_ratio = 0;
  double min_ambient_ratio = 1e9, max_ambient_ratio = 0;
  for (const double rps : {100.0, 200.0, 300.0, 400.0}) {
    const auto istio =
        drive_open_loop(bed, *bed.istio, rps, sim::seconds(3), false);
    const auto ambient =
        drive_open_loop(bed, *bed.ambient, rps, sim::seconds(3), false);
    const auto canal =
        drive_open_loop(bed, *bed.canal, rps, sim::seconds(3), false);
    const double istio_ratio = istio.user_cores() / canal.user_cores();
    const double ambient_ratio = ambient.user_cores() / canal.user_cores();
    min_istio_ratio = std::min(min_istio_ratio, istio_ratio);
    max_istio_ratio = std::max(max_istio_ratio, istio_ratio);
    min_ambient_ratio = std::min(min_ambient_ratio, ambient_ratio);
    max_ambient_ratio = std::max(max_ambient_ratio, ambient_ratio);
    fig13.row({fmt("%.0f", rps), fmt("%.2f cores", istio.user_cores()),
               fmt("%.2f cores", ambient.user_cores()),
               fmt("%.2f cores", canal.user_cores()),
               fmt("%.2f cores", canal.total_cores()), fmt_x(istio_ratio),
               fmt_x(ambient_ratio)});
  }
  fig13.print();
  std::printf(
      "  user-CPU saving: istio/canal %.1fx-%.1fx (paper 12x-19x), "
      "ambient/canal %.1fx-%.1fx (paper 4.6x-7.2x)\n",
      min_istio_ratio, max_istio_ratio, min_ambient_ratio, max_ambient_ratio);
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::fig5_fig13();
  return 0;
}
