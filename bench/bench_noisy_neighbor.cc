// Fig 16: noisy-neighbor isolation in a multi-tenant backend. A traffic
// surge on one service pushes the backend past the safety threshold; the
// backend-level alert fires, precise scaling (Reuse) extends the noisy
// service to a cold backend, and utilization drops back — while the other
// services' RPS and latency never degrade and HTTP error codes stay at 0.
#include <cstdio>

#include "bench/harness.h"
#include "canal/scaling.h"

namespace canal::bench {
namespace {

void fig16() {
  core::TopologySpec options;
  options.pods_per_service.assign(4, 10);
  options.gateway_backends = 6;
  options.app_service_time = sim::microseconds(100);
  core::Topology bed(options);
  bed.build_canal();
  for (auto* backend : bed.gateway->all_backends()) {
    backend->start_sampling(sim::seconds(1));
  }

  // The noisy service and two victim services share a backend.
  const net::ServiceId noisy = bed.services[0]->id;
  const net::ServiceId victim1 = bed.services[1]->id;
  const net::ServiceId victim2 = bed.services[2]->id;
  core::GatewayBackend* shared =
      bed.gateway->placement_of(noisy).front();
  bed.gateway->extend_service(victim1, *shared);
  bed.gateway->extend_service(victim2, *shared);

  core::ScalerConfig scaler_config;
  scaler_config.alert_threshold = 0.7;
  scaler_config.reuse_delay_mean = sim::seconds(20);
  scaler_config.check_period = sim::seconds(5);
  core::PreciseScaler scaler(bed.loop, *bed.gateway, scaler_config,
                             sim::Rng(23));
  scaler.start();

  // Probe latency for a victim service with real requests (they queue on
  // the same replica cores as the injected load).
  sim::TimeSeries victim_latency_ms;
  sim::PeriodicTimer prober(bed.loop, sim::milliseconds(500), [&] {
    mesh::RequestOptions opts = request(bed, false);
    opts.dst_service = victim1;
    bed.canal->send_request(opts, [&](mesh::RequestResult r) {
      victim_latency_ms.record(bed.loop.now(),
                               sim::to_milliseconds(r.latency));
    });
  });
  prober.start();

  std::uint64_t errors = 0;
  sim::PeriodicTimer error_prober(bed.loop, sim::milliseconds(500), [&] {
    mesh::RequestOptions opts = request(bed, false);
    opts.dst_service = victim2;
    bed.canal->send_request(opts, [&](mesh::RequestResult r) {
      if (!r.ok()) ++errors;
    });
  });
  error_prober.start();

  // Timeline: baseline 0-50s, surge begins at 50s.
  Table table("Fig 16: noisy-neighbor isolation timeline");
  table.header({"t", "noisy rps", "victim rps", "backend cpu",
                "victim latency (p~mean)", "event"});
  sim::PeriodicTimer load(bed.loop, sim::seconds(1), [&] {
    const double t = sim::to_seconds(bed.loop.now());
    const double noisy_rps = t < 50 ? 4000.0 : 46000.0;  // the surge
    for (auto* backend : bed.gateway->placement_of(noisy)) {
      backend->inject_load(noisy, noisy_rps /
                                      static_cast<double>(
                                          bed.gateway->placement_of(noisy)
                                              .size()),
                           sim::seconds(1));
    }
    shared->inject_load(victim1, 1500.0, sim::seconds(1));
    shared->inject_load(victim2, 1000.0, sim::seconds(1));
  });
  load.start();

  std::string last_event = "baseline";
  scaler.set_on_event([&](const core::ScalingEvent& event) {
    last_event = std::string(event.kind == core::ScaleKind::kReuse
                                 ? "Reuse finished -> backend "
                                 : "New finished -> backend ") +
                 std::to_string(net::id_value(event.target_backend));
  });

  for (int t = 10; t <= 220; t += 10) {
    bed.loop.run_until(static_cast<sim::Duration>(t) * sim::kSecond);
    const auto now = bed.loop.now();
    std::string event = t == 50 ? "SURGE begins" : last_event;
    if (t > 50 && last_event == "baseline") event = "alert pending";
    table.row(
        {fmt("%.0fs", static_cast<double>(t)),
         fmt("%.0f", shared->stats_for(noisy).rps(now)),
         fmt("%.0f", shared->stats_for(victim1).rps(now)),
         fmt_pct(shared->cpu_utilization(sim::seconds(5))),
         fmt_ms(victim_latency_ms.mean_in(now - sim::seconds(10), now)),
         event});
    last_event = "";
  }
  load.stop();
  prober.stop();
  error_prober.stop();
  scaler.stop();
  for (auto* backend : bed.gateway->all_backends()) {
    backend->stop_sampling();  // otherwise the sampler reschedules forever
  }
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));
  table.print();

  std::printf("  victim HTTP errors during the whole incident: %llu\n",
              static_cast<unsigned long long>(errors));
  std::printf("  scaling events: %zu (first: %s)\n", scaler.events().size(),
              scaler.events().empty()
                  ? "none"
                  : (scaler.events().front().kind == core::ScaleKind::kReuse
                         ? "Reuse"
                         : "New"));
  if (!scaler.events().empty()) {
    const auto& event = scaler.events().front();
    std::printf("  alert->finish: %s (paper: dozens of seconds, CPU 80%% -> 30%%)\n",
                sim::format_duration(event.finish_time - event.alert_time)
                    .c_str());
  }
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::fig16();
  return 0;
}
