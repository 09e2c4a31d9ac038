// The bench suite's headline scenarios: every table the retired serial
// binaries (bench_latency, bench_throughput, bench_faults, bench_selfperf)
// used to produce, plus the fairness, resilience, selfperf, region and
// control-plane families, as self-contained runner scenarios (the paper's
// remaining figures live in figures.h; bench_suite.cc's family table
// registers both).
//
// Each scenario function receives one runner::RunSpec and builds everything
// it touches — core::Topology (own sim::EventLoop), meshes, fault plans,
// metrics registry — from that spec alone. Nothing is shared with sibling
// runs, so the suite front-end (bench_suite.cc) can execute any subset on
// any number of worker threads and reduce to byte-identical output.
//
// Seeding convention: `spec.seed` feeds core::TopologySpec::seed, and every
// plane draws from it through the seed table in canal/topology.h, so seed
// sweeps perturb all stochastic inputs coherently. Seed 1 reproduces the
// committed BENCH_*.json base sections.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/json_report.h"
#include "bench/region.h"
#include "canal/fault_injector.h"
#include "canal/proxyless.h"
#include "crypto/accelerator.h"
#include "crypto/cert.h"
#include "crypto/rotation.h"
#include "k8s/propagation.h"
#include "runner/run.h"
#include "runner/runner.h"
#include "runner/shard_exec.h"
// Referencing sim::alloc_count() swaps in the counting operator new for
// the whole suite binary (see alloc_hook.h) — how selfperf's `allocs`
// golden observes the heap.
#include "sim/alloc_hook.h"
#include "sim/fault.h"
#include "telemetry/fairness.h"
#include "telemetry/rca.h"
#include "telemetry/sampler.h"
#include "telemetry/trace_export.h"

namespace canal::bench {
namespace scenarios {

// ---------------------------------------------------------------------------
// latency_light — Fig 10: light workload (1 conn, 1 RPS x 100), per
// dataplane. Metrics are the request percentiles plus the per-component
// span decomposition (every request is traced; tracing is observational
// and does not change simulated timings).

inline runner::RunResult latency_light(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);  // echo-style app
  options.seed = spec.seed;
  core::Topology bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "no-mesh") {
    mesh = &bed.build_nomesh();
  } else if (spec.variant == "canal") {
    mesh = &bed.build_canal();
  } else if (spec.variant == "ambient") {
    mesh = &bed.build_ambient();
  } else if (spec.variant == "istio") {
    mesh = &bed.build_istio();
  } else {
    throw std::runtime_error("latency_light: unknown variant " +
                             spec.variant);
  }

  telemetry::MetricsRegistry registry;
  const telemetry::MetricsRegistry::Labels labels = {
      {"dataplane", spec.variant}};
  telemetry::TraceRecorder recorder(registry, labels);
  const auto count = static_cast<int>(spec.override_or("requests", 100));
  const sim::TimePoint start = bed.loop.now();
  for (int i = 0; i < count; ++i) {
    bed.loop.post_at(start + i * sim::kSecond, [&] {
      mesh::RequestOptions opts = request(bed, /*new_connection=*/false);
      opts.trace = true;
      mesh->send_request(opts, [&](mesh::RequestResult r) {
        if (r.trace) recorder.record(*r.trace);
      });
    });
  }
  bed.loop.run();

  runner::RunResult result;
  result.metrics = latency_decomposition_metrics(registry, labels);
  return result;
}

// ---------------------------------------------------------------------------
// latency_bimodal — Fig 24: E2E latency distribution in a production-like
// cluster (bimodal app think time) through the Canal path; shows the
// gateway hairpin and 0.7 ms key server are negligible vs 40-200 ms apps.

inline runner::RunResult latency_bimodal(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.app_service_time = sim::milliseconds(45);
  options.seed = spec.seed;
  core::Topology bed(options);
  bed.build_canal();

  sim::Histogram latency_ms;
  std::uint64_t ok = 0;
  k8s::AppProfile bimodal;  // defaults: 45 ms / 140 ms mixture
  k8s::Service& service = bed.cluster.add_service("production-app");
  for (int i = 0; i < 10; ++i) {
    bed.cluster.add_pod(service, bimodal).set_phase(k8s::PodPhase::kRunning);
  }
  bed.canal->install();

  const sim::TimePoint start = bed.loop.now();
  for (int i = 0; i < 2000; ++i) {
    bed.loop.post_at(start + i * sim::milliseconds(5), [&] {
      mesh::RequestOptions opts = request(bed, true);
      opts.dst_service = service.id;
      bed.canal->send_request(opts, [&](mesh::RequestResult r) {
        if (r.ok()) ++ok;
        latency_ms.record(sim::to_milliseconds(r.latency));
      });
    });
  }
  bed.loop.run();

  runner::RunResult result;
  result.set("requests", static_cast<double>(latency_ms.count()));
  result.set("ok", static_cast<double>(ok));
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    result.set("p" + JsonReport::format_number(p) + "_ms",
               latency_ms.percentile(p));
  }
  return result;
}

// ---------------------------------------------------------------------------
// throughput_knee — Fig 11: P99 latency under increasing offered load; the
// knee (highest RPS whose P99 stays within 5x unloaded) is the paper's
// headline throughput. Core budget mirrors Fig 13: Istio 2-core sidecar
// pools, Ambient 1-core ztunnels + 4-core waypoint, Canal 1-core on-node
// proxies + one 2-core gateway replica.

struct SweepPoint {
  double rps;
  double p99_us;
  double error_rate;
};

inline runner::RunResult throughput_knee(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 64;  // apps must not be the bottleneck
  options.seed = spec.seed;
  options.gateway_backends = 1;
  core::Topology bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "istio") {
    mesh::IstioMesh::Config config;
    config.sidecar_cores_per_node = 2;
    mesh = &bed.build_istio(config);
  } else if (spec.variant == "ambient") {
    mesh::AmbientMesh::Config config;
    config.ztunnel_cores = 1;
    config.waypoint_cores = 4;
    mesh = &bed.build_ambient(config);
  } else if (spec.variant == "canal") {
    core::GatewayConfig gateway_config;
    gateway_config.replicas_per_backend = 1;
    gateway_config.replica_cores = 2;
    gateway_config.backends_per_service_local = 1;
    core::CanalMesh::Config canal_config;
    canal_config.onnode.cores = 1;
    mesh = &bed.build_canal(canal_config, gateway_config);
  } else {
    throw std::runtime_error("throughput_knee: unknown variant " +
                             spec.variant);
  }

  telemetry::MetricsRegistry registry;
  const telemetry::MetricsRegistry::Labels labels = {
      {"dataplane", spec.variant}};
  std::vector<SweepPoint> points;
  std::string sweep_note;
  for (double rps = 200.0; rps <= 40'000.0; rps *= 1.3) {
    LoadResult load = drive_open_loop(bed, *mesh, rps, sim::seconds(2),
                                      false, &registry, labels);
    const SweepPoint point{rps, load.latency_us.percentile(99),
                           load.error_rate()};
    points.push_back(point);
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%s%.0f:%.0fus",
                  sweep_note.empty() ? "" : "  ", rps, point.p99_us);
    sweep_note += cell;
    // Far past saturation: stop the sweep.
    if (point.p99_us > 50'000 || point.error_rate > 0.2) break;
  }

  // Knee: highest swept RPS whose P99 stays under 5x the unloaded P99.
  const double bound = points.front().p99_us * 5.0;
  double knee = points.front().rps;
  for (const auto& point : points) {
    if (point.p99_us <= bound && point.error_rate < 0.01) knee = point.rps;
  }

  runner::RunResult result;
  result.set("knee_rps", knee);
  result.set("sweep_points", static_cast<double>(points.size()));
  for (auto& metric : latency_decomposition_metrics(registry, labels)) {
    result.metrics.push_back(std::move(metric));
  }
  result.note("sweep", sweep_note);
  return result;
}

// ---------------------------------------------------------------------------
// faults_* — robustness under injected faults (pod-kill, gateway replica
// crash, link loss), with the client retry layer on or off. Per-phase
// success rate and p99, bucketed by request *send* time.

namespace detail {

constexpr sim::TimePoint kFaultStart = 2 * sim::kSecond;
constexpr sim::TimePoint kFaultEnd = 5 * sim::kSecond;
constexpr sim::Duration kFaultRunLength = 8 * sim::kSecond;
constexpr double kFaultRps = 400.0;

struct Window {
  std::uint64_t issued = 0;
  std::uint64_t done = 0;
  std::uint64_t ok = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timeouts = 0;
  sim::Histogram ok_latency_us;

  [[nodiscard]] double success() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(ok) /
                             static_cast<double>(issued);
  }
  [[nodiscard]] double p99_us() const {
    return ok == 0 ? 0.0 : ok_latency_us.percentile(99.0);
  }
};

struct FaultRun {
  Window before;
  Window during;
  Window after;

  Window& at(sim::TimePoint send_time) {
    if (send_time < kFaultStart) return before;
    if (send_time < kFaultEnd) return during;
    return after;
  }
  [[nodiscard]] std::uint64_t unanswered() const {
    return (before.issued + during.issued + after.issued) -
           (before.done + during.done + after.done);
  }
};

inline mesh::RetryPolicy fault_retry_policy(bool retries) {
  mesh::RetryPolicy policy;
  // Both settings get the same per-try timeout so dropped requests resolve
  // as 504 either way; only the attempt count differs.
  policy.max_attempts = retries ? 3 : 1;
  policy.per_try_timeout = sim::milliseconds(25);
  policy.base_backoff = sim::milliseconds(1);
  policy.max_backoff = sim::milliseconds(8);
  policy.jitter = 0.5;
  return policy;
}

/// Open-loop driver over the retry layer, splitting results into the
/// before/during/after windows of the fault timeline.
inline FaultRun drive_with_faults(core::Topology& bed,
                                  mesh::MeshDataplane& mesh,
                                  const mesh::RetryPolicy& policy,
                                  bool new_connections, std::uint64_t seed,
                                  mesh::RetryBudget* budget = nullptr) {
  FaultRun result;
  sim::Rng retry_rng(0xfa017 + seed);
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / kFaultRps);
  const auto count = static_cast<std::uint64_t>(
      sim::to_seconds(kFaultRunLength) * kFaultRps);
  for (std::uint64_t i = 0; i < count; ++i) {
    const sim::TimePoint send_time =
        bed.loop.now() + static_cast<sim::Duration>(i) * spacing;
    bed.loop.post_at(
        send_time, [&bed, &mesh, &result, &policy, &retry_rng, budget,
                    send_time, new_connections] {
          mesh::RequestOptions opts = request(bed, new_connections);
          Window& window = result.at(send_time);
          ++window.issued;
          mesh.send_request_with_retries(
              opts, policy, retry_rng,
              [&window](mesh::RequestResult r) {
                ++window.done;
                window.attempts += r.attempts;
                if (r.timed_out) ++window.timeouts;
                if (r.ok()) {
                  ++window.ok;
                  window.ok_latency_us.record(
                      sim::to_microseconds(r.latency));
                }
              },
              budget);
        });
  }
  // Health monitors keep periodic probes pending forever, so run for a
  // fixed horizon (with drain slack for in-flight retries) instead of
  // draining the loop.
  bed.loop.run_for(kFaultRunLength + sim::milliseconds(500));
  return result;
}

inline void fault_metrics(runner::RunResult& out, const FaultRun& run) {
  out.set("ok_pre", run.before.success());
  out.set("ok_fault", run.during.success());
  out.set("ok_post", run.after.success());
  out.set("p99_pre_us", run.before.p99_us());
  out.set("p99_fault_us", run.during.p99_us());
  out.set("p99_post_us", run.after.p99_us());
  out.set("tries_per_req_fault",
          run.during.done == 0
              ? 0.0
              : static_cast<double>(run.during.attempts) /
                    static_cast<double>(run.during.done));
  out.set("timeouts", static_cast<double>(run.before.timeouts +
                                          run.during.timeouts +
                                          run.after.timeouts));
  out.set("unanswered", static_cast<double>(run.unanswered()));
}

}  // namespace detail

/// Fault 1: 2/10 target pods crash at 2s, restart at 5s; the proxied
/// planes hold stale endpoint tables and need retries to mask the holes.
inline runner::RunResult faults_podkill(const runner::RunSpec& spec) {
  const bool retries = spec.override_or("retries", 0) != 0;
  core::TopologySpec options;
  options.seed = spec.seed;
  core::Topology bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant.rfind("nomesh", 0) == 0) {
    mesh = &bed.build_nomesh();
  } else if (spec.variant.rfind("istio", 0) == 0) {
    mesh = &bed.build_istio();
  } else if (spec.variant.rfind("ambient", 0) == 0) {
    mesh = &bed.build_ambient();
  } else if (spec.variant.rfind("canal", 0) == 0) {
    mesh = &bed.build_canal();
  } else {
    throw std::runtime_error("faults_podkill: unknown variant " +
                             spec.variant);
  }

  // Victims spread apart in round-robin order so adjacent-pick retries
  // land on live pods.
  sim::FaultPlan plan;
  const auto& pods = bed.services.back()->endpoints;
  for (std::size_t index : {std::size_t{2}, std::size_t{7}}) {
    plan.kill_pod_for(detail::kFaultStart,
                      static_cast<std::uint64_t>(pods[index]->id()),
                      detail::kFaultEnd - detail::kFaultStart);
  }
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);
  mesh::RetryBudget budget(0.5, 10);
  const detail::FaultRun run = detail::drive_with_faults(
      bed, *mesh, detail::fault_retry_policy(retries),
      /*new_connections=*/false, spec.seed, &budget);

  runner::RunResult result;
  detail::fault_metrics(result, run);
  return result;
}

/// Fault 2: a Canal gateway replica crashes at 2s and revives at 5s; the
/// GatewayHealthMonitor (when on) evicts it after 3 failed probes, closing
/// the 503 window to ~300 ms of detection.
inline runner::RunResult faults_gwcrash(const runner::RunSpec& spec) {
  const bool retries = spec.override_or("retries", 0) != 0;
  const bool with_monitor = spec.override_or("monitor", 0) != 0;
  core::TopologySpec options;
  options.seed = spec.seed;
  core::Topology bed(options);
  bed.build_canal();

  sim::FaultPlan plan;
  const auto backend =
      static_cast<std::uint32_t>(bed.gateway->all_backends().front()->id());
  plan.crash_gateway_replica(detail::kFaultStart, backend,
                             /*replica_index=*/0);
  plan.recover_gateway_replica(detail::kFaultEnd, backend,
                               /*replica_index=*/0);
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);
  core::GatewayHealthMonitor monitor(bed.loop, *bed.gateway);
  if (with_monitor) monitor.start();
  // New connection per request so flows hash across all replicas and a
  // single dead replica shows up as a partial dip, not all-or-nothing.
  const detail::FaultRun run = detail::drive_with_faults(
      bed, *bed.canal, detail::fault_retry_policy(retries),
      /*new_connections=*/true, spec.seed);

  runner::RunResult result;
  detail::fault_metrics(result, run);
  result.set("evictions", static_cast<double>(monitor.evictions()));
  result.set("readmissions", static_cast<double>(monitor.readmissions()));
  return result;
}

/// Fault 3: 20% link loss + 2ms latency spike from 2s to 5s (nomesh);
/// dropped requests never complete on their own, so only the per-try
/// timeout (25 ms -> 504) recovers them, and retries then re-send.
inline runner::RunResult faults_linkloss(const runner::RunSpec& spec) {
  const bool retries = spec.override_or("retries", 0) != 0;
  core::TopologySpec options;
  options.seed = spec.seed;
  core::Topology bed(options);

  sim::FaultPlan plan;
  plan.link_loss(detail::kFaultStart, detail::kFaultEnd, 0.2);
  plan.link_latency_spike(detail::kFaultStart, detail::kFaultEnd,
                          sim::milliseconds(2));
  mesh::NetworkProfile net;
  net.faults = &plan;
  mesh::NoMesh& nomesh = bed.build_nomesh(net);
  mesh::RetryBudget budget(0.5, 10);
  const detail::FaultRun run = detail::drive_with_faults(
      bed, nomesh, detail::fault_retry_policy(retries),
      /*new_connections=*/false, spec.seed, &budget);

  runner::RunResult result;
  detail::fault_metrics(result, run);
  return result;
}

// ---------------------------------------------------------------------------
// noisy_neighbor — tenant-fairness analytics under a one-tenant surge.
// Four tenants share one dataplane and one target service; the last tenant
// offers ~10x the others' load. Per-tenant latency/throughput/error
// metrics come from a TenantRecorderSet, the fairness summary (including
// Jain's index) from FairnessReport::from_registry, and attribution from
// RootCauseAnalyzer::pinpoint_tenants — the surge tenant must come back as
// the top throughput-share suspect. The run also exercises deterministic
// head-based trace sampling: sampled traces land in a TraceExport attached
// to the result (bench_suite --trace-out writes them out).

inline runner::RunResult noisy_neighbor(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  core::Topology bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "canal") {
    mesh = &bed.build_canal();
  } else if (spec.variant == "ambient") {
    mesh = &bed.build_ambient();
  } else if (spec.variant == "istio") {
    mesh = &bed.build_istio();
  } else {
    throw std::runtime_error("noisy_neighbor: unknown variant " +
                             spec.variant);
  }

  auto registry = std::make_shared<telemetry::MetricsRegistry>();
  telemetry::TenantRecorderSet recorders(*registry,
                                         {{"dataplane", spec.variant}});
  telemetry::TraceSampler sampler(spec.override_or("sample_rate", 0.1),
                                  spec.seed);
  auto traces = std::make_shared<telemetry::TraceExport>();

  constexpr int kTenants = 4;
  const double base_rps = spec.override_or("rps", 300.0);
  const double surge = spec.override_or("surge", 10.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 2.0) * sim::kSecond);
  const sim::TimePoint start = bed.loop.now();
  std::uint64_t request_index = 0;  // dispatch-order, so deterministic
  for (int t = 1; t <= kTenants; ++t) {
    const double rps = t == kTenants ? base_rps * surge : base_rps;
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) / rps);
    const auto count =
        static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
    const auto tenant = static_cast<net::TenantId>(t);
    for (std::uint64_t i = 0; i < count; ++i) {
      bed.loop.post_at(
          start + static_cast<sim::Duration>(i) * spacing,
          [&bed, mesh, &recorders, &sampler, traces, tenant,
           &request_index] {
            mesh::RequestOptions opts = request(bed, false);
            opts.tenant = tenant;
            opts.trace = true;
            // Head-based: the sampling decision is made when the request
            // is issued, in event-loop order.
            const bool sampled = sampler.should_sample(tenant);
            const std::uint64_t index = request_index++;
            mesh->send_request(
                opts,
                [&recorders, traces, sampled, index](mesh::RequestResult r) {
                  if (!r.trace) return;
                  recorders.record(*r.trace, r.status);
                  if (sampled) traces->add(*r.trace, index, r.status);
                });
          });
    }
  }
  bed.loop.run();

  const telemetry::FairnessReport fairness =
      telemetry::FairnessReport::from_registry(*registry);
  runner::RunResult result;
  for (const auto& tenant : fairness.tenants) {
    const std::string prefix =
        "t" + std::to_string(net::id_value(tenant.tenant)) + ".";
    result.set(prefix + "requests", static_cast<double>(tenant.requests));
    result.set(prefix + "p50_us", tenant.p50_us);
    result.set(prefix + "p99_us", tenant.p99_us);
    result.set(prefix + "share", tenant.share);
    result.set(prefix + "error_rate", tenant.error_rate);
  }
  result.set("jain", fairness.jain_index);
  const auto suspects =
      telemetry::RootCauseAnalyzer().pinpoint_tenants(fairness);
  result.set("suspects", static_cast<double>(suspects.size()));
  result.set("suspect_tenant",
             suspects.empty() ? 0.0
                              : static_cast<double>(
                                    net::id_value(suspects.front().tenant)));
  result.set("sampled_traces", static_cast<double>(traces->size()));
  // Attach the raw registry and traces so the reducer can fold seed
  // sweeps (merge_group_registries) and --trace-out can export.
  result.registry = registry;
  result.traces = traces;
  return result;
}

// ---------------------------------------------------------------------------
// resilience_retry_storm — a whole service dies and its clients' retry
// layer turns every lost request into 3 timed-out attempts, burning shared
// proxy capacity that an innocent victim tenant needs. With the circuit
// breaker armed the storm service is fast-failed after a handful of
// consecutive errors, the amplification collapses, and the victim's p99
// during the outage stays near its pre-fault value. Variants: breaker-off
// (budget-only baseline) vs breaker-on.

inline runner::RunResult resilience_retry_storm(const runner::RunSpec& spec) {
  const bool breaker_on = spec.override_or("breaker", 0) != 0;
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 4;  // shared capacity the storm can actually exhaust
  options.seed = spec.seed;
  core::Topology bed(options);
  bed.build_canal();

  if (breaker_on) {
    proxy::ResilienceConfig config;
    proxy::BreakerConfig breaker;
    breaker.consecutive_errors = 5;
    breaker.base_ejection_time = sim::milliseconds(500);
    config.breaker = breaker;
    bed.canal->enable_resilience(config);
  }

  // The storm service loses every pod for the whole fault window.
  k8s::Service& storm_service = *bed.services.back();
  k8s::Service& victim_service = *bed.services[1];
  sim::FaultPlan plan;
  for (const k8s::Pod* pod : storm_service.endpoints) {
    plan.kill_pod_for(detail::kFaultStart,
                      static_cast<std::uint64_t>(pod->id()),
                      detail::kFaultEnd - detail::kFaultStart);
  }
  core::FaultInjector injector(bed.loop, bed.cluster, bed.gateway.get());
  injector.arm(plan);

  const mesh::RetryPolicy policy = detail::fault_retry_policy(true);
  mesh::RetryBudget storm_budget(0.5, 10);
  mesh::RetryBudget victim_budget(0.5, 10);
  detail::FaultRun storm_run;
  detail::FaultRun victim_run;
  sim::Rng storm_rng(0xe57 + spec.seed);
  sim::Rng victim_rng(0x71c + spec.seed);

  const sim::TimePoint start = bed.loop.now();
  const auto drive = [&](net::ServiceId dst, net::TenantId tenant, double rps,
                         detail::FaultRun& run, sim::Rng& rng,
                         mesh::RetryBudget& budget) {
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) / rps);
    const auto count = static_cast<std::uint64_t>(
        sim::to_seconds(detail::kFaultRunLength) * rps);
    for (std::uint64_t i = 0; i < count; ++i) {
      const sim::TimePoint send_time =
          start + static_cast<sim::Duration>(i) * spacing;
      bed.loop.post_at(send_time, [&bed, &policy, &run, &rng, &budget,
                                   dst, tenant, send_time] {
        mesh::RequestOptions opts = request(bed, false);
        opts.dst_service = dst;
        opts.tenant = tenant;
        detail::Window& window = run.at(send_time);
        ++window.issued;
        bed.canal->send_request_with_retries(
            opts, policy, rng,
            [&window](mesh::RequestResult r) {
              ++window.done;
              window.attempts += r.attempts;
              if (r.timed_out) ++window.timeouts;
              if (r.ok()) {
                ++window.ok;
                window.ok_latency_us.record(sim::to_microseconds(r.latency));
              }
            },
            &budget);
      });
    }
  };
  drive(victim_service.id, static_cast<net::TenantId>(1),
        spec.override_or("victim_rps", 300.0), victim_run, victim_rng,
        victim_budget);
  drive(storm_service.id, static_cast<net::TenantId>(2),
        spec.override_or("storm_rps", 2000.0), storm_run, storm_rng,
        storm_budget);
  bed.loop.run_for(detail::kFaultRunLength + sim::milliseconds(500));

  runner::RunResult result;
  result.set("victim_p99_pre_us", victim_run.before.p99_us());
  result.set("victim_p99_fault_us", victim_run.during.p99_us());
  result.set("victim_p99_post_us", victim_run.after.p99_us());
  result.set("victim_ok_fault", victim_run.during.success());
  result.set("storm_ok_fault", storm_run.during.success());
  result.set("storm_tries_fault",
             storm_run.during.done == 0
                 ? 0.0
                 : static_cast<double>(storm_run.during.attempts) /
                       static_cast<double>(storm_run.during.done));
  result.set("storm_ok_post", storm_run.after.success());
  if (proxy::ResilienceChain* chain = bed.canal->resilience()) {
    const proxy::CircuitBreaker* breaker = chain->breaker(storm_service.id);
    result.set("breaker_opens",
               breaker == nullptr
                   ? 0.0
                   : static_cast<double>(breaker->opens()));
    result.set("breaker_rejected",
               static_cast<double>(chain->breaker_rejected_total()));
    auto registry = std::make_shared<telemetry::MetricsRegistry>();
    chain->publish_metrics(*registry);
    result.registry = registry;
  } else {
    result.set("breaker_opens", 0.0);
    result.set("breaker_rejected", 0.0);
  }
  return result;
}

// ---------------------------------------------------------------------------
// resilience_qod — "query of death": one pod in the target service answers
// every request with a 5xx. Without outlier ejection it keeps its
// round-robin share of traffic and the error rate sits at roughly
// 1/pods forever; with ejection the outlier detector removes it from
// every LB set after `consecutive_errors` failures and the error rate
// after the detection window drops to ~0 — while max_ejection_percent
// keeps the bound on capacity removal.

inline runner::RunResult resilience_qod(const runner::RunSpec& spec) {
  const bool ejection_on = spec.override_or("ejection", 0) != 0;
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  core::Topology bed(options);

  // The poisoned pod joins the target service before the mesh installs, so
  // every plane's endpoint pools include it.
  k8s::Service& target = *bed.services.back();
  k8s::AppProfile poison;
  poison.fast_fraction = 1.0;
  poison.fast_service_mean = options.app_service_time;
  poison.sigma = 0.05;
  poison.app_error_rate = 1.0;
  bed.cluster.add_pod(target, poison).set_phase(k8s::PodPhase::kRunning);
  bed.build_canal();

  if (ejection_on) {
    proxy::ResilienceConfig config;
    proxy::OutlierConfig outlier;
    outlier.consecutive_errors = 5;
    outlier.base_ejection_time = sim::seconds(5);
    outlier.max_ejection_percent = 50;
    config.outlier = outlier;
    bed.canal->enable_resilience(config);
  }

  mesh::RetryPolicy policy;  // single attempt: errors stay visible
  policy.max_attempts = 1;
  policy.per_try_timeout = sim::milliseconds(250);
  sim::Rng retry_rng(0x90d + spec.seed);
  const double rps = spec.override_or("rps", 1000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 2.0) * sim::kSecond);
  // Detection happens within the first few servings of the poisoned pod;
  // everything after this boundary should be clean with ejection on.
  const sim::Duration detect_window = sim::milliseconds(200);

  struct Phase {
    std::uint64_t done = 0;
    std::uint64_t errors = 0;
  };
  Phase early;
  Phase late;
  const sim::TimePoint start = bed.loop.now();
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / rps);
  const auto count =
      static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
  for (std::uint64_t i = 0; i < count; ++i) {
    const sim::TimePoint send_time =
        start + static_cast<sim::Duration>(i) * spacing;
    bed.loop.post_at(send_time, [&bed, &policy, &retry_rng, &early, &late,
                                 start, send_time, detect_window] {
      mesh::RequestOptions opts = request(bed, false);
      Phase& phase =
          send_time - start < detect_window ? early : late;
      bed.canal->send_request_with_retries(
          opts, policy, retry_rng, [&phase](mesh::RequestResult r) {
            ++phase.done;
            if (r.status >= 500) ++phase.errors;
          });
    });
  }
  bed.loop.run();

  runner::RunResult result;
  const auto rate = [](const Phase& phase) {
    return phase.done == 0 ? 0.0
                           : static_cast<double>(phase.errors) /
                                 static_cast<double>(phase.done);
  };
  result.set("early_error_rate", rate(early));
  result.set("late_error_rate", rate(late));
  result.set("errors_total",
             static_cast<double>(early.errors + late.errors));
  if (proxy::ResilienceChain* chain = bed.canal->resilience()) {
    result.set("ejections", static_cast<double>(chain->ejections_total()));
    result.set("readmissions",
               static_cast<double>(chain->readmissions_total()));
    const proxy::OutlierDetector* outlier = chain->outlier(target.id);
    result.set("ejected_now",
               outlier == nullptr
                   ? 0.0
                   : static_cast<double>(outlier->ejected_count()));
    auto registry = std::make_shared<telemetry::MetricsRegistry>();
    chain->publish_metrics(*registry);
    result.registry = registry;
  } else {
    result.set("ejections", 0.0);
    result.set("readmissions", 0.0);
    result.set("ejected_now", 0.0);
  }
  return result;
}

// ---------------------------------------------------------------------------
// resilience_ratelimit — the noisy-neighbor surge, answered with per-tenant
// token buckets instead of analytics alone. Four tenants share the canal
// dataplane; the surge tenant offers ~10x the others' load. With the
// limiter on, each tenant's bucket admits ~1.5x the base rate, the surge
// spills as deterministic 429s, and the victims' p99 recovers. Extends
// BENCH_fairness's noisy_neighbor with an enforcement stage (golden lives
// in BENCH_resilience.json).

inline runner::RunResult resilience_ratelimit(const runner::RunSpec& spec) {
  const bool limit_on = spec.override_or("limit", 0) != 0;
  core::TopologySpec options;
  options.app_service_time = sim::microseconds(100);
  options.seed = spec.seed;
  core::Topology bed(options);
  bed.build_canal();

  constexpr int kTenants = 4;
  const double base_rps = spec.override_or("rps", 300.0);
  const double surge = spec.override_or("surge", 10.0);
  if (limit_on) {
    proxy::ResilienceConfig config;
    proxy::RateLimitConfig limit;
    limit.tokens_per_second = base_rps * 1.5;
    limit.burst = 50.0;
    config.rate_limit = limit;
    bed.canal->enable_resilience(config);
  }

  auto registry = std::make_shared<telemetry::MetricsRegistry>();
  telemetry::TenantRecorderSet recorders(*registry, {{"dataplane", "canal"}});
  mesh::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.per_try_timeout = sim::milliseconds(250);
  sim::Rng retry_rng(0x11e + spec.seed);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 2.0) * sim::kSecond);
  std::uint64_t rate_limited = 0;
  const sim::TimePoint start = bed.loop.now();
  for (int t = 1; t <= kTenants; ++t) {
    const double rps = t == kTenants ? base_rps * surge : base_rps;
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) / rps);
    const auto count =
        static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
    const auto tenant = static_cast<net::TenantId>(t);
    for (std::uint64_t i = 0; i < count; ++i) {
      bed.loop.post_at(
          start + static_cast<sim::Duration>(i) * spacing,
          [&bed, &recorders, &policy, &retry_rng, &rate_limited, tenant] {
            mesh::RequestOptions opts = request(bed, false);
            opts.tenant = tenant;
            opts.trace = true;
            bed.canal->send_request_with_retries(
                opts, policy, retry_rng,
                [&recorders, &rate_limited](mesh::RequestResult r) {
                  if (r.rate_limited) ++rate_limited;
                  if (r.trace) recorders.record(*r.trace, r.status);
                });
          });
    }
  }
  bed.loop.run();

  const telemetry::FairnessReport fairness =
      telemetry::FairnessReport::from_registry(*registry);
  runner::RunResult result;
  for (const auto& tenant : fairness.tenants) {
    const std::string prefix =
        "t" + std::to_string(net::id_value(tenant.tenant)) + ".";
    result.set(prefix + "requests", static_cast<double>(tenant.requests));
    result.set(prefix + "p99_us", tenant.p99_us);
    result.set(prefix + "error_rate", tenant.error_rate);
  }
  result.set("jain", fairness.jain_index);
  result.set("rate_limited", static_cast<double>(rate_limited));
  if (proxy::ResilienceChain* chain = bed.canal->resilience()) {
    chain->publish_metrics(*registry);
  }
  result.registry = registry;
  return result;
}

// ---------------------------------------------------------------------------
// selfperf — the simulator's own work per request, as opposed to every
// other scenario, which measures the simulated systems: events, fastpath
// hits and heap allocations of a pinned-flow drain. Every counter is
// deterministic and byte-diffed golden material. The simulator's speed is
// measured by perfbench (perfbench/README.md), not here.

namespace detail {

struct SelfPerfCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  std::uint64_t fastpath_hits = 0;
  std::uint64_t fastpath_misses = 0;
  std::uint64_t allocs = 0;
};

using FastpathProbe =
    std::function<std::pair<std::uint64_t, std::uint64_t>()>;

/// Steady-state pinned-flow driver: cycles a small pool of pinned source
/// ports so every flow after the first use of its port is a repeat request
/// on an established connection (the fastpath cache's common case).
inline SelfPerfCounters drive_pinned(core::Topology& bed,
                                     mesh::MeshDataplane& mesh,
                                     double rps, sim::Duration duration,
                                     const FastpathProbe& probe) {
  constexpr std::uint16_t kPortBase = 50'000;
  constexpr std::uint64_t kPortPool = 64;
  SelfPerfCounters result;
  const auto before = probe ? probe() : std::make_pair(std::uint64_t{0},
                                                       std::uint64_t{0});
  const sim::TimePoint sim_start = bed.loop.now();
  const auto spacing =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
  const auto count =
      static_cast<std::uint64_t>(sim::to_seconds(duration) * rps);
  for (std::uint64_t i = 0; i < count; ++i) {
    bed.loop.post_at(
        sim_start + static_cast<sim::Duration>(i) * spacing,
        [&bed, &mesh, &result, i] {
          mesh::RequestOptions opts = request(bed, false);
          opts.src_port =
              static_cast<std::uint16_t>(kPortBase + i % kPortPool);
          opts.new_connection = i < kPortPool;  // first use of each port
          opts.close_after = false;
          mesh.send_request(opts, [&result](mesh::RequestResult r) {
            ++result.requests;
            if (r.ok()) ++result.ok;
          });
        });
  }
  // Allocation discipline of the drain itself: global operator-new calls
  // while the event loop runs the whole workload. A run executes on one
  // thread, so the thread-local counter delta isolates it even under the
  // parallel runner; the count is a pure function of the code path and is
  // golden material.
  const std::uint64_t allocs_before = sim::alloc_count();
  result.events = bed.loop.run();
  result.allocs = sim::alloc_count() - allocs_before;
  result.sim_seconds = sim::to_seconds(bed.loop.now() - sim_start);
  if (probe) {
    const auto after = probe();
    result.fastpath_hits = after.first - before.first;
    result.fastpath_misses = after.second - before.second;
  }
  return result;
}

inline std::pair<std::uint64_t, std::uint64_t> sum_gateway(
    core::MeshGateway& gw) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (auto* backend : gw.all_backends()) {
    hits += backend->fastpath_hits();
    misses += backend->fastpath_misses();
  }
  return {hits, misses};
}

}  // namespace detail

inline runner::RunResult selfperf(const runner::RunSpec& spec) {
  const double rps = spec.override_or("rps", 2000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_s", 10.0) * sim::kSecond);
  const detail::SelfPerfCounters counters = [&] {
    core::TopologySpec options;
    options.seed = spec.seed;
    core::Topology bed(options);
    if (spec.variant == "nomesh") {
      return detail::drive_pinned(bed, bed.build_nomesh(), rps, duration,
                                  nullptr);
    }
    if (spec.variant == "istio") {
      mesh::IstioMesh& istio = bed.build_istio();
      auto* engine = istio.sidecar_engine(client(bed)->id());
      return detail::drive_pinned(bed, istio, rps, duration, [engine] {
        return std::make_pair(engine->fastpath_hits(),
                              engine->fastpath_misses());
      });
    }
    if (spec.variant == "ambient") {
      mesh::AmbientMesh& ambient = bed.build_ambient();
      auto* ztunnel = ambient.ztunnel_engine(client(bed)->node());
      auto* waypoint = ambient.waypoint_engine(target_service(bed));
      return detail::drive_pinned(
          bed, ambient, rps, duration, [ztunnel, waypoint] {
            return std::make_pair(
                ztunnel->fastpath_hits() + waypoint->fastpath_hits(),
                ztunnel->fastpath_misses() + waypoint->fastpath_misses());
          });
    }
    // Canal and proxyless share the gateway substrate; proxyless has no
    // user-side proxies.
    mesh::MeshDataplane* gateway_plane = nullptr;
    if (spec.variant == "canal") gateway_plane = &bed.build_canal();
    if (spec.variant == "proxyless") gateway_plane = &bed.build_proxyless();
    if (gateway_plane != nullptr) {
      auto* gateway = bed.gateway.get();
      return detail::drive_pinned(bed, *gateway_plane, rps, duration,
                                  [gateway] {
                                    return detail::sum_gateway(*gateway);
                                  });
    }
    throw std::runtime_error("selfperf: unknown variant " + spec.variant);
  }();

  const std::uint64_t probes =
      counters.fastpath_hits + counters.fastpath_misses;
  runner::RunResult result;
  result.set("requests", static_cast<double>(counters.requests));
  result.set("ok", static_cast<double>(counters.ok));
  result.set("events", static_cast<double>(counters.events));
  result.set("sim_seconds", counters.sim_seconds);
  result.set("fastpath_hits", static_cast<double>(counters.fastpath_hits));
  result.set("fastpath_misses",
             static_cast<double>(counters.fastpath_misses));
  result.set("fastpath_hit_rate",
             probes == 0 ? 0.0
                         : static_cast<double>(counters.fastpath_hits) /
                               static_cast<double>(probes));
  // Heap discipline of the drain: deterministic (a pure function of the
  // code path, never of addresses or timing), so golden material like the
  // simulated counters above.
  result.set("allocs", static_cast<double>(counters.allocs));
  result.set("allocs_per_request",
             counters.requests == 0
                 ? 0.0
                 : static_cast<double>(counters.allocs) /
                       static_cast<double>(counters.requests));
  return result;
}

// ---------------------------------------------------------------------------
// region_scale — the paper's region-scale operating point (§6): >= 1000 VMs
// and >= 1M RPS aggregate across 8 AZ-sized clusters, each a ShardedSim
// domain running the real canal dataplane, with the Table 3 tenant
// population shaping per-flow tenancy. The `shards` override picks how
// many partitions (worker threads) host the domains; every metric outside
// the "wall." prefix is byte-identical at any value of it — which is
// exactly what check.sh's region determinism gate pins.

inline runner::RunResult region_scale(const runner::RunSpec& spec) {
  if (spec.variant != "canal") {
    throw std::runtime_error("region_scale: unknown variant " +
                             spec.variant);
  }
  RegionOptions options;
  options.seed = spec.seed;
  options.azs =
      static_cast<std::size_t>(spec.override_or("azs", 8));
  options.nodes_per_az = static_cast<std::size_t>(
      spec.override_or("nodes_per_az", 140));
  options.generators_per_az = static_cast<std::size_t>(
      spec.override_or("generators_per_az", 64));
  options.aggregate_rps = spec.override_or("rps", 1'000'000.0);
  options.duration = static_cast<sim::Duration>(
      spec.override_or("duration_ms", 300.0) * 1e6);
  options.tenants =
      static_cast<std::size_t>(spec.override_or("tenants", 200));
  options.shards = static_cast<std::size_t>(
      std::max(1.0, spec.override_or("shards", 1)));

  std::unique_ptr<runner::PoolShardRunner> pool;
  if (options.shards > 1) {
    pool = std::make_unique<runner::PoolShardRunner>(options.shards);
  }
  const RegionRun run = run_region(options, pool.get());

  const auto pct = [](const sim::Histogram& h, double p) {
    return h.empty() ? 0.0 : h.percentile(p);
  };
  runner::RunResult result;
  result.set("vms", static_cast<double>(run.vms));
  result.set("pods", static_cast<double>(run.pods));
  result.set("tenants", static_cast<double>(run.tenants));
  result.set("table3_l7", run.adoption.l7);
  result.set("table3_l7_routing", run.adoption.l7_routing);
  result.set("table3_l7_security", run.adoption.l7_security);
  result.set("aggregate_rps", options.aggregate_rps);
  result.set("requests", static_cast<double>(run.sent));
  result.set("ok", static_cast<double>(run.ok));
  result.set("p50_us", pct(run.intra_latency_us, 50));
  result.set("p99_us", pct(run.intra_latency_us, 99));
  result.set("cross_p50_us", pct(run.cross_latency_us, 50));
  result.set("cross_p99_us", pct(run.cross_latency_us, 99));
  result.set("lookahead_us",
             static_cast<double>(run.lookahead) / 1e3);
  result.set("events", static_cast<double>(run.engine.events));
  result.set("rounds", static_cast<double>(run.engine.rounds));
  result.set("cross_shard_messages",
             static_cast<double>(run.engine.messages));
  // Wall-clock (and the shard/thread layout that shapes it) varies with
  // the machine: "wall." prefix, stripped by the determinism diff. The
  // speedup bound is busy-time critical-path math — what a machine with
  // >= shards free cores converges to — reported alongside the measured
  // wall so single-core CI still records the parallelism the partition
  // exposes.
  result.set("wall.wall_ms", run.wall_ms);
  result.set("wall.shards", static_cast<double>(run.shards));
  result.set("wall.busy_ms_sum", run.engine.busy_ms_sum());
  result.set("wall.busy_ms_max", run.engine.busy_ms_max());
  result.set("wall.speedup_bound",
             run.engine.busy_ms_max() <= 0.0
                 ? 1.0
                 : run.engine.busy_ms_sum() / run.engine.busy_ms_max());
  return result;
}

// ---------------------------------------------------------------------------
// config_churn_storm — control-plane dynamics under load: a rolling storm
// of config epochs pushed through the modeled propagation layer (build
// CPU + southbound bandwidth, k8s::ConfigPropagation) while an open-loop
// workload runs. Measures what the zero-time config push hid: per-epoch
// convergence time, the stale-config window (max epoch skew observed at
// apply time — must be nonzero, proxies genuinely disagree mid-rollout),
// and tail latency under churn. Variants differ in proxy population:
// istio pushes O(pods) full configs, ambient O(waypoints + ztunnels),
// canal O(gateway backends).

inline runner::RunResult config_churn_storm(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.seed = spec.seed;
  core::Topology bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "canal") {
    mesh = &bed.build_canal();
  } else if (spec.variant == "ambient") {
    mesh = &bed.build_ambient();
  } else if (spec.variant == "istio") {
    mesh = &bed.build_istio();
  } else {
    throw std::runtime_error("config_churn_storm: unknown variant " +
                             spec.variant);
  }

  k8s::ControlPlaneProfile profile;
  k8s::ConfigPropagation propagation(bed.loop, profile);

  const auto pushes = static_cast<int>(spec.override_or("pushes", 8));
  const auto period = static_cast<sim::Duration>(
      spec.override_or("push_period_ms", 50.0) * 1e6);
  std::uint64_t max_skew = 0;
  std::uint64_t bytes_pushed = 0;
  std::size_t targets_per_epoch = 0;
  const sim::TimePoint start = bed.loop.now();
  for (int p = 0; p < pushes; ++p) {
    bed.loop.post_at(start + sim::milliseconds(25) + p * period, [&] {
      // Sampling skew inside the apply callback catches the window at its
      // widest: the first proxy of epoch N has just acked while the rest
      // still hold N-1 (or older, if pushes overlap).
      auto targets = mesh->config_epoch_targets([&](proxy::ProxyEngine&) {
        max_skew = std::max(max_skew, propagation.epoch_skew());
      });
      targets_per_epoch = targets.size();
      propagation.push_epoch(std::move(targets),
                             [&](k8s::EpochReport report) {
                               bytes_pushed += report.bytes_pushed;
                             });
    });
  }

  const double rps = spec.override_or("rps", 2000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_ms", 500.0) * 1e6);
  const LoadResult load = drive_open_loop(bed, *mesh, rps, duration);

  const sim::Histogram& conv = propagation.convergence_ms();
  runner::RunResult result;
  result.set("pushes", static_cast<double>(pushes));
  result.set("targets_per_epoch", static_cast<double>(targets_per_epoch));
  result.set("bytes_pushed", static_cast<double>(bytes_pushed));
  result.set("convergence_ms_p50", conv.empty() ? 0.0 : conv.percentile(50));
  result.set("convergence_ms_max", conv.empty() ? 0.0 : conv.percentile(100));
  result.set("max_epoch_skew", static_cast<double>(max_skew));
  result.set("applies", static_cast<double>(propagation.applies_total()));
  result.set("superseded",
             static_cast<double>(propagation.superseded_total()));
  result.set("converged", propagation.converged() ? 1.0 : 0.0);
  result.set("requests", static_cast<double>(load.sent));
  result.set("ok", static_cast<double>(load.ok));
  result.set("p50_us", load.latency_us.percentile(50));
  result.set("p99_us", load.latency_us.percentile(99));
  return result;
}

// ---------------------------------------------------------------------------
// cert_rotation_wave — the §2.1 rolling re-sign: every pod identity's
// certificate re-issued through the batched asymmetric accelerator
// (staggered wave -> Fig 25 batch/flush dynamics), then the fresh cert
// bytes distributed to the mesh's proxies as a config epoch through the
// propagation layer, all while an open-loop workload runs. Rotation uses
// its own CpuSet and southbound stack, so the dataplane percentiles stay
// untouched — the cost shows up as makespan + distribution convergence.

inline runner::RunResult cert_rotation_wave(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.seed = spec.seed;
  core::Topology bed(options);

  mesh::MeshDataplane* mesh = nullptr;
  if (spec.variant == "canal") {
    mesh = &bed.build_canal();
  } else if (spec.variant == "istio") {
    mesh = &bed.build_istio();
  } else {
    throw std::runtime_error("cert_rotation_wave: unknown variant " +
                             spec.variant);
  }

  sim::Rng rng(spec.seed + 7);
  sim::CpuSet crypto_cpu(bed.loop, 4);
  crypto::AsymmetricAccelerator accel(bed.loop, crypto_cpu,
                                      crypto::AccelMode::kBatched);
  crypto::CertificateAuthority ca("bench-ca", rng);
  k8s::ControlPlaneProfile profile;
  k8s::ConfigPropagation propagation(bed.loop, profile);

  std::vector<std::string> identities;
  for (const auto& pod : bed.cluster.pods()) {
    identities.push_back("spiffe://tenant-1/ns/default/sa/pod-" +
                         std::to_string(net::id_value(pod->id())));
  }

  crypto::RotationOptions rotation_options;
  rotation_options.stagger = static_cast<sim::Duration>(
      spec.override_or("stagger_us", 100.0) * 1e3);
  crypto::CertRotationWave wave(bed.loop, ca, rotation_options);

  std::uint64_t rotated = 0;
  std::uint64_t cert_bytes = 0;
  double makespan_ms = 0.0;
  std::uint64_t max_skew = 0;
  const sim::TimePoint start = bed.loop.now();
  bed.loop.post_at(start + sim::milliseconds(20), [&] {
    wave.run(identities, accel, rng, nullptr,
             [&](crypto::RotationReport report) {
               rotated = report.rotated;
               cert_bytes = report.cert_bytes;
               makespan_ms = sim::to_seconds(report.makespan) * 1e3;
               // Distribute the fresh certs: one epoch whose per-target
               // payload is the wave's cert bytes spread over the fleet.
               auto targets =
                   mesh->config_epoch_targets([&](proxy::ProxyEngine&) {
                     max_skew = std::max(max_skew, propagation.epoch_skew());
                   });
               const std::uint64_t per_target =
                   targets.empty() ? 0
                                   : report.cert_bytes / targets.size();
               for (auto& t : targets) t.target.config_bytes = per_target;
               propagation.push_epoch(std::move(targets));
             });
  });

  const double rps = spec.override_or("rps", 2000.0);
  const auto duration = static_cast<sim::Duration>(
      spec.override_or("duration_ms", 500.0) * 1e6);
  const LoadResult load = drive_open_loop(bed, *mesh, rps, duration);

  const sim::Histogram& conv = propagation.convergence_ms();
  runner::RunResult result;
  result.set("identities", static_cast<double>(identities.size()));
  result.set("rotated", static_cast<double>(rotated));
  result.set("makespan_ms", makespan_ms);
  result.set("batches_flushed", static_cast<double>(accel.batches_flushed()));
  result.set("sign_p50_us", accel.op_latency_us().empty()
                                ? 0.0
                                : accel.op_latency_us().percentile(50));
  result.set("cert_bytes", static_cast<double>(cert_bytes));
  result.set("distribution_ms",
             conv.empty() ? 0.0 : conv.percentile(100));
  result.set("max_epoch_skew", static_cast<double>(max_skew));
  result.set("converged", propagation.converged() ? 1.0 : 0.0);
  result.set("requests", static_cast<double>(load.sent));
  result.set("ok", static_cast<double>(load.ok));
  result.set("p50_us", load.latency_us.percentile(50));
  result.set("p99_us", load.latency_us.percentile(99));
  return result;
}

}  // namespace scenarios

}  // namespace canal::bench
