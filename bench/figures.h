// The paper's figures and tables as bench_suite scenario functions, one
// family per figure (the family table in bench_suite.cc registers them;
// EXPERIMENTS.md's scenario index maps each to its paper band).
//
// A table row that is an independent run is a variant. Rows that share
// one world (a timeline, a sequential sweep on one bed, rows drawing from
// one RNG stream) stay one variant with row-prefixed metrics. Text cells
// (backend lists, timeline events) are notes.
//
// Seeding: a figure's fixed RNG seed `c` becomes `c + spec.seed - 1` and
// its topologies take `spec.seed` (the `spec.seed + offset` convention of
// canal/topology.h), so seed 1 reproduces the original tables exactly.
// Hand-built worlds stay hand-built: moving them onto core::Topology
// would move their seeds.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "canal/cost_model.h"
#include "canal/health_aggregation.h"
#include "canal/innocence.h"
#include "canal/intervention.h"
#include "canal/pattern_monitor.h"
#include "canal/population.h"
#include "canal/proxyless.h"
#include "canal/scaling.h"
#include "canal/sharding.h"
#include "crypto/accelerator.h"
#include "crypto/keyserver.h"
#include "k8s/propagation.h"
#include "lb/aggregation.h"
#include "lb/bucket_table.h"
#include "proxy/cost_model.h"
#include "proxy/nagle.h"
#include "runner/run.h"

namespace canal::bench {
namespace figures {

/// The figure's fixed seed `c`, shifted by the run's seed.
inline sim::Rng rng_for(const runner::RunSpec& spec, std::uint64_t c) {
  return sim::Rng(c + spec.seed - 1);
}

inline core::TopologySpec topology_for(const runner::RunSpec& spec) {
  core::TopologySpec options;
  options.seed = spec.seed;
  return options;
}

inline double num(std::uint64_t value) { return static_cast<double>(value); }

[[noreturn]] inline void unknown_variant(const runner::RunSpec& spec) {
  throw std::runtime_error(spec.scenario + ": unknown variant " +
                           spec.variant);
}

// ---------------------------------------------------------------------------
// Motivation (§2): seeded population models behind Tables 1-3 and Fig 3.

/// Table 1: sidecar resource usage across production cluster sizes. The
/// rows draw from one RNG stream, so they form one variant.
inline runner::RunResult sidecar_footprint(const runner::RunSpec& spec) {
  sim::Rng rng = rng_for(spec, 401);
  const std::pair<std::size_t, std::size_t> clusters[] = {
      {500, 15000}, {200, 8000}, {100, 1000}, {60, 2000}, {60, 400}};
  runner::RunResult result;
  for (const auto& [nodes, pods] : clusters) {
    const auto footprint = core::sidecar_footprint(nodes, pods, rng);
    const std::string row = "pods" + std::to_string(pods) + ".";
    result.set(row + "nodes", num(nodes));
    result.set(row + "pods", num(pods));
    result.set(row + "cpu_cores", footprint.cpu_cores);
    result.set(row + "cpu_share", footprint.cpu_fraction);
    result.set(row + "memory_gb", footprint.memory_gb);
    result.set(row + "memory_share", footprint.memory_fraction);
  }
  return result;
}

/// Table 2: config updates per minute by cluster size, each row the mean
/// of 20 sampled clusters.
inline runner::RunResult config_update_rate(const runner::RunSpec& spec) {
  sim::Rng rng = rng_for(spec, 409);
  runner::RunResult result;
  for (const std::size_t pods : {300u, 900u, 2250u}) {
    double sum = 0;
    for (int i = 0; i < 20; ++i) {
      sum += core::config_update_frequency_per_min(pods, rng);
    }
    const std::string row = "pods" + std::to_string(pods) + ".";
    result.set(row + "pods", num(pods));
    result.set(row + "updates_per_min", sum / 20);
  }
  return result;
}

/// Table 3: share of tenants enabling L7 features; one variant per region.
inline runner::RunResult l7_adoption(const runner::RunSpec& spec) {
  const core::RegionProfile regions[] = {
      {"Region1", 800, 0.95, 0.99, 0.31},
      {"Region2", 700, 0.93, 0.99, 0.35},
      {"Region3", 600, 0.90, 0.95, 0.30},
      {"Region4", 500, 0.80, 0.90, 0.50},
      {"Region5", 400, 0.88, 0.91, 0.60},
  };
  for (const auto& region : regions) {
    if (region.name != spec.variant) continue;
    const auto tenants =
        core::PopulationGenerator(rng_for(spec, 421 + region.tenants))
            .generate(region);
    const auto adoption =
        core::PopulationGenerator::summarize(region.name, tenants);
    runner::RunResult result;
    result.set("l7", adoption.l7);
    result.set("l7_routing", adoption.l7_routing);
    result.set("l7_security", adoption.l7_security);
    return result;
  }
  unknown_variant(spec);
}

/// Fig 3: quarterly sidecar count of a major customer, 2020Q1-2022Q1.
inline runner::RunResult sidecar_growth(const runner::RunSpec& spec) {
  sim::Rng rng = rng_for(spec, 431);
  const auto trace = core::sidecar_growth_trace(23000, 9, 1.09, rng);
  runner::RunResult result;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    result.set(std::to_string(2020 + i / 4) + "q" + std::to_string(i % 4 + 1) +
                   ".sidecars",
               trace[i]);
  }
  result.set("growth_x", trace.back() / trace.front());
  return result;
}

// ---------------------------------------------------------------------------
// Resources: Fig 2 (sidecar utilization vs latency), Fig 5/13 (mesh CPU),
// Table 5 (deployment cost).

/// Fig 2: one istio world per target utilization; the "vs idle" ratio is
/// relative to the first row, so the sweep is one variant.
inline runner::RunResult sidecar_util(const runner::RunSpec& spec) {
  runner::RunResult result;
  double idle_latency = 0.0;
  for (const double target_util : {0.1, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95}) {
    core::TopologySpec options = topology_for(spec);
    options.app_service_time = sim::microseconds(100);
    options.node_cores = 64;
    core::Topology bed(options);
    mesh::IstioMesh::Config config;
    config.sidecar_cores_per_node = 2;
    bed.istio = std::make_unique<mesh::IstioMesh>(bed.loop, bed.cluster,
                                                  config, rng_for(spec, 21));
    bed.istio->install();

    // Sidecar CPU per request ~2.9 ms across 4 cores => utilization u at
    // rps = u * 4 / 2.9ms.
    const double rps = target_util * 4.0 / 2.9e-3;
    const auto load =
        drive_open_loop(bed, *bed.istio, rps, sim::seconds(3), false);
    if (idle_latency == 0.0) idle_latency = load.latency_us.mean();
    const std::string row =
        "util" + std::to_string(std::lround(target_util * 100)) + ".";
    result.set(row + "target_util", target_util);
    result.set(row + "util", load.user_cores() / 4.0);
    result.set(row + "mean_us", load.latency_us.mean());
    result.set(row + "p99_us", load.latency_us.percentile(99));
    result.set(row + "vs_idle_x", load.latency_us.mean() / idle_latency);
  }
  return result;
}

/// Fig 5/13: mesh CPU cores under growing load, all three planes on one
/// bed driven in sequence (one variant).
inline runner::RunResult mesh_cpu(const runner::RunSpec& spec) {
  core::TopologySpec options = topology_for(spec);
  options.app_service_time = sim::microseconds(100);
  options.node_cores = 64;
  core::Topology bed(options);
  bed.build_istio();
  bed.build_ambient();
  bed.build_canal();

  runner::RunResult result;
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
    const std::string row = "rps" + std::to_string(std::lround(rps)) + ".";
    result.set(row + "rps", rps);
    result.set(row + "istio_cores", istio.user_cores());
    result.set(row + "ambient_cores", ambient.user_cores());
    result.set(row + "canal_cores", canal.user_cores());
    result.set(row + "canal_total_cores", canal.total_cores());
    result.set(row + "istio_over_canal", istio_ratio);
    result.set(row + "ambient_over_canal", ambient_ratio);
  }
  result.set("istio_over_canal_min", min_istio_ratio);
  result.set("istio_over_canal_max", max_istio_ratio);
  result.set("ambient_over_canal_min", min_ambient_ratio);
  result.set("ambient_over_canal_max", max_ambient_ratio);
  return result;
}

/// Table 5: cost cut from LB disaggregation (redirector) and session
/// aggregation (tunneling) in four region shapes. Region shapes are
/// estimated from Table 5's per-region savings: the LB fleet share sets
/// the redirector saving, the session-bound VM excess the tunneling one.
inline runner::RunResult deployment_cost(const runner::RunSpec& spec) {
  struct Region {
    const char* name;
    double lb_cost;
    double sessions;
    double cpu_vms;
  };
  const Region regions[] = {
      {"Region1", 47.5, 1.3125e8, 507.5},
      {"Region2", 45.1, 1.3725e8, 240.0},
      {"Region3", 32.1, 1.6975e8, 857.5},
      {"Region4", 36.7, 1.5825e8, 670.0},
  };
  for (const auto& region : regions) {
    if (spec.variant != region.name) continue;
    core::RegionCostProfile profile;
    profile.services = 1000;
    profile.azs = 3;
    profile.lb_vm_monthly_cost = region.lb_cost;
    profile.total_sessions = region.sessions;
    profile.cpu_replica_vms = region.cpu_vms;
    const auto costs = core::compute_region_costs(profile);
    runner::RunResult result;
    result.set("redirector_saving", costs.redirector_saving());
    result.set("tunneling_saving", costs.tunneling_saving());
    result.set("combined_saving", costs.combined_saving());
    return result;
  }
  unknown_variant(spec);
}

// ---------------------------------------------------------------------------
// Control plane: Fig 4 (controller CPU), Fig 14 (pod config time), Fig 15
// (routing-update bytes), ablation A7 (full vs incremental push).

/// Fig 4: full-config push at growing cluster size, on the canonical
/// control-plane sizing except the figure's 10 Gbps LAN southbound.
inline runner::RunResult controller_push(const runner::RunSpec& spec) {
  k8s::ControlPlaneProfile profile;
  profile.southbound_bandwidth_bps = 10'000'000'000;
  const auto pods = static_cast<std::size_t>(spec.override_or("pods", 1000));
  // Full per-sidecar config grows with cluster size: O(pods) rules.
  std::vector<k8s::ConfigTarget> targets(
      pods, k8s::ConfigTarget{"sidecar", 200 * pods});
  const k8s::PushReport report =
      k8s::measure_push(profile, std::move(targets)).report;
  runner::RunResult result;
  result.set("pods", num(pods));
  result.set("build_ms", sim::to_milliseconds(report.build_time));
  result.set("push_ms",
             sim::to_milliseconds(report.total_time - report.build_time));
  result.set("total_ms", sim::to_milliseconds(report.total_time));
  result.set("bytes_pushed", num(report.bytes_pushed));
  return result;
}

/// Fig 14: config completion time for a batch of new pods; each plane on
/// its own bed. Pod start itself (image pull, netns) is common to all.
inline runner::RunResult pod_config_time(const runner::RunSpec& spec) {
  const auto new_pods =
      static_cast<std::size_t>(spec.override_or("new_pods", 50));
  const sim::Duration kPodStart = sim::seconds(2);
  const auto make_bed = [&] {
    core::TopologySpec options = topology_for(spec);
    options.nodes = 20;
    options.pods_per_service.assign(10, 40);
    return std::make_unique<core::Topology>(options);
  };
  const auto create_pods = [&](core::Topology& bed) {
    std::vector<k8s::Pod*> fresh;
    for (std::size_t i = 0; i < new_pods; ++i) {
      fresh.push_back(&bed.cluster.add_pod(
          *bed.services[i % bed.services.size()], k8s::AppProfile{}));
    }
    return fresh;
  };
  // xDS push model (bounded-concurrency streams, per-target apply RTT,
  // southbound transfer + build CPU) at the canonical sizing.
  const auto completion = [&](std::vector<k8s::ConfigTarget> targets) {
    return kPodStart + k8s::measure_push(k8s::ControlPlaneProfile{},
                                         std::move(targets))
                           .completion;
  };

  auto istio_bed = make_bed();
  istio_bed->build_istio();
  const double istio = sim::to_seconds(completion(
      istio_bed->istio->pod_create_targets(create_pods(*istio_bed))));
  auto ambient_bed = make_bed();
  ambient_bed->build_ambient();
  const double ambient = sim::to_seconds(completion(
      ambient_bed->ambient->pod_create_targets(create_pods(*ambient_bed))));
  auto canal_bed = make_bed();
  canal_bed->build_canal();
  const double canal = sim::to_seconds(completion(
      canal_bed->canal->pod_create_targets(create_pods(*canal_bed))));

  runner::RunResult result;
  result.set("new_pods", num(new_pods));
  result.set("istio_s", istio);
  result.set("ambient_s", ambient);
  result.set("canal_s", canal);
  result.set("istio_over_canal", istio / canal);
  result.set("ambient_over_canal", ambient / canal);
  return result;
}

/// Fig 15: southbound bytes for one routing-policy update, in the
/// production shape of §2.2 (pods:services ~ 2:1, pods:nodes ~ 15:1, a
/// handful of shared gateway backends).
inline runner::RunResult routing_update_bytes(const runner::RunSpec& spec) {
  core::TopologySpec options = topology_for(spec);
  options.nodes = 4;
  options.pods_per_service.assign(30, 2);
  options.gateway_backends = 6;
  core::Topology bed(options);
  bed.build_istio();
  bed.build_ambient();
  bed.build_canal();

  const auto total_bytes = [](const std::vector<k8s::ConfigTarget>& targets) {
    std::uint64_t total = 0;
    for (const auto& target : targets) total += target.config_bytes;
    return static_cast<double>(total);
  };
  const auto canal_targets = bed.canal->routing_update_targets();
  const double canal = total_bytes(canal_targets);
  runner::RunResult result;
  const auto row = [&](const std::string& plane, std::size_t targets,
                       double bytes) {
    result.set(plane + ".targets", num(targets));
    result.set(plane + ".bytes", bytes);
    result.set(plane + ".vs_canal", bytes / canal);
  };
  row("istio", bed.istio->proxy_count(),
      total_bytes(bed.istio->routing_update_targets()));
  row("ambient", bed.ambient->proxy_count(),
      total_bytes(bed.ambient->routing_update_targets()));
  row("canal", canal_targets.size(), canal);
  return result;
}

/// Ablation A7: one route change shipped as a full or an incremental
/// push. Incremental pushes shrink bytes per target; canal's
/// consolidation shrinks the target count itself.
inline runner::RunResult ablation_incremental_push(
    const runner::RunSpec& spec) {
  const auto pods = static_cast<std::size_t>(spec.override_or("pods", 100));
  core::TopologySpec options = topology_for(spec);
  options.nodes = std::max<std::size_t>(2, pods / 15);
  const std::size_t services = std::max<std::size_t>(2, pods / 50);
  options.pods_per_service.assign(services, pods / services);
  core::Topology bed(options);
  bed.build_istio();
  bed.build_canal();

  // Full push: every target gets its complete config. Incremental: every
  // target gets only the changed service's rules.
  const std::size_t full = mesh::full_config_bytes(bed.cluster);
  const std::size_t delta =
      mesh::service_config_bytes(*bed.cluster.services().front());
  runner::RunResult result;
  const double istio_full = num(full) * num(pods);
  const double istio_incremental = num(delta) * num(pods);
  result.set("istio.targets", num(pods));
  result.set("istio.full_bytes", istio_full);
  result.set("istio.incremental_bytes", istio_incremental);
  result.set("istio.saving_x", istio_full / istio_incremental);

  const auto canal_targets = bed.canal->routing_update_targets();
  double canal_full = 0;
  for (const auto& target : canal_targets) {
    canal_full += num(target.config_bytes);
  }
  const double canal_incremental = num(delta) * num(canal_targets.size());
  result.set("canal.targets", num(canal_targets.size()));
  result.set("canal.full_bytes", canal_full);
  result.set("canal.incremental_bytes", canal_incremental);
  result.set("canal.saving_x", canal_full / std::max(1.0, canal_incremental));
  return result;
}

// ---------------------------------------------------------------------------
// Crypto offloading: Fig 12 (proxy CPU), Fig 23 (completion time), Fig 25
// (AVX-512 batching), Fig 27/28 (HTTPS short-flow goodput and P90).

namespace detail {

enum class OffloadMode { kNone, kLocalAccel, kRemoteKeyServer };

struct CryptoRun {
  double p90_us = 0;
  double proxy_cores = 0;
  std::uint64_t completed = 0;
};

/// HTTPS short-flow load through one on-node proxy of `cores` cores with
/// the chosen asymmetric-crypto path.
inline CryptoRun run_https_load(const runner::RunSpec& spec, OffloadMode mode,
                                double rps, double seconds,
                                std::size_t cores = 2,
                                double resumption_fraction = 0.0) {
  sim::EventLoop loop;
  sim::CpuSet proxy_cpu(loop, cores);
  crypto::CryptoCostModel model;
  crypto::AsymmetricAccelerator local_soft(loop, proxy_cpu,
                                           crypto::AccelMode::kSoftware,
                                           model);
  crypto::AsymmetricAccelerator local_accel(loop, proxy_cpu,
                                            crypto::AccelMode::kBatched,
                                            model);
  crypto::KeyServer key_server(loop, static_cast<net::AzId>(0), 16,
                               rng_for(spec, 11), model);
  key_server.establish_channel("bench");
  key_server.store_private_key("spiffe://t/bench", 0x5EED);
  sim::CpuSet client_fallback(loop, 1);
  crypto::KeyServerClient::Config client_config;
  client_config.requester_id = "bench";
  client_config.model = model;
  crypto::KeyServerClient client(loop, client_fallback, client_config,
                                 rng_for(spec, 12));
  client.attach_server(&key_server);

  // Keep the key server's batches warm, as production consolidation does.
  sim::PeriodicTimer background(loop, sim::microseconds(200), [&] {
    key_server.handle_sign("bench", "spiffe://t/bench", "bg",
                           [](auto) {});
  });
  if (mode == OffloadMode::kRemoteKeyServer) background.start();

  CryptoRun result;
  sim::Histogram latency;
  std::uint64_t flow_counter = 0;
  const auto spacing =
      static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
  const auto count = static_cast<std::uint64_t>(rps * seconds);
  for (std::uint64_t i = 0; i < count; ++i) {
    loop.post_at(static_cast<sim::Duration>(i) * spacing, [&] {
      const sim::TimePoint start = loop.now();
      const bool resumed =
          resumption_fraction > 0.0 &&
          (static_cast<double>(flow_counter++ % 100) <
           resumption_fraction * 100.0);
      // Each HTTPS short flow: one asymmetric handshake + ~1.2ms of TLS
      // session setup, symmetric record crypto, L4 proxying and teardown.
      auto finish = [&, start, deadline = static_cast<sim::TimePoint>(
                                    seconds *
                                    static_cast<double>(sim::kSecond))] {
        proxy_cpu.execute(
            sim::microseconds(1200) + model.symmetric_cost(4096),
            [&, start, deadline] {
              // Only flows completing within the measurement window count
              // toward throughput (goodput under overload).
              if (loop.now() <= deadline) {
                latency.record(sim::to_microseconds(loop.now() - start));
                ++result.completed;
              }
            });
      };
      if (resumed) {
        // TLS session resumption: no asymmetric work at all.
        finish();
        return;
      }
      switch (mode) {
        case OffloadMode::kNone:
          local_soft.submit(finish);
          break;
        case OffloadMode::kLocalAccel:
          local_accel.submit(finish);
          break;
        case OffloadMode::kRemoteKeyServer:
          client.sign("spiffe://t/bench", "hs", [finish](auto) { finish(); });
          break;
      }
    });
  }
  loop.run_until(static_cast<sim::Duration>(seconds * 1.5 *
                                            static_cast<double>(sim::kSecond)));
  background.stop();
  loop.run();
  result.p90_us = latency.percentile(90);
  result.proxy_cores = proxy_cpu.total_busy_core_seconds() / (seconds * 1.5);
  return result;
}

}  // namespace detail

/// Fig 12: on-node proxy CPU with handshakes in software, on the local
/// accelerator, or on the remote key server.
inline runner::RunResult crypto_offload_cpu(const runner::RunSpec& spec) {
  using detail::OffloadMode;
  const double rps = spec.override_or("rps", 200);
  const auto none = detail::run_https_load(spec, OffloadMode::kNone, rps, 3.0);
  const auto local =
      detail::run_https_load(spec, OffloadMode::kLocalAccel, rps, 3.0);
  const auto remote =
      detail::run_https_load(spec, OffloadMode::kRemoteKeyServer, rps, 3.0);
  runner::RunResult result;
  result.set("rps", rps);
  result.set("none_cores", none.proxy_cores);
  result.set("local_cores", local.proxy_cores);
  result.set("remote_cores", remote.proxy_cores);
  result.set("local_saving", 1.0 - local.proxy_cores / none.proxy_cores);
  result.set("remote_saving", 1.0 - remote.proxy_cores / none.proxy_cores);
  return result;
}

/// Fig 23: mean asymmetric-op completion time per offload mode, 400 ops
/// at a fixed handshake rate.
inline runner::RunResult asym_crypto_time(const runner::RunSpec& spec) {
  using detail::OffloadMode;
  const double rps = spec.override_or("rps", 100);
  const auto completion_ms = [&](OffloadMode mode) -> double {
    sim::EventLoop loop;
    sim::CpuSet cpu(loop, 8);
    crypto::CryptoCostModel model;
    crypto::AsymmetricAccelerator accel(
        loop, cpu,
        mode == OffloadMode::kNone ? crypto::AccelMode::kSoftware
                                   : crypto::AccelMode::kBatched,
        model);
    crypto::KeyServer ks(loop, static_cast<net::AzId>(0), 16,
                         rng_for(spec, 13), model);
    ks.establish_channel("b");
    ks.store_private_key("id", 7);
    sim::CpuSet fallback(loop, 1);
    crypto::KeyServerClient::Config cc;
    cc.requester_id = "b";
    cc.model = model;
    crypto::KeyServerClient client(loop, fallback, cc, rng_for(spec, 14));
    client.attach_server(&ks);
    // Key server sees aggregate load from many tenants: keep it warm.
    sim::PeriodicTimer background(loop, sim::microseconds(150), [&] {
      ks.handle_sign("b", "id", "bg", [](auto) {});
    });
    if (mode == OffloadMode::kRemoteKeyServer) background.start();

    sim::Histogram latency;
    const auto spacing =
        static_cast<sim::Duration>(static_cast<double>(sim::kSecond) / rps);
    for (int i = 0; i < 400; ++i) {
      loop.post_at(static_cast<sim::Duration>(i) * spacing, [&] {
        const sim::TimePoint start = loop.now();
        auto record = [&, start] {
          latency.record(sim::to_microseconds(loop.now() - start));
        };
        if (mode == OffloadMode::kRemoteKeyServer) {
          client.sign("id", "t", [record](auto) { record(); });
        } else {
          accel.submit(record);
        }
      });
    }
    loop.run_until(sim::seconds(5));
    background.stop();
    loop.run();
    return latency.mean() / 1000.0;
  };
  runner::RunResult result;
  result.set("rps", rps);
  result.set("software_ms", completion_ms(OffloadMode::kNone));
  result.set("local_ms", completion_ms(OffloadMode::kLocalAccel));
  result.set("remote_ms", completion_ms(OffloadMode::kRemoteKeyServer));
  return result;
}

/// Fig 25: AVX-512 batch pathology; below 8 concurrent handshakes every
/// batch waits out the 1 ms flush timeout.
inline runner::RunResult avx_batching(const runner::RunSpec& spec) {
  const auto concurrent =
      static_cast<int>(spec.override_or("concurrent", 1));
  sim::EventLoop loop;
  sim::CpuSet cpu(loop, 8);
  crypto::CryptoCostModel model;
  crypto::AsymmetricAccelerator accel(loop, cpu, crypto::AccelMode::kBatched,
                                      model);
  for (int i = 0; i < concurrent; ++i) accel.submit([] {});
  loop.run();
  runner::RunResult result;
  result.set("concurrent", concurrent);
  result.set("mean_handshake_us", accel.op_latency_us().mean());
  result.note("batching", concurrent < 8 ? "stalls on 1ms flush timeout"
                                         : "full batches, no stall");
  return result;
}

/// Fig 27: HTTPS short-flow goodput, offered load sized to the offloaded
/// path's capacity; half the flows resume TLS sessions.
inline runner::RunResult https_goodput(const runner::RunSpec& spec) {
  using detail::OffloadMode;
  const auto cores = static_cast<std::size_t>(spec.override_or("cores", 1));
  const double rps = 750.0 * num(cores);
  const auto none =
      detail::run_https_load(spec, OffloadMode::kNone, rps, 3.0, cores, 0.5);
  const auto remote = detail::run_https_load(
      spec, OffloadMode::kRemoteKeyServer, rps, 3.0, cores, 0.5);
  runner::RunResult result;
  result.set("cores", num(cores));
  result.set("offered_rps", rps);
  result.set("none_done", num(none.completed));
  result.set("remote_done", num(remote.completed));
  result.set("gain_x", num(remote.completed) / num(none.completed));
  return result;
}

/// Fig 28: HTTPS short-flow P90 near the software path's saturation.
inline runner::RunResult https_p90(const runner::RunSpec& spec) {
  using detail::OffloadMode;
  const auto cores = static_cast<std::size_t>(spec.override_or("cores", 1));
  const double rps = 330.0 * num(cores);
  const auto none =
      detail::run_https_load(spec, OffloadMode::kNone, rps, 3.0, cores, 0.5);
  const auto remote = detail::run_https_load(
      spec, OffloadMode::kRemoteKeyServer, rps, 3.0, cores, 0.5);
  runner::RunResult result;
  result.set("cores", num(cores));
  result.set("offered_rps", rps);
  result.set("none_p90_ms", none.p90_us / 1000.0);
  result.set("remote_p90_ms", remote.p90_us / 1000.0);
  result.set("cut", 1.0 - remote.p90_us / none.p90_us);
  return result;
}

// ---------------------------------------------------------------------------
// Traffic redirection: Fig 21/22 (Nagle and context switches), Fig 29/30
// (eBPF vs iptables by packet size), ablation A4 (Nagle on/off).

/// Fig 21/22: 16-byte app writes at 4 kRPS. Raw eBPF loses kernel Nagle
/// and context-switches per write; the in-proxy aggregator restores
/// batching.
inline runner::RunResult nagle_ctx_switch(const runner::RunSpec&) {
  constexpr double kWriteRps = 4000.0;
  constexpr std::uint64_t kWriteBytes = 16;
  const proxy::ProxyCostModel costs;
  const auto segments_for = [&](bool use_nagle) {
    sim::EventLoop loop;
    std::uint64_t segments = 0;
    proxy::NagleBuffer nagle(loop, costs.mss_bytes, sim::milliseconds(1),
                             [&](std::uint64_t, std::uint32_t) {
                               ++segments;
                             });
    const auto writes = static_cast<std::uint64_t>(kWriteRps);
    for (std::uint64_t i = 0; i < writes; ++i) {
      loop.post_at(
          static_cast<sim::Duration>(i) *
              static_cast<sim::Duration>(sim::kSecond / kWriteRps),
          [&] {
            if (use_nagle) {
              nagle.write(kWriteBytes);
            } else {
              ++segments;  // every write is its own segment
            }
          });
    }
    loop.run();
    return segments;
  };
  const std::uint64_t raw_segments = segments_for(false);
  const std::uint64_t nagle_segments = segments_for(true);

  runner::RunResult result;
  const auto row = [&](const std::string& name, proxy::RedirectMode mode,
                       std::uint64_t segments) {
    // One context switch per segment crossing into the proxy.
    result.set(name + ".segments_per_s", num(segments));
    result.set(name + ".ctx_switches_per_s", num(segments));
    result.set(name + ".redirect_us_per_s",
               sim::to_microseconds(costs.redirect_cost(
                   mode, static_cast<std::uint64_t>(kWriteRps * kWriteBytes),
                   segments)));
  };
  row("iptables", proxy::RedirectMode::kIptables, nagle_segments);
  row("ebpf_raw", proxy::RedirectMode::kEbpf, raw_segments);
  row("ebpf_nagle", proxy::RedirectMode::kEbpf, nagle_segments);
  result.set("raw_over_nagle_x", num(raw_segments) / num(nagle_segments));
  return result;
}

/// Fig 29/30: netperf-style per-payload cost of eBPF vs iptables
/// redirection, as throughput gain and latency cut.
inline runner::RunResult ebpf_redirect(const runner::RunSpec& spec) {
  const proxy::ProxyCostModel costs;
  const auto bytes = static_cast<std::uint64_t>(spec.override_or("bytes", 64));
  const std::uint64_t segments = bytes / costs.mss_bytes + 1;
  const double iptables_us = sim::to_microseconds(
      costs.redirect_cost(proxy::RedirectMode::kIptables, bytes, segments));
  double ebpf_us = sim::to_microseconds(
      costs.redirect_cost(proxy::RedirectMode::kEbpf, bytes, segments));
  // Sub-MSS payloads must be aggregated in the proxy before eBPF
  // redirection (§4.1.2); each buffered write costs a small copy. The
  // kernel path gets Nagle for free, hence the smaller small-packet gain.
  if (bytes < costs.mss_bytes) {
    ebpf_us += num(costs.mss_bytes) / num(bytes) * 0.5;
  }
  // Work both paths pay regardless of redirection: the app's own kernel
  // egress + the proxy's forward + the copy of each segment.
  const double common_us = sim::to_microseconds(
      static_cast<sim::Duration>(segments) *
          (2 * costs.kernel_pass + costs.l4_forward) +
      costs.memcpy_cost(bytes));
  // Serialized path delay: redirection plus one unavoidable kernel pass.
  const double kernel_us = sim::to_microseconds(
      static_cast<sim::Duration>(segments) * costs.kernel_pass);
  runner::RunResult result;
  result.set("bytes", num(bytes));
  result.set("iptables_us", iptables_us + common_us);
  result.set("ebpf_us", ebpf_us + common_us);
  result.set("throughput_gain_x",
             (iptables_us + common_us) / (ebpf_us + common_us));
  result.set("latency_cut",
             1.0 - (ebpf_us + kernel_us) / (iptables_us + kernel_us));
  return result;
}

/// Ablation A4: 1000 small eBPF-redirected writes with and without the
/// in-proxy Nagle aggregator.
inline runner::RunResult ablation_nagle(const runner::RunSpec& spec) {
  constexpr int kWrites = 1000;
  const proxy::ProxyCostModel costs;
  const auto bytes = static_cast<std::uint64_t>(spec.override_or("bytes", 16));
  sim::EventLoop loop;
  std::uint64_t nagle_segments = 0;
  proxy::NagleBuffer nagle(loop, costs.mss_bytes, sim::milliseconds(1),
                           [&](std::uint64_t, std::uint32_t) {
                             ++nagle_segments;
                           });
  for (int i = 0; i < kWrites; ++i) nagle.write(bytes);
  nagle.flush();
  loop.run();
  const double raw_cost = sim::to_microseconds(costs.redirect_cost(
      proxy::RedirectMode::kEbpf, bytes * kWrites, kWrites));
  const double nagle_cost = sim::to_microseconds(costs.redirect_cost(
      proxy::RedirectMode::kEbpf, bytes * kWrites, nagle_segments));
  runner::RunResult result;
  result.set("bytes", num(bytes));
  result.set("raw_segments", kWrites);
  result.set("nagle_segments", num(nagle_segments));
  result.set("cpu_saved", 1.0 - nagle_cost / raw_cost);
  return result;
}

// ---------------------------------------------------------------------------
// Gateway operations: Fig 16 (isolation timeline), Fig 17/18 + Table 4
// (scaling), Fig 19 (shuffle sharding), Fig 20 (a day of operations),
// §6.3 (in-phase scatter), ablations A1 (sharding) and A5 (scaling).

/// Fig 16: a surge on one service pushes a shared backend past the alert
/// threshold; precise scaling (Reuse) extends the noisy service to cold
/// backends while the victims' RPS, latency and error count hold. The
/// whole timeline is one world, so one variant with `t<sec>.` rows.
inline runner::RunResult isolation_timeline(const runner::RunSpec& spec) {
  core::TopologySpec options = topology_for(spec);
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
  core::GatewayBackend* shared = bed.gateway->placement_of(noisy).front();
  bed.gateway->extend_service(victim1, *shared);
  bed.gateway->extend_service(victim2, *shared);

  core::ScalerConfig scaler_config;
  scaler_config.alert_threshold = 0.7;
  scaler_config.reuse_delay_mean = sim::seconds(20);
  scaler_config.check_period = sim::seconds(5);
  core::PreciseScaler scaler(bed.loop, *bed.gateway, scaler_config,
                             rng_for(spec, 23));
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
  sim::PeriodicTimer load(bed.loop, sim::seconds(1), [&] {
    const double t = sim::to_seconds(bed.loop.now());
    const double noisy_rps = t < 50 ? 4000.0 : 46000.0;  // the surge
    for (auto* backend : bed.gateway->placement_of(noisy)) {
      backend->inject_load(
          noisy,
          noisy_rps / num(bed.gateway->placement_of(noisy).size()),
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

  runner::RunResult result;
  for (int t = 10; t <= 220; t += 10) {
    bed.loop.run_until(static_cast<sim::Duration>(t) * sim::kSecond);
    const auto now = bed.loop.now();
    std::string event = t == 50 ? "SURGE begins" : last_event;
    if (t > 50 && last_event == "baseline") event = "alert pending";
    const std::string row = "t" + std::to_string(t) + ".";
    result.set(row + "t_s", t);
    result.set(row + "noisy_rps", shared->stats_for(noisy).rps(now));
    result.set(row + "victim_rps", shared->stats_for(victim1).rps(now));
    result.set(row + "backend_cpu", shared->cpu_utilization(sim::seconds(5)));
    result.set(row + "victim_ms",
               victim_latency_ms.mean_in(now - sim::seconds(10), now));
    if (!event.empty()) result.note(row + "event", event);
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

  result.set("victim_errors", num(errors));
  result.set("scaling_events", num(scaler.events().size()));
  if (!scaler.events().empty()) {
    const auto& event = scaler.events().front();
    result.note("first_event",
                event.kind == core::ScaleKind::kReuse ? "Reuse" : "New");
    result.set("alert_to_finish_s",
               sim::to_seconds(event.finish_time - event.alert_time));
  }
  return result;
}

/// Fig 17 / Table 4: alert-to-finish time of Reuse (a cold existing
/// backend) vs New (a fresh VM) over an ensemble of 30 ramped surges, one
/// in three with no cold candidate. The trials share one seed stream.
inline runner::RunResult scaling_completion(const runner::RunSpec& spec) {
  sim::Histogram reuse_seconds;
  sim::Histogram new_seconds;
  sim::Rng rng = rng_for(spec, 501);

  for (int trial = 0; trial < 30; ++trial) {
    const bool force_new = trial % 3 == 2;
    sim::EventLoop loop;
    core::GatewayConfig config;
    config.backends_per_service_local = 2;
    core::MeshGateway gateway(loop, config, sim::Rng(rng.next()));
    gateway.add_az(force_new ? 2 : 6);

    k8s::Cluster cluster(loop, static_cast<net::TenantId>(1),
                         sim::Rng(rng.next()));
    cluster.add_node(static_cast<net::AzId>(0), 8);
    k8s::Service& service = cluster.add_service("svc");
    cluster.add_pod(service, k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
    core::CanalMesh mesh(loop, cluster, gateway, {}, sim::Rng(rng.next()));
    mesh.install();
    for (auto* backend : gateway.all_backends()) {
      backend->start_sampling(sim::seconds(1));
    }
    core::ScalerConfig scaler_config;
    scaler_config.reuse_delay_mean = sim::seconds(45);
    scaler_config.reuse_max_utilization =
        force_new ? 0.0 : 0.2;  // no cold candidates => New path
    core::PreciseScaler scaler(loop, gateway, scaler_config,
                               sim::Rng(rng.next()));
    scaler.start();

    // Ramp the load past the alert threshold.
    sim::PeriodicTimer load(loop, sim::seconds(1), [&] {
      const double t = sim::to_seconds(loop.now());
      const double rps = std::min(52000.0, 4000.0 + 350.0 * t);
      for (auto* backend : gateway.placement_of(service.id)) {
        backend->inject_load(
            service.id,
            rps / num(gateway.placement_of(service.id).size()),
            sim::seconds(1));
      }
    });
    load.start();
    loop.run_until(sim::minutes(35));
    load.stop();
    scaler.stop();
    for (auto* backend : gateway.all_backends()) backend->stop_sampling();

    for (const auto& event : scaler.events()) {
      const double secs =
          sim::to_seconds(event.finish_time - event.alert_time);
      if (event.kind == core::ScaleKind::kReuse) {
        reuse_seconds.record(secs);
      } else {
        new_seconds.record(secs);
      }
    }
  }

  runner::RunResult result;
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const std::string row = "p" + std::to_string(std::lround(p)) + ".";
    result.set(row + "reuse_s", reuse_seconds.percentile(p));
    result.set(row + "new_s", new_seconds.percentile(p));
  }
  result.set("reuse_events", num(reuse_seconds.count()));
  result.set("new_events", num(new_seconds.count()));
  return result;
}

/// Fig 18: daily Reuse/New occurrences over a month of diurnal load on one
/// AZ, with per-service demand drifting day to day.
inline runner::RunResult scaling_month(const runner::RunSpec& spec) {
  sim::EventLoop loop;
  core::GatewayConfig config;
  core::MeshGateway gateway(loop, config, rng_for(spec, 601));
  gateway.add_az(8);
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(1),
                       rng_for(spec, 607));
  cluster.add_node(static_cast<net::AzId>(0), 8);
  std::vector<k8s::Service*> services;
  for (int i = 0; i < 6; ++i) {
    k8s::Service& service = cluster.add_service("svc-" + std::to_string(i));
    cluster.add_pod(service, k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
    services.push_back(&service);
  }
  core::CanalMesh mesh(loop, cluster, gateway, {}, rng_for(spec, 613));
  mesh.install();
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::seconds(30));
  }
  core::ScalerConfig scaler_config;
  scaler_config.check_period = sim::seconds(30);
  core::PreciseScaler scaler(loop, gateway, scaler_config,
                             rng_for(spec, 617));
  scaler.start();

  sim::Rng day_rng = rng_for(spec, 619);
  std::vector<double> day_peaks(services.size(), 1.0);
  sim::PeriodicTimer load(loop, sim::seconds(30), [&] {
    const double t = sim::to_seconds(loop.now());
    const double day_phase =
        std::sin((std::fmod(t, 86400.0) / 86400.0 - 0.25) * 2 * 3.14159265);
    for (std::size_t i = 0; i < services.size(); ++i) {
      const double base = 10000.0 * day_peaks[i];
      const double rps = std::max(200.0, base * (1.0 + 0.9 * day_phase));
      const auto placement = gateway.placement_of(services[i]->id);
      for (auto* backend : placement) {
        backend->inject_load(services[i]->id, rps / num(placement.size()),
                             sim::seconds(30));
      }
    }
  });
  load.start();

  runner::RunResult result;
  std::size_t prev_reuse = 0, prev_new = 0;
  for (int day = 1; day <= 30; ++day) {
    // Daily demand drifts per service (weekly growth spurts trigger New).
    for (auto& peak : day_peaks) {
      peak *= std::max(0.85, day_rng.normal(1.04, 0.10));
    }
    loop.run_until(static_cast<sim::Duration>(day) * sim::hours(24));
    const std::string row = "day" + std::to_string(day) + ".";
    result.set(row + "day", day);
    result.set(row + "reuse", num(scaler.reuse_count() - prev_reuse));
    result.set(row + "new", num(scaler.new_count() - prev_new));
    prev_reuse = scaler.reuse_count();
    prev_new = scaler.new_count();
  }
  load.stop();
  scaler.stop();
  for (auto* backend : gateway.all_backends()) backend->stop_sampling();
  result.set("reuse_total", num(prev_reuse));
  result.set("new_total", num(prev_new));
  return result;
}

/// Fig 19: shuffle-sharded backend combinations of the top 12 services,
/// and the blast radius of losing every backend of service-1.
inline runner::RunResult shuffle_shard(const runner::RunSpec& spec) {
  core::ShuffleShardAssigner assigner(3, rng_for(spec, 701));
  std::vector<net::BackendId> pool;
  for (std::uint32_t i = 1; i <= 12; ++i) {
    pool.push_back(static_cast<net::BackendId>(i));
  }
  assigner.set_pool(pool);

  runner::RunResult result;
  constexpr int kTopServices = 12;
  for (int s = 1; s <= kTopServices; ++s) {
    const auto service = static_cast<net::ServiceId>(s);
    const auto combination = assigner.assign(service);
    std::string backends;
    for (const auto backend : *combination) {
      backends += backends.empty() ? "B" : ",B";
      backends += std::to_string(net::id_value(backend));
    }
    const std::string row = "service" + std::to_string(s) + ".";
    result.note(row + "backends", backends);
    result.set(row + "isolated", assigner.isolated(service) ? 1.0 : 0.0);
  }
  result.set("max_pairwise_overlap", num(assigner.max_pairwise_overlap()));

  // Kill every backend of service-1; count the other services that still
  // have at least one live backend.
  const auto& dead = *assigner.assignment_of(static_cast<net::ServiceId>(1));
  int survivors = 0;
  for (int s = 2; s <= kTopServices; ++s) {
    const auto& mine =
        *assigner.assignment_of(static_cast<net::ServiceId>(s));
    bool alive = false;
    for (const auto backend : mine) {
      if (std::find(dead.begin(), dead.end(), backend) == dead.end()) {
        alive = true;
      }
    }
    if (alive) ++survivors;
  }
  result.set("survivors", survivors);
  result.set("other_services", kTopServices - 1);
  return result;
}

/// Fig 20: RPS and error codes through a day of live operations (rolling
/// version update, service migration, lossless sandbox migration). A
/// fixed ~0.2% of requests are user-side errors (the paper: most error
/// codes originate from the user's own services).
inline runner::RunResult daily_ops(const runner::RunSpec& spec) {
  sim::EventLoop loop;
  core::GatewayConfig config;
  core::MeshGateway gateway(loop, config, rng_for(spec, 801));
  gateway.add_az(6);
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(1),
                       rng_for(spec, 809));
  cluster.add_node(static_cast<net::AzId>(0), 8);
  std::vector<k8s::Service*> services;
  for (int i = 0; i < 4; ++i) {
    k8s::Service& service = cluster.add_service("svc-" + std::to_string(i));
    cluster.add_pod(service, k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
    services.push_back(&service);
  }
  core::CanalMesh mesh(loop, cluster, gateway, {}, rng_for(spec, 811));
  mesh.install();
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::seconds(30));
  }
  core::ScalerConfig scaler_config;
  scaler_config.check_period = sim::seconds(30);
  core::PreciseScaler scaler(loop, gateway, scaler_config,
                             rng_for(spec, 821));
  scaler.start();
  core::MigrationController migrations(loop, gateway);

  sim::Rng err_rng = rng_for(spec, 823);
  sim::TimeSeries rps_series, error_series;
  sim::PeriodicTimer load(loop, sim::seconds(30), [&] {
    const double t = sim::to_seconds(loop.now());
    const double phase =
        std::sin((std::fmod(t, 86400.0) / 86400.0 - 0.25) * 2 * 3.14159265);
    double total_rps = 0;
    for (k8s::Service* service : services) {
      const double rps = std::max(300.0, 5000.0 * (1.0 + 0.8 * phase));
      total_rps += rps;
      const auto placement = gateway.placement_of(service->id);
      for (auto* backend : placement) {
        backend->inject_load(service->id, rps / num(placement.size()),
                             sim::seconds(30));
      }
    }
    const double errors =
        total_rps * std::max(0.0, err_rng.normal(0.002, 0.0004));
    rps_series.record(loop.now(), total_rps);
    error_series.record(loop.now(), errors);
  });
  load.start();

  struct Operation {
    double hour;
    const char* name;
    std::function<void()> run;
  };
  std::vector<Operation> operations = {
      {2.0, "version update (rolling, 4h)",
       [&] {
         // Rolling upgrade: drain and restore one replica at a time.
         for (auto* backend : gateway.all_backends()) {
           for (std::size_t r = 0; r < backend->replica_count(); ++r) {
             backend->drain_replica(backend->replica(r)->id());
             backend->replica(r)->recover();
           }
         }
       }},
      {10.0, "service migration (in-phase scatter)",
       [&] {
         core::GatewayBackend* source =
             gateway.placement_of(services[0]->id).front();
         for (auto* target : gateway.backends_in(source->az())) {
           if (target != source && !target->hosts(services[1]->id)) {
             gateway.extend_service(services[1]->id, *target);
             break;
           }
         }
       }},
      {14.0, "lossless sandbox migration",
       [&] {
         migrations.migrate_lossless(services[3]->id,
                                     static_cast<net::AzId>(0));
       }},
  };

  runner::RunResult result;
  std::size_t next_operation = 0;
  for (int hour = 1; hour <= 24; ++hour) {
    const std::string row = "hour" + std::to_string(hour) + ".";
    while (next_operation < operations.size() &&
           operations[next_operation].hour < hour) {
      operations[next_operation].run();
      result.note(row + "operation", operations[next_operation].name);
      ++next_operation;
    }
    loop.run_until(static_cast<sim::Duration>(hour) * sim::hours(1));
    const auto now = loop.now();
    const double rps = rps_series.mean_in(now - sim::hours(1), now);
    const double errors = error_series.mean_in(now - sim::hours(1), now);
    result.set(row + "hour", hour);
    result.set(row + "total_rps", rps);
    result.set(row + "error_rps", errors);
    result.set(row + "error_rate", rps > 0 ? errors / rps : 0.0);
  }
  load.stop();
  scaler.stop();
  for (auto* backend : gateway.all_backends()) backend->stop_sampling();
  result.set("scaling_events", num(scaler.events().size()));
  return result;
}

/// §6.3: three in-phase diurnal services pile up on one backend; one
/// pattern-monitor evaluation at the day-2 peak scatters the high-RPS ones
/// to complementary backends (HWHM selection), shaving the daily peak.
inline runner::RunResult inphase_scatter(const runner::RunSpec& spec) {
  sim::EventLoop loop;
  core::MeshGateway gateway(loop, core::GatewayConfig{}, rng_for(spec, 7001));
  gateway.add_az(8);
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(1),
                       rng_for(spec, 7003));
  cluster.add_node(static_cast<net::AzId>(0), 8);

  // Three in-phase "consumer" services on one backend + two off-phase
  // "batch" services elsewhere to give the HWHM selection real choices.
  std::vector<k8s::Service*> services;
  for (int i = 0; i < 5; ++i) {
    k8s::Service& service = cluster.add_service("svc-" + std::to_string(i));
    cluster.add_pod(service, k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
    services.push_back(&service);
  }
  core::CanalMesh mesh(loop, cluster, gateway, core::CanalMesh::Config{},
                       rng_for(spec, 7005));
  mesh.install();
  core::GatewayBackend* hot = gateway.placement_of(services[0]->id).front();
  gateway.extend_service(services[1]->id, *hot);
  gateway.extend_service(services[2]->id, *hot);
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::minutes(10));
  }

  const auto drive_hours = [&](int hours) {
    for (int h = 0; h < hours; ++h) {
      const int hour = static_cast<int>(sim::to_seconds(loop.now()) / 3600) %
                       24;
      const double consumer_phase =
          std::sin((hour - 6) / 24.0 * 2 * 3.14159265);  // midday peak
      const double batch_phase =
          std::sin((hour - 18) / 24.0 * 2 * 3.14159265);  // night peak
      for (int i = 0; i < 3; ++i) {
        const double rps =
            std::max(100.0, (6400.0 - i * 1200.0) *
                                (1.0 + 0.9 * consumer_phase));
        const auto placement = gateway.placement_of(services[i]->id);
        for (auto* backend : placement) {
          backend->inject_load(services[i]->id, rps / num(placement.size()),
                               sim::hours(1), 0.05, i == 0 ? 0.8 : 0.2);
        }
      }
      for (int i = 3; i < 5; ++i) {
        const double rps =
            std::max(100.0, 3000.0 * (1.0 + 0.8 * batch_phase));
        const auto placement = gateway.placement_of(services[i]->id);
        for (auto* backend : placement) {
          backend->inject_load(services[i]->id, rps / num(placement.size()),
                               sim::hours(1));
        }
      }
      loop.run_until(loop.now() + sim::hours(1));
    }
  };
  const auto hot_busy_core_seconds = [&] {
    double total = 0;
    for (std::size_t r = 0; r < hot->replica_count(); ++r) {
      total += hot->replica(r)->cpu().total_busy_core_seconds();
    }
    return total;
  };
  const auto peak_hourly_util = [&] {
    double peak = 0;
    for (int h = 0; h < 24; ++h) {
      const double before = hot_busy_core_seconds();
      drive_hours(1);
      const double cores =
          num(hot->replica_count() * gateway.config().replica_cores);
      peak = std::max(peak, (hot_busy_core_seconds() - before) /
                                (3600.0 * cores));
    }
    return peak;
  };

  // Day 1: in-phase pile-up; measure the source's hourly-peak utilization.
  const double peak_before = peak_hourly_util();
  core::TrafficPatternMonitor monitor(loop, gateway,
                                      core::PatternMonitorConfig{});
  drive_hours(13);  // to ~hour 37 (peak, 24h of history behind it)
  monitor.evaluate_now();
  drive_hours(11);  // finish day 2 while sources drain
  // Day 3: scattered layout.
  const double peak_after = peak_hourly_util();

  runner::RunResult result;
  result.set("peak_before", peak_before);
  result.set("peak_after", peak_after);
  int index = 0;
  for (const auto& migration : monitor.migrations()) {
    const std::string row = "migration" + std::to_string(++index) + ".";
    result.set(row + "service",
               num((net::id_value(migration.plan.service) & 0xFFFFFFFF) - 1));
    result.set(row + "from", num(net::id_value(migration.plan.source)));
    result.set(row + "to", num(net::id_value(migration.plan.target)));
    result.set(row + "weighted_rps", migration.plan.weighted_rps);
  }
  result.set("migrations", num(monitor.migrations().size()));
  return result;
}

/// Ablation A1: blast radius of losing service-0's backends under shuffle
/// sharding vs services striped onto fixed backend groups.
inline runner::RunResult ablation_shuffle_shard(const runner::RunSpec& spec) {
  constexpr int kServices = 60;
  constexpr std::uint32_t kBackends = 12;
  std::vector<net::BackendId> pool;
  for (std::uint32_t i = 1; i <= kBackends; ++i) {
    pool.push_back(static_cast<net::BackendId>(i));
  }
  core::ShuffleShardAssigner assigner(3, rng_for(spec, 901));
  assigner.set_pool(pool);
  std::map<int, std::vector<net::BackendId>> shuffled;
  for (int s = 0; s < kServices; ++s) {
    shuffled[s] = *assigner.assign(static_cast<net::ServiceId>(s + 1));
  }
  std::map<int, std::vector<net::BackendId>> fixed;
  for (int s = 0; s < kServices; ++s) {
    const std::uint32_t g = static_cast<std::uint32_t>(s) % (kBackends / 3);
    fixed[s] = {pool[g * 3], pool[g * 3 + 1], pool[g * 3 + 2]};
  }
  // Kill service 0's backends; count other services with no survivor.
  const auto fully_lost =
      [&](const std::map<int, std::vector<net::BackendId>>& assignment) {
        const auto& dead = assignment.at(0);
        int lost = 0;
        for (int s = 1; s < kServices; ++s) {
          bool survivor = false;
          for (const auto backend : assignment.at(s)) {
            if (std::find(dead.begin(), dead.end(), backend) == dead.end()) {
              survivor = true;
            }
          }
          if (!survivor) ++lost;
        }
        return lost;
      };
  runner::RunResult result;
  result.set("fixed.services_lost", fully_lost(fixed));
  result.set("fixed.other_services", kServices - 1);
  result.set("shuffle.services_lost", fully_lost(shuffled));
  result.set("shuffle.other_services", kServices - 1);
  return result;
}

/// Ablation A5: precise (RCA-sized) scaling vs blind single-step scaling
/// of every hosted service; time until the hot backend drops below 50%.
inline runner::RunResult ablation_scaling(const runner::RunSpec& spec) {
  const bool precise = spec.override_or("precise", 1) != 0;
  sim::EventLoop loop;
  core::GatewayConfig config;
  core::MeshGateway gateway(loop, config, rng_for(spec, 911));
  gateway.add_az(10);
  k8s::Cluster cluster(loop, static_cast<net::TenantId>(1),
                       rng_for(spec, 913));
  cluster.add_node(static_cast<net::AzId>(0), 8);
  k8s::Service& noisy = cluster.add_service("noisy");
  std::vector<k8s::Service*> quiet;
  for (int i = 0; i < 4; ++i) {
    quiet.push_back(&cluster.add_service("quiet-" + std::to_string(i)));
    cluster.add_pod(*quiet.back(), k8s::AppProfile{})
        .set_phase(k8s::PodPhase::kRunning);
  }
  cluster.add_pod(noisy, k8s::AppProfile{})
      .set_phase(k8s::PodPhase::kRunning);
  core::CanalMesh mesh(loop, cluster, gateway, {}, rng_for(spec, 917));
  mesh.install();
  core::GatewayBackend* hot = gateway.placement_of(noisy.id).front();
  for (k8s::Service* service : quiet) {
    gateway.extend_service(service->id, *hot);
  }
  for (auto* backend : gateway.all_backends()) {
    backend->start_sampling(sim::seconds(1));
  }
  core::ScalerConfig scaler_config;
  if (!precise) {
    // Blind scaling: no RCA sizing, one backend per alert, and it scales
    // every hosted service instead of the root cause.
    scaler_config.max_scale_out_per_event = 1;
    scaler_config.rca.correlation_threshold = -1.0;  // everything suspect
    scaler_config.rca.min_trend = -1e9;
    scaler_config.rca.top_k = 16;
  }
  core::PreciseScaler scaler(loop, gateway, scaler_config,
                             rng_for(spec, 919));
  scaler.start();
  sim::PeriodicTimer load(loop, sim::seconds(1), [&] {
    const auto placement = gateway.placement_of(noisy.id);
    for (auto* backend : placement) {
      backend->inject_load(noisy.id, 52000.0 / num(placement.size()),
                           sim::seconds(1));
    }
    for (k8s::Service* service : quiet) {
      hot->inject_load(service->id, 300.0, sim::seconds(1));
    }
  });
  load.start();
  sim::TimePoint recovered = -1;
  sim::PeriodicTimer watch(loop, sim::seconds(1), [&] {
    if (recovered < 0 && sim::to_seconds(loop.now()) > 20 &&
        hot->cpu_utilization(sim::seconds(5)) < 0.5) {
      recovered = loop.now();
    }
  });
  watch.start();
  loop.run_until(sim::minutes(10));
  load.stop();
  watch.stop();
  scaler.stop();
  for (auto* backend : gateway.all_backends()) backend->stop_sampling();

  runner::RunResult result;
  result.set("recovered", recovered < 0 ? 0.0 : 1.0);
  if (recovered >= 0) result.set("recovered_s", sim::to_seconds(recovered));
  result.set("scaling_ops", num(scaler.events().size()));
  return result;
}

// ---------------------------------------------------------------------------
// LB disaggregation: Fig 26 (session consistency), session aggregation,
// ablations A2 (chain length) and A6 (tunnel count).

namespace detail {

inline net::FiveTuple client_flow(std::uint32_t i) {
  return net::FiveTuple{
      net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                    static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i)),
      net::Ipv4Addr(100, 64, 0, 1), static_cast<std::uint16_t>(i * 7 + 1),
      443, net::Protocol::kTcp};
}

}  // namespace detail

/// Fig 26: 20k flows through a Beamer-style bucket table while replica 2
/// drains and replica 5 joins: established flows keep their replica, new
/// flows avoid the draining one.
inline runner::RunResult session_consistency(const runner::RunSpec&) {
  using detail::client_flow;
  constexpr std::uint32_t kFlows = 20000;
  lb::BucketTable table(1024, 4);
  std::vector<net::ReplicaId> replicas;
  for (std::uint32_t r = 1; r <= 4; ++r) {
    replicas.push_back(static_cast<net::ReplicaId>(r));
  }
  table.assign_round_robin(replicas);
  const lb::Redirector redirector(table);
  const auto no_state = [](net::ReplicaId, const net::FiveTuple&) {
    return false;
  };

  std::map<std::uint32_t, net::ReplicaId> owner;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    owner[i] = redirector.resolve(client_flow(i), true, no_state)->target;
  }
  table.prepare_offline(static_cast<net::ReplicaId>(2),
                        {static_cast<net::ReplicaId>(1),
                         static_cast<net::ReplicaId>(3),
                         static_cast<net::ReplicaId>(4)});
  table.add_replica(static_cast<net::ReplicaId>(5), 256);

  std::uint64_t consistent = 0;
  sim::Histogram redirections;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const auto decision = redirector.resolve(
        client_flow(i), false,
        [&](net::ReplicaId replica, const net::FiveTuple& tuple) {
          return owner[i] == replica && client_flow(i) == tuple;
        });
    if (decision && decision->target == owner[i]) ++consistent;
    if (decision) {
      redirections.record(static_cast<double>(decision->redirections));
    }
  }
  std::uint64_t new_on_leaving = 0;
  for (std::uint32_t i = kFlows; i < 2 * kFlows; ++i) {
    if (redirector.resolve(client_flow(i), true, no_state)->target ==
        static_cast<net::ReplicaId>(2)) {
      ++new_on_leaving;
    }
  }
  runner::RunResult result;
  result.set("established_kept", num(consistent) / kFlows);
  result.set("new_on_draining", num(new_on_leaving));
  result.set("mean_redirections", redirections.mean());
  result.set("p99_redirections", redirections.percentile(99));
  return result;
}

/// Session aggregation: 200k inner sessions tunneled to one replica over
/// 40 tunnels (10 per core of a 4-core replica).
inline runner::RunResult session_aggregation(const runner::RunSpec&) {
  lb::SessionAggregator::Config config;
  config.router_ip = net::Ipv4Addr(100, 64, 0, 1);
  config.tunnels_per_replica = 40;
  const lb::SessionAggregator aggregator(config);
  const net::Ipv4Addr replica(172, 16, 0, 1);
  lb::NicSessionCounter counter;
  std::map<std::uint16_t, std::uint64_t> per_tunnel;
  for (std::uint32_t i = 0; i < 200000; ++i) {
    const auto outer = aggregator.outer_tuple(detail::client_flow(i), replica);
    counter.observe(detail::client_flow(i), outer);
    ++per_tunnel[outer.src_port];
  }
  double max_share = 0;
  for (const auto& [port, count] : per_tunnel) {
    max_share = std::max(max_share, num(count) / 200000.0);
  }
  runner::RunResult result;
  result.set("inner_sessions", num(counter.inner_sessions()));
  result.set("tunnel_sessions", num(counter.tunnel_sessions()));
  result.set("reduction_x",
             num(counter.inner_sessions()) / num(counter.tunnel_sessions()));
  result.set("max_tunnel_share", max_share);
  return result;
}

/// Ablation A2: consecutive drain events a long-lived flow survives with
/// a bucket chain of the given length (Beamer's is 2).
inline runner::RunResult ablation_chain_length(const runner::RunSpec& spec) {
  const auto chain = static_cast<std::size_t>(spec.override_or("chain", 2));
  lb::BucketTable table(256, chain);
  std::vector<net::ReplicaId> replicas;
  for (std::uint32_t r = 1; r <= 10; ++r) {
    replicas.push_back(static_cast<net::ReplicaId>(r));
  }
  table.assign_round_robin({replicas[0]});
  // The flow's state stays on replica 1 while each drain prepends a head.
  const net::FiveTuple tuple{net::Ipv4Addr(10, 0, 0, 1),
                             net::Ipv4Addr(10, 0, 0, 2), 77, 443,
                             net::Protocol::kTcp};
  const lb::Redirector redirector(table);
  int survived = 0;
  net::ReplicaId current_head = replicas[0];
  for (std::uint32_t event = 1; event < 9; ++event) {
    table.prepare_offline(current_head, {replicas[event]});
    current_head = replicas[event];
    const auto decision = redirector.resolve(
        tuple, false, [&](net::ReplicaId r, const net::FiveTuple&) {
          return r == replicas[0];
        });
    if (!decision || decision->target != replicas[0]) break;
    ++survived;
  }
  runner::RunResult result;
  result.set("chain", num(chain));
  result.set("drains_survived", survived);
  return result;
}

/// Ablation A6: hash skew of 100k tunneled flows over a 4-core replica's
/// RSS cores, by tunnel count.
inline runner::RunResult ablation_tunnels(const runner::RunSpec& spec) {
  lb::SessionAggregator::Config config;
  config.router_ip = net::Ipv4Addr(100, 64, 0, 1);
  config.tunnels_per_replica =
      static_cast<std::uint32_t>(spec.override_or("tunnels", 4));
  const lb::SessionAggregator aggregator(config);
  net::VSwitch vswitch;
  std::map<std::size_t, std::uint64_t> per_core;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    net::Packet packet;
    packet.tuple = net::FiveTuple{
        net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                      static_cast<std::uint8_t>(i >> 8),
                      static_cast<std::uint8_t>(i)),
        net::Ipv4Addr(100, 64, 0, 1), static_cast<std::uint16_t>(i), 443,
        net::Protocol::kTcp};
    aggregator.encapsulate(packet, net::Ipv4Addr(172, 16, 0, 1));
    ++per_core[vswitch.core_for(packet, 4)];
  }
  double max_share = 0;
  for (const auto& [core, count] : per_core) {
    max_share = std::max(max_share, count / 100000.0);
  }
  runner::RunResult result;
  result.set("tunnels", config.tunnels_per_replica);
  result.set("max_core_share", max_share);
  result.note("balance", max_share < 0.35 ? "ok" : "skewed");
  return result;
}

// ---------------------------------------------------------------------------
// Appendix B deployment modes and §6.4 innocence probing.

/// Appendix B: proxyless vs on-node-proxy canal, 200 new-connection
/// requests each: latency, user CPU per request and the functional trade.
inline runner::RunResult proxyless_modes(const runner::RunSpec& spec) {
  core::Topology bed(topology_for(spec));
  mesh::MeshDataplane* plane = nullptr;
  std::unique_ptr<core::ProxylessMesh> proxyless;
  runner::RunResult result;
  if (spec.variant == "onnode") {
    plane = &bed.build_canal();
    result.note("observability", "L4 on-node + L7 gateway");
    result.note("auth", "workload certs (mTLS)");
  } else {
    bed.gateway = std::make_unique<core::MeshGateway>(
        bed.loop, core::GatewayConfig{}, rng_for(spec, 51));
    bed.gateway->add_az(2);
    core::ProxylessMesh::Config config;
    config.user_managed_certs = spec.override_or("user_certs", 0) != 0;
    config.eni.max_enis_per_node = 64;
    proxyless = std::make_unique<core::ProxylessMesh>(
        bed.loop, bed.cluster, *bed.gateway, config, rng_for(spec, 53));
    proxyless->install();
    plane = proxyless.get();
    result.note("observability", "gateway-side only (partial)");
    result.note("auth", "per-container ENI");
  }
  sim::Histogram latency;
  const double cpu_before = plane->user_cpu_core_seconds();
  int n = 0;
  for (int i = 0; i < 200; ++i) {
    bed.loop.post_at(i * sim::milliseconds(10), [&] {
      plane->send_request(request(bed, true), [&](mesh::RequestResult r) {
        if (r.ok()) {
          latency.record(sim::to_microseconds(r.latency));
          ++n;
        }
      });
    });
  }
  bed.loop.run();
  result.set("mean_us", latency.mean());
  result.set("user_cpu_us_per_req",
             (plane->user_cpu_core_seconds() - cpu_before) / n * 1e6);
  return result;
}

/// Appendix B keyless mode: new-connection request latency when the
/// private keys stay on a customer-premises signer.
inline runner::RunResult keyless_handshake(const runner::RunSpec& spec) {
  const auto one_way = static_cast<sim::Duration>(
      spec.override_or("one_way_us", 350) * 1e3);
  core::TopologySpec options = topology_for(spec);
  options.app_service_time = sim::microseconds(100);
  core::Topology bed(options);
  core::GatewayConfig gateway_config;
  gateway_config.replica_costs.crypto.key_server_one_way = one_way;
  bed.gateway = std::make_unique<core::MeshGateway>(bed.loop, gateway_config,
                                                    rng_for(spec, 61));
  bed.gateway->add_az(2);
  bed.key_server = std::make_unique<crypto::KeyServer>(
      bed.loop, static_cast<net::AzId>(0), 8, rng_for(spec, 63));
  core::CanalMesh::Config mesh_config;
  mesh_config.onnode.costs.crypto.key_server_one_way = one_way;
  bed.canal = std::make_unique<core::CanalMesh>(
      bed.loop, bed.cluster, *bed.gateway, mesh_config, rng_for(spec, 67));
  bed.canal->install();
  bed.canal->attach_key_server(static_cast<net::AzId>(0),
                               bed.key_server.get());
  sim::Histogram latency;
  for (int i = 0; i < 100; ++i) {
    bed.loop.post_at(i * sim::milliseconds(10), [&] {
      bed.canal->send_request(request(bed, true), [&](mesh::RequestResult r) {
        if (r.ok()) latency.record(sim::to_microseconds(r.latency));
      });
    });
  }
  bed.loop.run();
  runner::RunResult result;
  result.set("one_way_us", sim::to_microseconds(one_way));
  result.set("request_ms", latency.mean() / 1000.0);
  return result;
}

/// §6.4: full-mesh innocence probes across two AZs for two minutes;
/// per-destination success and mean latency.
inline runner::RunResult innocence_probing(const runner::RunSpec& spec) {
  core::TopologySpec options = topology_for(spec);
  options.app_service_time = sim::milliseconds(1);
  core::Topology bed(options);
  bed.gateway = std::make_unique<core::MeshGateway>(
      bed.loop, core::GatewayConfig{}, rng_for(spec, 71));
  bed.gateway->add_az(2);
  bed.gateway->add_az(2);
  bed.canal = std::make_unique<core::CanalMesh>(
      bed.loop, bed.cluster, *bed.gateway, core::CanalMesh::Config{},
      rng_for(spec, 73));
  bed.canal->install();
  bed.key_server = std::make_unique<crypto::KeyServer>(
      bed.loop, static_cast<net::AzId>(0), 8, rng_for(spec, 79));
  bed.canal->attach_key_server(static_cast<net::AzId>(0),
                               bed.key_server.get());
  bed.canal->attach_key_server(static_cast<net::AzId>(1),
                               bed.key_server.get());

  core::InnocenceProber::Config config;
  config.probe_interval = sim::seconds(5);
  core::InnocenceProber prober(bed.loop, *bed.canal, bed.cluster, config);
  prober.deploy({static_cast<net::AzId>(0), static_cast<net::AzId>(1)});
  prober.start();
  bed.loop.run_until(bed.loop.now() + sim::minutes(2));
  prober.stop();
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));

  runner::RunResult result;
  const auto& instances = prober.instances();
  for (std::size_t dst = 0; dst < instances.size(); ++dst) {
    std::uint64_t ok = 0, failed = 0;
    double latency_sum = 0;
    std::size_t cells = 0;
    for (std::size_t src = 0; src < instances.size(); ++src) {
      if (src == dst) continue;
      const auto it = prober.matrix().find({src, dst});
      if (it == prober.matrix().end()) continue;
      ok += it->second.ok;
      failed += it->second.failed;
      latency_sum += it->second.latency_us.mean();
      ++cells;
    }
    const std::string row =
        std::string(core::probe_protocol_name(instances[dst].protocol)) +
        ".az" + std::to_string(net::id_value(instances[dst].az)) + ".";
    result.set(row + "success", ok == 0 ? 0.0 : num(ok) / num(ok + failed));
    result.set(row + "mean_us", cells == 0 ? 0.0 : latency_sum / num(cells));
  }
  result.set("infra_innocent", prober.infra_innocent() ? 1.0 : 0.0);
  result.set("probe_pairs", num(prober.matrix().size()));
  return result;
}

// ---------------------------------------------------------------------------
// Health checks: Table 6 (probes vs app traffic), Table 7 (multi-level
// aggregation), ablation A3 (levels one at a time).

namespace detail {

/// The five production cases of Tables 6/7 as topologies whose
/// unaggregated probe volume matches the reported "Base" column. Shapes
/// are reverse-engineered from Table 7: few services with small app sets,
/// but backends with dozens of replica VMs and many cores each — the
/// multiplication that turns 21 app endpoints into >10k probes/s.
struct HealthCase {
  const char* name;
  double app_rps;  // user traffic for Table 6's ratio
  std::size_t services;
  std::size_t apps_per_service;
  std::size_t shared_apps;  // overlap between consecutive services
  std::size_t replicas;
  std::size_t cores;
};

inline const HealthCase& health_case(const runner::RunSpec& spec) {
  static const HealthCase cases[] = {
      {"Case1", 21.0, 3, 7, 2, 32, 16},
      {"Case2", 4221.0, 6, 20, 1, 32, 14},
      {"Case3", 385.0, 5, 10, 0, 32, 8},
      {"Case4", 496.0, 6, 17, 8, 18, 12},
      {"Case5", 9224.0, 4, 13, 1, 33, 11},
  };
  for (const auto& c : cases) {
    if (spec.variant == c.name) return c;
  }
  unknown_variant(spec);
}

/// Every service sits on the one shared backend 1, where the service-level
/// overlap merge applies.
inline core::HealthCheckLoad health_load(const HealthCase& c) {
  core::HealthCheckTopology topology;
  topology.replicas_per_backend = c.replicas;
  topology.cores_per_replica = c.cores;
  std::uint64_t next_pod = 1;
  std::vector<net::PodId> previous_apps;
  for (std::size_t s = 0; s < c.services; ++s) {
    core::HealthCheckTopology::Placement placement;
    placement.service = static_cast<net::ServiceId>(s + 1);
    // Overlap: reuse the tail of the previous service's app set.
    for (std::size_t k = 0; k < c.shared_apps && k < previous_apps.size();
         ++k) {
      placement.apps.push_back(
          previous_apps[previous_apps.size() - c.shared_apps + k]);
    }
    while (placement.apps.size() < c.apps_per_service) {
      placement.apps.push_back(static_cast<net::PodId>(next_pod++));
    }
    placement.backends = {static_cast<net::BackendId>(1)};
    previous_apps = placement.apps;
    topology.services.push_back(std::move(placement));
  }
  return core::compute_health_check_load(topology);
}

}  // namespace detail

/// Table 6: health-check probes vs app traffic before aggregation.
inline runner::RunResult health_check_load(const runner::RunSpec& spec) {
  const auto& c = detail::health_case(spec);
  const auto load = detail::health_load(c);
  runner::RunResult result;
  result.set("app_rps", c.app_rps);
  result.set("checks_rps", load.base);
  result.set("ratio_x", load.base / c.app_rps);
  return result;
}

/// Table 7: probes left after service-, core- and replica-level
/// aggregation.
inline runner::RunResult health_check_aggregation(
    const runner::RunSpec& spec) {
  const auto load = detail::health_load(detail::health_case(spec));
  runner::RunResult result;
  result.set("base", load.base);
  result.set("service_level", load.service_level);
  result.set("core_level", load.core_level);
  result.set("replica_level", load.replica_level);
  result.set("reduction", load.reduction());
  return result;
}

/// Ablation A3: Case1's shape with the aggregation levels enabled one at
/// a time.
inline runner::RunResult ablation_health_levels(const runner::RunSpec&) {
  core::HealthCheckTopology topology;
  topology.replicas_per_backend = 32;
  topology.cores_per_replica = 16;
  for (std::uint64_t s = 0; s < 3; ++s) {
    core::HealthCheckTopology::Placement placement;
    placement.service = static_cast<net::ServiceId>(s + 1);
    for (std::uint64_t a = 0; a < 7; ++a) {
      placement.apps.push_back(static_cast<net::PodId>(s * 5 + a + 1));
    }
    placement.backends = {static_cast<net::BackendId>(1)};
    topology.services.push_back(placement);
  }
  const auto load = core::compute_health_check_load(topology);
  runner::RunResult result;
  const auto row = [&](const std::string& level, double probes) {
    result.set(level + ".probes", probes);
    result.set(level + ".reduction", 1 - probes / load.base);
  };
  row("none", load.base);
  row("service", load.service_level);
  row("core", load.core_level);
  row("replica", load.replica_level);
  return result;
}

}  // namespace figures
}  // namespace canal::bench
