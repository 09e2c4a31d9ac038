// bench_suite: the one experiment front-end. Expands the family table's
// (family x variant x seed) grid into runner::RunSpecs, fans them out over
// a work-stealing thread pool (--jobs), and reduces the results
// single-threaded in spec-key order — so stdout tables and the --json
// goldens (one BENCH_*.json per golden named in the table) are
// byte-identical at any worker count.
//
// See EXPERIMENTS.md for the paper-figure -> family map.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/figures.h"
#include "bench/json_report.h"
#include "bench/scenarios.h"
#include "runner/runner.h"
#include "runner/sweep.h"
#include "telemetry/trace_export.h"

namespace canal::bench {
namespace {

struct Variant {
  std::string name;
  std::vector<std::pair<std::string, double>> overrides = {};
};

/// One scenario family: everything the front-end knows about it.
struct Family {
  const char* name;
  runner::RunResult (*run)(const runner::RunSpec&);
  /// Golden file the family's sections go to under --json.
  const char* golden;
  /// Section naming: "" = the variant name, "prefix." = prefix + variant
  /// name, anything else = that fixed name (single-variant families).
  const char* section;
  /// Metric summarized in the family's seed-sweep table.
  const char* headline;
  const char* help;
  std::vector<Variant> variants;
  /// False: the family runs once at seed 1 whatever --seeds says.
  bool sweeps_seeds;
};

using namespace scenarios;
using namespace figures;

/// The family table. Rows are in dispatch order, longest runs first, so
/// FIFO dispatch starts the critical path immediately.
const std::vector<Family> kFamilies = {
    {"region_scale", region_scale, "BENCH_region.json", "", "requests",
     "§6 region point: 1120 VMs, 1M RPS, sharded by --shards",
     {{"canal"}}, false},
    {"scaling_completion", scaling_completion, "BENCH_figures.json", "fig17",
     "p50.reuse_s", "Fig 17/Table 4: Reuse vs New scaling completion time",
     {{"ensemble"}}, true},
    // Seed 1 only: the month's compounding demand drift runs away at
    // other seeds (seed 2 passes 1.5 GB and 3 CPU-minutes unfinished).
    {"scaling_month", scaling_month, "BENCH_figures.json", "fig18",
     "reuse_total", "Fig 18: daily Reuse/New scaling events over a month",
     {{"diurnal"}}, false},
    {"selfperf", selfperf, "BENCH_selfperf.json", "", "events",
     "simulator events, allocations + fastpath hit rates",
     {{"canal"}, {"proxyless"}, {"ambient"}, {"istio"}, {"nomesh"}}, true},
    {"throughput_knee", throughput_knee, "BENCH_throughput.json", "",
     "knee_rps", "Fig 11: P99-vs-load sweep and throughput knee",
     {{"canal"}, {"ambient"}, {"istio"}}, true},
    {"noisy_neighbor", noisy_neighbor, "BENCH_fairness.json",
     "noisy_neighbor.", "jain",
     "tenant fairness + RCA under a surge (complements Fig 16)",
     {{"canal"}, {"ambient"}, {"istio"}}, true},
    {"config_churn_storm", config_churn_storm, "BENCH_controlplane.json",
     "churn.", "convergence_ms_max",
     "rolling config epochs through the modeled propagation layer",
     {{"canal"}, {"ambient"}, {"istio"}}, true},
    {"cert_rotation_wave", cert_rotation_wave, "BENCH_controlplane.json",
     "rotation.", "makespan_ms",
     "batched cert re-sign wave + distribution, under load",
     {{"canal"}, {"istio"}}, true},
    {"resilience_retry_storm", resilience_retry_storm,
     "BENCH_resilience.json", "retry_storm.", "victim_p99_fault_us",
     "dead service's retry storm vs circuit breaker",
     {{"breaker-off", {{"breaker", 0}}}, {"breaker-on", {{"breaker", 1}}}},
     true},
    {"resilience_qod", resilience_qod, "BENCH_resilience.json", "qod.",
     "late_error_rate", "query-of-death pod vs outlier ejection",
     {{"ejection-off", {{"ejection", 0}}}, {"ejection-on", {{"ejection", 1}}}},
     true},
    {"resilience_ratelimit", resilience_ratelimit, "BENCH_resilience.json",
     "ratelimit.", "rate_limited", "tenant surge vs per-tenant token buckets",
     {{"limit-off", {{"limit", 0}}}, {"limit-on", {{"limit", 1}}}}, true},
    {"faults_podkill", faults_podkill, "BENCH_faults.json", "podkill.",
     "ok_fault", "stale-endpoint pod crashes, retries on/off",
     {{"nomesh-retry", {{"retries", 1}}},
      {"istio", {{"retries", 0}}},
      {"istio-retry", {{"retries", 1}}},
      {"ambient", {{"retries", 0}}},
      {"ambient-retry", {{"retries", 1}}},
      {"canal", {{"retries", 0}}},
      {"canal-retry", {{"retries", 1}}}},
     true},
    {"faults_gwcrash", faults_gwcrash, "BENCH_faults.json", "gwcrash.",
     "ok_fault", "gateway replica crash, health monitor on/off",
     {{"monitor-off", {{"monitor", 0}, {"retries", 0}}},
      {"monitor-on", {{"monitor", 1}, {"retries", 0}}},
      {"monitor-on-retry", {{"monitor", 1}, {"retries", 1}}}},
     true},
    {"faults_linkloss", faults_linkloss, "BENCH_faults.json", "linkloss.",
     "ok_fault", "link loss + latency spike, per-try timeouts",
     {{"noretry", {{"retries", 0}}}, {"retry", {{"retries", 1}}}}, true},
    {"latency_bimodal", latency_bimodal, "BENCH_latency.json", "production",
     "p50_ms", "Fig 24: production-like E2E latency distribution",
     {{"canal"}}, true},
    {"latency_light", latency_light, "BENCH_latency.json", "", "mean_us",
     "Fig 10: light-load latency + span decomposition",
     {{"no-mesh"}, {"canal"}, {"ambient"}, {"istio"}}, true},
    {"ablation_incremental_push", ablation_incremental_push,
     "BENCH_figures.json", "a7.", "istio.saving_x",
     "Ablation A7: full vs incremental config push",
     {{"pods100", {{"pods", 100}}},
      {"pods400", {{"pods", 400}}},
      {"pods1600", {{"pods", 1600}}}},
     true},
    {"crypto_offload_cpu", crypto_offload_cpu, "BENCH_figures.json",
     "fig12.", "remote_saving",
     "Fig 12: on-node proxy CPU saving from crypto offload",
     {{"rps200", {{"rps", 200}}},
      {"rps400", {{"rps", 400}}},
      {"rps600", {{"rps", 600}}}},
     true},
    {"https_goodput", https_goodput, "BENCH_figures.json", "fig27.",
     "gain_x", "Fig 27: HTTPS short-flow goodput with crypto offload",
     {{"cores1", {{"cores", 1}}},
      {"cores2", {{"cores", 2}}},
      {"cores4", {{"cores", 4}}}},
     true},
    {"https_p90", https_p90, "BENCH_figures.json", "fig28.", "cut",
     "Fig 28: HTTPS short-flow P90 with crypto offload",
     {{"cores1", {{"cores", 1}}},
      {"cores2", {{"cores", 2}}},
      {"cores4", {{"cores", 4}}}},
     true},
    {"pod_config_time", pod_config_time, "BENCH_figures.json", "fig14.",
     "istio_over_canal", "Fig 14: config completion time creating pods",
     {{"new50", {{"new_pods", 50}}},
      {"new100", {{"new_pods", 100}}},
      {"new200", {{"new_pods", 200}}}},
     true},
    {"sidecar_util", sidecar_util, "BENCH_figures.json", "fig2",
     "util75.vs_idle_x", "Fig 2: sidecar CPU utilization vs E2E latency",
     {{"sweep"}}, true},
    {"mesh_cpu", mesh_cpu, "BENCH_figures.json", "fig13",
     "istio_over_canal_min", "Fig 5/13: mesh CPU cores vs workload",
     {{"sweep"}}, true},
    {"asym_crypto_time", asym_crypto_time, "BENCH_figures.json", "fig23.",
     "remote_ms", "Fig 23: asymmetric-op completion time by offload mode",
     {{"rps100", {{"rps", 100}}},
      {"rps500", {{"rps", 500}}},
      {"rps2000", {{"rps", 2000}}}},
     true},
    {"session_aggregation", session_aggregation, "BENCH_figures.json",
     "session_aggregation", "reduction_x",
     "§4.4: NIC sessions and core balance under session aggregation",
     {{"40-tunnels"}}, false},
    {"session_consistency", session_consistency, "BENCH_figures.json",
     "fig26", "established_kept",
     "Fig 26: session consistency through replica changes",
     {{"scale-in-out"}}, false},
    {"ablation_tunnels", ablation_tunnels, "BENCH_figures.json", "a6.",
     "max_core_share", "Ablation A6: tunnels per replica vs core balance",
     {{"t4", {{"tunnels", 4}}},
      {"t8", {{"tunnels", 8}}},
      {"t40", {{"tunnels", 40}}},
      {"t160", {{"tunnels", 160}}}},
     false},
    {"proxyless_modes", proxyless_modes, "BENCH_figures.json",
     "appb_proxyless.", "mean_us",
     "Appendix B: proxyless vs on-node-proxy canal",
     {{"onnode"},
      {"proxyless-user-certs", {{"user_certs", 1}}},
      {"proxyless-gateway-tls", {{"user_certs", 0}}}},
     true},
    {"keyless_handshake", keyless_handshake, "BENCH_figures.json",
     "appb_keyless.", "request_ms",
     "Appendix B: keyless-mode new-connection request time",
     {{"in-az", {{"one_way_us", 350}}},
      {"idc-same-region", {{"one_way_us", 2000}}},
      {"idc-cross-region", {{"one_way_us", 15000}}}},
     true},
    {"innocence_probing", innocence_probing, "BENCH_figures.json",
     "innocence", "infra_innocent",
     "§6.4: innocence probing, per-destination health", {{"2az"}}, true},
    {"isolation_timeline", isolation_timeline, "BENCH_figures.json", "fig16",
     "alert_to_finish_s",
     "Fig 16: noisy-neighbor isolation timeline with precise scaling",
     {{"canal"}}, true},
    {"daily_ops", daily_ops, "BENCH_figures.json", "fig20", "scaling_events",
     "Fig 20: RPS and error codes through a day of operations",
     {{"day"}}, true},
    {"ablation_scaling", ablation_scaling, "BENCH_figures.json", "a5.",
     "scaling_ops", "Ablation A5: precise (RCA-sized) vs blind scaling",
     {{"precise", {{"precise", 1}}}, {"blind", {{"precise", 0}}}}, true},
    {"inphase_scatter", inphase_scatter, "BENCH_figures.json", "inphase",
     "peak_after", "§6.3: in-phase service scatter, source daily peak",
     {{"diurnal"}}, true},
    {"routing_update_bytes", routing_update_bytes, "BENCH_figures.json",
     "fig15", "istio.vs_canal",
     "Fig 15: southbound bytes for a routing-policy update", {{"all"}}, true},
    {"controller_push", controller_push, "BENCH_figures.json", "fig4.",
     "total_ms", "Fig 4: controller CPU and push time vs cluster size",
     {{"pods1000", {{"pods", 1000}}},
      {"pods2000", {{"pods", 2000}}},
      {"pods4000", {{"pods", 4000}}},
      {"pods8000", {{"pods", 8000}}}},
     false},
    {"nagle_ctx_switch", nagle_ctx_switch, "BENCH_figures.json", "fig22",
     "raw_over_nagle_x", "Fig 21/22: context switches for 16 B writes",
     {{"16b-at-4krps"}}, false},
    {"ebpf_redirect", ebpf_redirect, "BENCH_figures.json", "fig29.",
     "throughput_gain_x",
     "Fig 29/30: eBPF vs iptables redirection by packet size",
     {{"b64", {{"bytes", 64}}},
      {"b500", {{"bytes", 500}}},
      {"b1500", {{"bytes", 1500}}},
      {"b4096", {{"bytes", 4096}}},
      {"b16384", {{"bytes", 16384}}}},
     false},
    {"ablation_nagle", ablation_nagle, "BENCH_figures.json", "a4.",
     "cpu_saved", "Ablation A4: Nagle aggregation for small eBPF writes",
     {{"b16", {{"bytes", 16}}},
      {"b64", {{"bytes", 64}}},
      {"b256", {{"bytes", 256}}},
      {"b1024", {{"bytes", 1024}}}},
     false},
    {"avx_batching", avx_batching, "BENCH_figures.json", "fig25.",
     "mean_handshake_us",
     "Fig 25: AVX-512 batching vs concurrent new connections",
     {{"c1", {{"concurrent", 1}}},
      {"c2", {{"concurrent", 2}}},
      {"c4", {{"concurrent", 4}}},
      {"c7", {{"concurrent", 7}}},
      {"c8", {{"concurrent", 8}}},
      {"c16", {{"concurrent", 16}}},
      {"c32", {{"concurrent", 32}}}},
     false},
    {"shuffle_shard", shuffle_shard, "BENCH_figures.json", "fig19",
     "survivors", "Fig 19: shuffle-sharded backend combinations",
     {{"top12"}}, true},
    {"ablation_shuffle_shard", ablation_shuffle_shard, "BENCH_figures.json",
     "a1", "shuffle.services_lost",
     "Ablation A1: shuffle sharding vs fixed groups", {{"60-services"}},
     true},
    {"ablation_chain_length", ablation_chain_length, "BENCH_figures.json",
     "a2.", "drains_survived",
     "Ablation A2: bucket chain length vs drains survived",
     {{"chain2", {{"chain", 2}}},
      {"chain4", {{"chain", 4}}},
      {"chain8", {{"chain", 8}}}},
     false},
    {"health_check_load", health_check_load, "BENCH_figures.json", "table6.",
     "ratio_x", "Table 6: health-check probes vs app traffic",
     {{"Case1"}, {"Case2"}, {"Case3"}, {"Case4"}, {"Case5"}}, false},
    {"health_check_aggregation", health_check_aggregation,
     "BENCH_figures.json", "table7.", "reduction",
     "Table 7: multi-level health-check aggregation",
     {{"Case1"}, {"Case2"}, {"Case3"}, {"Case4"}, {"Case5"}}, false},
    {"ablation_health_levels", ablation_health_levels, "BENCH_figures.json",
     "a3", "replica.reduction",
     "Ablation A3: health-check aggregation levels one at a time",
     {{"case1-shape"}}, false},
    {"deployment_cost", deployment_cost, "BENCH_figures.json", "table5.",
     "combined_saving", "Table 5: cost cut by redirector and tunneling",
     {{"Region1"}, {"Region2"}, {"Region3"}, {"Region4"}}, false},
    {"sidecar_footprint", sidecar_footprint, "BENCH_figures.json", "table1",
     "pods15000.cpu_share", "Table 1: Istio sidecar resource usage",
     {{"clusters"}}, true},
    {"config_update_rate", config_update_rate, "BENCH_figures.json",
     "table2", "pods900.updates_per_min",
     "Table 2: config update frequency by cluster size", {{"clusters"}},
     true},
    {"l7_adoption", l7_adoption, "BENCH_figures.json", "table3.", "l7",
     "Table 3: share of users enabling L7 features",
     {{"Region1"}, {"Region2"}, {"Region3"}, {"Region4"}, {"Region5"}},
     true},
    {"sidecar_growth", sidecar_growth, "BENCH_figures.json", "fig3",
     "growth_x", "Fig 3: sidecar count growth of a major customer",
     {{"quarterly"}}, true},
};

const Family& family_of(const std::string& scenario) {
  for (const Family& family : kFamilies) {
    if (scenario == family.name) return family;
  }
  std::fprintf(stderr, "no family named %s\n", scenario.c_str());
  std::abort();
}

std::string section_of(const runner::RunSpec& spec) {
  const std::string_view section = family_of(spec.scenario).section;
  if (section.empty()) return spec.variant;
  if (section.back() == '.') return std::string(section) + spec.variant;
  return std::string(section);
}

std::string usage() {
  std::string goldens;
  for (const Family& family : kFamilies) {
    if (goldens.find(family.golden) == std::string::npos) {
      goldens += std::string("\n                 ") + family.golden;
    }
  }
  std::string text = R"(bench_suite — parallel experiment suite

Usage: bench_suite [flags]

  --jobs N       worker threads for the run fan-out (default 1). N <= 0
                 selects hardware_concurrency(). Output is byte-identical
                 for every N; only wall-clock changes.
  --shards N     region_scale only: partitions hosting the region's AZ
                 domains, each with its own event loop and worker thread
                 (default 1). N <= 0 selects hardware_concurrency().
                 Output is byte-identical for every N; only wall-clock
                 (and the "wall." JSON keys) changes.
  --seeds K      run every seed-sweeping family at seeds 1..K (default 1).
                 K > 1 adds a "<section>.seeds" block per scenario to
                 --json output with mean/p50/p95/min/max across seeds.
                 Base sections always report seed 1, so they are
                 independent of K.
  --json         write the goldens (deterministic simulated values plus
                 machine-dependent "wall." keys) into the current
                 directory:)" + goldens + R"(
  --filter STR   run only specs whose scenario/variant key contains STR
                 (e.g. --filter throughput_knee, --filter canal).
  --trace-out F  write the noisy_neighbor/canal run's sampled traces as
                 Chrome trace-event JSON (chrome://tracing) to F. The
                 export is validated (slice tiling, parseability) first.
  --validate-trace F
                 validate an existing Chrome trace-event JSON file and
                 exit (0 = valid).
  --list         print the spec keys that would run, then exit.
  --help         this text.

Scenario families (see EXPERIMENTS.md for the figure mapping):
)";
  for (const Family& family : kFamilies) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-26s %s\n", family.name,
                  family.help);
    text += line;
  }
  return text;
}

/// The suite grid for seeds 1..K: one RunSpec per (family, variant, seed)
/// in table order.
std::vector<runner::RunSpec> suite_specs(std::uint64_t seeds) {
  std::vector<runner::RunSpec> specs;
  for (const Family& family : kFamilies) {
    for (const Variant& variant : family.variants) {
      const std::uint64_t last = family.sweeps_seeds ? seeds : 1;
      for (std::uint64_t seed = 1; seed <= last; ++seed) {
        specs.push_back(runner::RunSpec{family.name, variant.name, seed,
                                        variant.overrides});
      }
    }
  }
  return specs;
}

void print_family_tables(const std::vector<runner::SweepGroup>& groups) {
  // Family order follows the reduced (key-sorted) group order.
  std::vector<std::string> families;
  for (const auto& group : groups) {
    const std::string& scenario = group.runs.front()->spec.scenario;
    if (families.empty() || families.back() != scenario) {
      families.push_back(scenario);
    }
  }
  for (const std::string& family : families) {
    const runner::SweepGroup* first = nullptr;
    // Columns are the union of the family's metric names in first-seen
    // order — variants may report extra components (e.g. canal's redirect
    // span), and every row must stay aligned to the header.
    std::vector<std::string> columns;
    for (const auto& group : groups) {
      if (group.runs.front()->spec.scenario != family ||
          group.base() == nullptr) {
        continue;
      }
      if (first == nullptr) first = &group;
      for (const auto& [name, value] : group.base()->result.metrics) {
        (void)value;
        bool seen = false;
        for (const auto& column : columns) seen = seen || column == name;
        if (!seen) columns.push_back(name);
      }
    }
    if (first == nullptr) continue;

    if (family_of(family).variants.size() == 1) {
      // One variant (a timeline, a sweep on one world) can carry dozens
      // of row-prefixed metrics: print them one per line.
      Table table(family + "/" + first->runs.front()->spec.variant +
                  ", seeds " + std::to_string(first->runs.size()));
      table.header({"metric", "value"});
      for (const auto& [name, value] : first->base()->result.metrics) {
        table.row({name, JsonReport::format_number(value)});
      }
      table.print();
    } else {
      Table table(family);
      std::vector<std::string> header = {"variant", "seeds"};
      header.insert(header.end(), columns.begin(), columns.end());
      table.header(header);
      for (const auto& group : groups) {
        if (group.runs.front()->spec.scenario != family) continue;
        const runner::Outcome* base = group.base();
        std::vector<std::string> row = {group.runs.front()->spec.variant,
                                        std::to_string(group.runs.size())};
        if (base == nullptr) {
          row.push_back("FAILED: " + group.runs.front()->result.error);
        } else {
          for (const auto& column : columns) {
            const double* value = base->result.find(column);
            row.push_back(value == nullptr
                              ? ""
                              : JsonReport::format_number(*value));
          }
        }
        table.row(row);
      }
      table.print();
    }

    // Seed-sweep whiskers for the family's headline metric.
    if (first->runs.size() > 1) {
      const std::string metric = family_of(family).headline;
      Table sweep(family + " seed sweep: " + metric);
      sweep.header({"variant", "mean", "p50", "p95", "min", "max"});
      for (const auto& group : groups) {
        if (group.runs.front()->spec.scenario != family) continue;
        for (const auto& [name, stats] : group.metrics) {
          if (name != metric) continue;
          sweep.row({group.runs.front()->spec.variant,
                     JsonReport::format_number(stats.mean),
                     JsonReport::format_number(stats.p50),
                     JsonReport::format_number(stats.p95),
                     JsonReport::format_number(stats.min),
                     JsonReport::format_number(stats.max)});
        }
      }
      sweep.print();
    }

    // Per-variant notes (sweep traces, timeline events, labels).
    for (const auto& group : groups) {
      if (group.runs.front()->spec.scenario != family) continue;
      const runner::Outcome* base = group.base();
      if (base == nullptr) continue;
      for (const auto& [key, value] : base->result.notes) {
        std::printf("  %s %s: %s\n",
                    group.runs.front()->spec.variant.c_str(), key.c_str(),
                    value.c_str());
      }
    }
  }
}

/// Folds the reduced groups into the per-file JSON reports. Pure function
/// of the (key-ordered) groups, so it never depends on --jobs.
std::map<std::string, JsonReport> build_reports(
    const std::vector<runner::SweepGroup>& groups) {
  std::map<std::string, JsonReport> reports;
  for (const auto& group : groups) {
    const runner::RunSpec& spec = group.runs.front()->spec;
    const std::string section = section_of(spec);
    JsonReport& report = reports[family_of(spec.scenario).golden];
    const runner::Outcome* base = group.base();
    if (base == nullptr) {
      report.set(section, "failed", 1.0);
      report.set(section, "error",
                 group.runs.front()->result.error);
      continue;
    }
    report.add_metrics(section, base->result.metrics);
    // Scenarios that attach a per-run MetricsRegistry (noisy_neighbor) get
    // a ".merged" section: the per-seed registries folded with
    // runner::merge_group_registries (counters add, histograms merge
    // exactly) and re-summarized as one fairness report — the cross-seed
    // aggregate a fleet-wide collector would compute.
    if (group.runs.size() > 1 && base->result.registry != nullptr) {
      const telemetry::MetricsRegistry merged =
          runner::merge_group_registries(group);
      const auto fairness = telemetry::FairnessReport::from_registry(merged);
      if (!fairness.tenants.empty()) {
        const std::string merged_section = section + ".merged";
        for (const auto& tenant : fairness.tenants) {
          const std::string prefix =
              "t" + std::to_string(net::id_value(tenant.tenant)) + ".";
          report.set(merged_section, prefix + "requests",
                     static_cast<double>(tenant.requests));
          report.set(merged_section, prefix + "share", tenant.share);
          report.set(merged_section, prefix + "error_rate",
                     tenant.error_rate);
        }
        report.set(merged_section, "jain", fairness.jain_index);
      }
    }
    if (group.runs.size() > 1) {
      const std::string sweep_section = section + ".seeds";
      report.set(sweep_section, "seeds",
                 static_cast<double>(group.runs.size()));
      std::size_t failed = 0;
      for (const runner::Outcome* run : group.runs) {
        if (!run->result.ok) ++failed;
      }
      if (failed > 0) {
        report.set(sweep_section, "failed_seeds",
                   static_cast<double>(failed));
      }
      for (const auto& [name, stats] : group.metrics) {
        report.set(sweep_section, name + ".mean", stats.mean);
        report.set(sweep_section, name + ".p50", stats.p50);
        report.set(sweep_section, name + ".p95", stats.p95);
        report.set(sweep_section, name + ".min", stats.min);
        report.set(sweep_section, name + ".max", stats.max);
      }
    }
  }
  return reports;
}

int run_suite(int argc, char** argv) {
  std::size_t jobs = 1;
  std::size_t shards = 0;  // 0 = flag absent, scenario default applies
  std::uint64_t seeds = 1;
  bool json = false;
  bool list = false;
  std::string filter;
  std::string trace_out;
  std::string validate_trace;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", arg.c_str(),
                     usage().c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict integer parse: trailing junk or an empty value is a usage
    // error (exit 2), never a silently-degenerate pool size.
    const auto parse_int = [&](const char* value) -> long long {
      char* end = nullptr;
      const long long parsed = std::strtoll(value, &end, 10);
      if (end == value || *end != '\0') {
        std::fprintf(stderr, "%s: not an integer: %s\n%s", arg.c_str(),
                     value, usage().c_str());
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "--jobs") {
      const long long parsed = parse_int(next_value());
      if (parsed <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw == 0 ? 1 : hw;
        std::fprintf(stderr,
                     "--jobs %lld: clamping to hardware_concurrency() = "
                     "%zu\n",
                     parsed, jobs);
      } else {
        jobs = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--shards") {
      // Same validation contract as --jobs: strict integer (exit 2 on
      // junk), N <= 0 clamps to hardware_concurrency with a stderr note.
      const long long parsed = parse_int(next_value());
      if (parsed <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        shards = hw == 0 ? 1 : hw;
        std::fprintf(stderr,
                     "--shards %lld: clamping to hardware_concurrency() = "
                     "%zu\n",
                     parsed, shards);
      } else {
        shards = static_cast<std::size_t>(parsed);
      }
    } else if (arg == "--seeds") {
      const long long parsed = parse_int(next_value());
      seeds = parsed <= 0 ? 1 : static_cast<std::uint64_t>(parsed);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--filter") {
      filter = next_value();
    } else if (arg == "--trace-out") {
      trace_out = next_value();
    } else if (arg == "--validate-trace") {
      validate_trace = next_value();
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg.c_str(),
                   usage().c_str());
      return 2;
    }
  }
  if (!validate_trace.empty()) {
    std::ifstream in(validate_trace);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", validate_trace.c_str());
      return 2;
    }
    std::ostringstream body;
    body << in.rdbuf();
    std::string error;
    if (!telemetry::validate_chrome_trace(body.str(), &error)) {
      std::fprintf(stderr, "%s: invalid trace: %s\n",
                   validate_trace.c_str(), error.c_str());
      return 1;
    }
    std::printf("%s: valid Chrome trace-event JSON\n",
                validate_trace.c_str());
    return 0;
  }

  runner::Runner runner;
  for (const Family& family : kFamilies) {
    runner.register_scenario(family.name, family.run);
  }
  std::vector<runner::RunSpec> specs = suite_specs(seeds);
  if (shards > 0) {
    // Shard-count only shapes wall-clock, and only region_scale hosts a
    // sharded simulation; everything else ignores the flag.
    for (auto& spec : specs) {
      if (spec.scenario == "region_scale") {
        spec.overrides.emplace_back("shards",
                                    static_cast<double>(shards));
      }
    }
  }
  if (!filter.empty()) {
    std::vector<runner::RunSpec> kept;
    for (auto& spec : specs) {
      if (spec.group_key().find(filter) != std::string::npos) {
        kept.push_back(std::move(spec));
      }
    }
    specs = std::move(kept);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no specs match --filter %s\n", filter.c_str());
    return 2;
  }
  if (list) {
    for (const auto& spec : specs) std::printf("%s\n", spec.key().c_str());
    return 0;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<runner::Outcome> outcomes = runner.run(std::move(specs),
                                                           jobs);
  const double total_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start).count();

  const std::vector<runner::SweepGroup> groups =
      runner::group_sweeps(outcomes);
  print_family_tables(groups);

  std::size_t failed = 0;
  for (const auto& outcome : outcomes) {
    if (!outcome.result.ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", outcome.spec.key().c_str(),
                   outcome.result.error.c_str());
    }
  }

  if (!trace_out.empty()) {
    // Export the canal variant's sampled traces when present (the default
    // grid's noisy_neighbor/canal, lowest seed); otherwise the first group
    // in key order that attached any.
    const telemetry::TraceExport* traces = nullptr;
    for (const bool prefer_canal : {true, false}) {
      for (const auto& group : groups) {
        const runner::Outcome* base = group.base();
        if (base == nullptr || base->result.traces == nullptr ||
            base->result.traces->empty()) {
          continue;
        }
        if (prefer_canal && base->spec.variant != "canal") continue;
        traces = base->result.traces.get();
        break;
      }
      if (traces != nullptr) break;
    }
    if (traces == nullptr) {
      std::fprintf(stderr,
                   "--trace-out: no run produced sampled traces (need a "
                   "noisy_neighbor spec in the grid)\n");
      return 1;
    }
    std::string error;
    if (!telemetry::validate_chrome_trace(traces->to_json(), &error)) {
      std::fprintf(stderr, "trace export failed validation: %s\n",
                   error.c_str());
      return 1;
    }
    if (!traces->write_file(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  -> %s (%zu sampled traces)\n", trace_out.c_str(),
                traces->size());
  }

  if (json) {
    for (const auto& [file, report] : build_reports(groups)) {
      if (report.write_file(file)) {
        std::printf("  -> %s\n", file.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", file.c_str());
        return 1;
      }
    }
  }

  double run_sum_ms = 0;
  double run_max_ms = 0;
  for (const auto& outcome : outcomes) {
    run_sum_ms += outcome.wall_ms;
    if (outcome.wall_ms > run_max_ms) run_max_ms = outcome.wall_ms;
  }
  std::printf(
      "\nsuite: %zu runs, %zu jobs | wall %.0f ms | serial-equivalent "
      "%.0f ms | longest run %.0f ms\n",
      outcomes.size(), jobs, total_wall_ms, run_sum_ms, run_max_ms);
  if (failed > 0) {
    std::fprintf(stderr, "%zu run(s) failed\n", failed);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace canal::bench

int main(int argc, char** argv) {
  return canal::bench::run_suite(argc, argv);
}
