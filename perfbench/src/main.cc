// perfbench: the simulator's host-cost benchmark.
//
//   perfbench --workload canal_steady|plane_churn|region_sharded
//             --seed N --seconds S --trace 0|1
//             [--shards K] [--expect NAME=VALUE]... [--out-dir DIR]
//
// Repeats the workload (fresh world each time) for about S seconds and
// reports medians over the repeats. --trace 0 reports the end-to-end
// metrics of untraced repeats. --trace 1 runs untraced repeats for half
// the budget, then one traced repeat, and reports the per-layer metrics,
// the tracing overhead and a Chrome trace-event file of the spans.
//
// Correctness: every repeat must reproduce the first repeat's simulated
// outputs exactly, every generated request must complete exactly once,
// and each --expect'ed output must equal the given value as the golden
// JSON files print it. On any failure the failed repeat's requests count
// as failed, "correct" is false and the exit code is 1.
//
// Host-speed scaling: a fixed kernel of the benchmark's own (probe.h) runs
// on the main thread before and after every repeat. The host times of a
// repeat that ran entirely on that thread (all of them unless --shards
// puts region_sharded on a thread pool) are multiplied by SpeedProbe::kNominalMs over the mean
// of the two probe times, so they read as if the host ran at the probe's
// nominal speed. The unscaled medians and the probe times are printed and
// kept in the result as well.
//
// The last line of stdout is one JSON object with the results.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.h"
#include "spans.h"
#include "telemetry/trace_export.h"
#include "workloads.h"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t shards = 1;
  std::vector<std::pair<std::string, std::string>> expect;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "canal_steady|plane_churn|region_sharded --seed N --seconds S "
               "--trace 0|1 [--shards K] [--expect NAME=VALUE]... "
               "[--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end == nullptr || *end != '\0' || s[0] == '-') {
    usage(std::string("bad value for ") + flag + ": " + s);
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_uint(v, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(v, "--seconds"));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--shards") {
      a.shards = parse_uint(v, "--shards");
      if (a.shards == 0) usage("--shards must be >= 1");
    } else if (flag == "--expect") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) usage("--expect takes NAME=VALUE");
      a.expect.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "canal_steady" && a.workload != "plane_churn" &&
      a.workload != "region_sharded") {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

Repeat run_once(const Args& a, Tracer* tracer) {
  if (a.workload == "canal_steady") return run_canal_steady(a.seed, tracer);
  if (a.workload == "plane_churn") return run_plane_churn(a.seed, tracer);
  return run_region_sharded(a.seed, a.shards, tracer);
}

/// A value as bench/json_report.h prints it into the golden files.
std::string golden_format(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_us_per_req(const Repeat& r) {
  const std::uint64_t done = r.ok + r.failed;
  return done == 0 ? 0.0 : r.drain_cpu_s * 1e6 / static_cast<double>(done);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  double value;
  const char* unit;
};

/// Per-layer metrics with their units; BENCHMARK.json lists the same set.
/// A layer a workload never reaches reports 0.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"sim.events_per_req", "count"},
      {"sim.cpu_jobs_per_req", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.allocs_per_req", "count"},
      {"sim.util_query_ns", "ns"},
      {"shard.rounds", "count"},
      {"shard.messages", "count"},
      {"shard.busy_ms_sum", "ms"},
      {"shard.busy_ms_max", "ms"},
      {"shard.barrier_wait_frac", "fraction"},
      {"canal.gw_fastpath_hit_rate", "fraction"},
      {"canal.resolve_ns", "ns"},
      {"proxy.fastpath_hit_rate", "fraction"},
      {"proxy.handshakes_per_req", "count"},
      {"proxy.sessions_peak", "count"},
      {"http.parse_ns", "ns"},
      {"lb.redirect_ns", "ns"},
      {"crypto.sign_requests_per_req", "count"},
      {"k8s.build_ms", "ms"},
      {"k8s.push_epoch_us", "us"},
      {"k8s.superseded_frac", "fraction"},
      {"mesh.install_ms.canal", "ms"},
      {"mesh.install_ms.ambient", "ms"},
      {"mesh.install_ms.istio", "ms"},
      {"mesh.drain_cpu_share.canal", "fraction"},
      {"mesh.drain_cpu_share.ambient", "fraction"},
      {"mesh.drain_cpu_share.istio", "fraction"},
      {"telemetry.record_ns", "ns"},
      {"trace.send_us_per_req", "us"},
      {"trace.complete_us_per_req", "us"},
      {"trace.loop_self_us_per_req", "us"},
      {"trace.overhead_cpu_us_per_req", "us"},
  };
  return units;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);

  std::vector<std::string> errors;
  std::vector<Repeat> repeats;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  // Checks one repeat against the run's invariants; returns false (and
  // records why) when it fails.
  const auto check = [&](const Repeat& r, std::size_t index) {
    bool ok = true;
    const auto fail = [&](const std::string& why) {
      errors.push_back("repeat " + std::to_string(index) + ": " + why);
      ok = false;
    };
    if (r.ok + r.failed != r.issued || r.duplicate != 0 || r.missing != 0) {
      fail("completion ledger: issued " + std::to_string(r.issued) + ", ok " +
           std::to_string(r.ok) + ", failed " + std::to_string(r.failed) +
           ", duplicate " + std::to_string(r.duplicate) + ", missing " +
           std::to_string(r.missing));
    }
    if (index > 0 && r.checked != repeats.front().checked) {
      for (const auto& [name, value] : repeats.front().checked) {
        const auto it = r.checked.find(name);
        if (it == r.checked.end() || it->second != value) {
          fail(name + " differs from repeat 0 (" + num(value) + " vs " +
               (it == r.checked.end() ? "absent" : num(it->second)) + ")");
        }
      }
    }
    for (const auto& [name, text] : args.expect) {
      const auto it = r.checked.find(name);
      if (it == r.checked.end()) {
        fail("expected output " + name + " is not produced");
        continue;
      }
      const std::string want =
          golden_format(std::strtod(text.c_str(), nullptr));
      const std::string got = golden_format(it->second);
      if (want != got) fail(name + " = " + got + ", expected " + want);
    }
    return ok;
  };

  const auto record = [&](Repeat r) {
    const std::size_t index = repeats.size();
    repeats.push_back(std::move(r));
    const Repeat& rep = repeats.back();
    attempted += rep.issued;
    if (check(rep, index)) {
      failed += rep.failed;
    } else {
      failed += rep.issued;
      correct = false;
    }
  };

  // probes[i] and probes[i + 1] bracket repeat i.
  SpeedProbe probe;
  std::vector<double> probes = {probe.run_ms()};
  // The probe measures only the main thread's core.
  const auto scale = [&](std::size_t i) {
    if (!repeats[i].single_threaded) return 1.0;
    const double after = i + 1 < probes.size() ? probes[i + 1] : probes[i];
    return SpeedProbe::kNominalMs / (0.5 * (probes[i] + after));
  };

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  constexpr std::size_t kMinRepeats = 3;
  const std::int64_t start = host_ns();
  std::vector<double> durations;
  try {
    for (;;) {
      const std::int64_t t0 = host_ns();
      record(run_once(args, nullptr));
      probes.push_back(probe.run_ms());
      durations.push_back(static_cast<double>(host_ns() - t0) * 1e-9);
      const double elapsed = static_cast<double>(host_ns() - start) * 1e-9;
      if (repeats.size() >= kMinRepeats &&
          elapsed + median(durations) > untraced_budget) {
        break;
      }
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("workload threw: ") + e.what());
    correct = false;
  }

  std::map<std::string, Metric> metrics;
  std::map<std::string, double> raw;  // unscaled medians, for the result file
  std::string trace_file;
  if (correct && !args.trace) {
    std::vector<double> setup;
    std::vector<double> rate;
    std::vector<double> cpu;
    std::vector<double> setup_raw;
    std::vector<double> rate_raw;
    std::vector<double> cpu_raw;
    for (std::size_t i = 0; i < repeats.size(); ++i) {
      const Repeat& r = repeats[i];
      const double req_per_s =
          static_cast<double>(r.ok + r.failed) / r.drain_wall_s;
      setup_raw.push_back(r.setup_s);
      rate_raw.push_back(req_per_s);
      cpu_raw.push_back(cpu_us_per_req(r));
      setup.push_back(r.setup_s * scale(i));
      rate.push_back(req_per_s / scale(i));
      cpu.push_back(cpu_us_per_req(r) * scale(i));
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["setup_s"] = {median(setup), "s"};
    metrics["req_per_s"] = {median(rate), "1/s"};
    metrics["cpu_us_per_req"] = {median(cpu), "us"};
    metrics["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0,
                              "MB"};
    raw["setup_s"] = median(setup_raw);
    raw["req_per_s"] = median(rate_raw);
    raw["cpu_us_per_req"] = median(cpu_raw);
  } else if (correct) {
    std::vector<double> cpu;
    std::vector<double> ns_per_event;
    std::vector<double> allocs;
    for (std::size_t i = 0; i < repeats.size(); ++i) {
      const Repeat& r = repeats[i];
      cpu.push_back(cpu_us_per_req(r) * scale(i));
      const double events = r.checked.at("sim.events");
      ns_per_event.push_back(
          events == 0 ? 0.0 : r.drain_cpu_s * 1e9 / events * scale(i));
      allocs.push_back(r.layer.at("sim.allocs_per_req"));
    }
    Tracer tracer;
    try {
      record(run_once(args, &tracer));
      probes.push_back(probe.run_ms());
    } catch (const std::exception& e) {
      errors.push_back(std::string("traced workload threw: ") + e.what());
      correct = false;
    }
    if (correct) {
      const Repeat& traced = repeats.back();
      std::map<std::string, double> layer = traced.layer;
      // Host timings and the heap count come from the untraced repeats:
      // span recording itself allocates and costs time.
      layer["sim.ns_per_event"] = median(ns_per_event);
      layer["sim.allocs_per_req"] = median(allocs);
      const double requests =
          static_cast<double>(traced.ok + traced.failed);
      const auto totals = tracer.totals();
      const auto total = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
      };
      const auto per_req_us = [&](double ns) {
        return requests == 0 ? 0.0 : ns / 1e3 / requests;
      };
      const auto mean = [](const SpanTotals& t) {
        return t.count == 0 ? 0.0 : t.total_ns / static_cast<double>(t.count);
      };
      layer["trace.send_us_per_req"] =
          per_req_us(total("request.send").total_ns);
      layer["trace.complete_us_per_req"] = per_req_us(
          total("request.complete").total_ns +
          total("request.return").total_ns);
      layer["trace.loop_self_us_per_req"] =
          per_req_us(total("sim.EventLoop::run").self_ns +
                     total("shard.window").self_ns);
      layer["trace.overhead_cpu_us_per_req"] =
          cpu_us_per_req(traced) * scale(repeats.size() - 1) -
          median(cpu);
      layer["telemetry.record_ns"] = mean(total("telemetry.record"));
      layer["k8s.push_epoch_us"] = mean(total("k8s.push_epoch")) / 1e3;
      layer["k8s.build_ms"] = total("k8s.build").total_ns / 1e6;
      for (const char* plane : {"canal", "ambient", "istio"}) {
        const std::string span = std::string("mesh.install.") + plane;
        layer[std::string("mesh.install_ms.") + plane] =
            total(span.c_str()).total_ns / 1e6;
      }
      for (const auto& [name, unit] : layer_units()) {
        const auto it = layer.find(name);
        metrics[name] = {it == layer.end() ? 0.0 : it->second, unit};
      }

      trace_file = args.out_dir + "/trace-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".json";
      constexpr std::uint64_t kExportedRequests = 2000;
      const long events = tracer.write_chrome(trace_file, kExportedRequests);
      std::ifstream in(trace_file, std::ios::binary);
      std::stringstream body;
      body << in.rdbuf();
      std::string why;
      if (events <= 0 || !in) {
        errors.push_back("could not write trace file " + trace_file);
        correct = false;
      } else if (!canal::telemetry::validate_chrome_trace(body.str(), &why)) {
        errors.push_back("trace file fails validate_chrome_trace: " + why);
        correct = false;
      }
      std::printf("trace: %zu spans recorded, %ld exported to %s\n",
                  tracer.span_count(), events, trace_file.c_str());
      for (const auto& [name, t] : totals) {
        std::printf("  span %-32s n=%-8llu total=%10.3f ms  self=%10.3f ms\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total_ns / 1e6, t.self_ns / 1e6);
      }
    }
  }
  if (attempted == 0) {
    errors.push_back("no request was attempted");
    correct = false;
  }

  // Human-readable summary.
  std::printf("workload %s seed %llu trace %d: %zu repeats, %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              repeats.size(), correct ? "correct" : "INCORRECT");
  for (const std::string& e : errors) std::printf("  error: %s\n", e.c_str());
  std::printf("  error_rate = %.6g (%llu failed / %llu attempted)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, m] : metrics) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit);
  }
  std::printf("  speed probe median %.4g ms (nominal %.4g ms)\n",
              median(probes), SpeedProbe::kNominalMs);
  for (const auto& [name, v] : raw) {
    std::printf("  unscaled %-23s %14.6g\n", name.c_str(), v);
  }
  if (!repeats.empty()) {
    for (const auto& [name, v] : repeats.front().checked) {
      std::printf("  checked %-30s %s\n", name.c_str(),
                  golden_format(v).c_str());
    }
  }

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}, \"checked\": {";
  first = true;
  if (!repeats.empty()) {
    for (const auto& [name, v] : repeats.front().checked) {
      out += (first ? "\"" : ", \"") + name + "\": " + num(v);
      first = false;
    }
  }
  // Per-repeat host readings, for diagnosing a spread from the result file.
  out += "}, \"per_repeat\": {";
  const auto series = [&](const char* name, auto value, bool last) {
    out += std::string("\"") + name + "\": [";
    for (std::size_t i = 0; i < repeats.size(); ++i) {
      out += (i == 0 ? "" : ", ") + num(value(repeats[i]));
    }
    out += last ? "]" : "], ";
  };
  series("setup_s", [](const Repeat& r) { return r.setup_s; }, false);
  series("drain_wall_s", [](const Repeat& r) { return r.drain_wall_s; }, false);
  series("cpu_us_per_req", cpu_us_per_req, false);
  out += "\"probe_ms\": [";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out += (i == 0 ? "" : ", ") + num(probes[i]);
  }
  out += "]}, \"unscaled\": {";
  first = true;
  for (const auto& [name, v] : raw) {
    out += (first ? "\"" : ", \"") + name + "\": " + num(v);
    first = false;
  }
  out += "}, \"repeats\": " + std::to_string(repeats.size());
  out += ", \"errors\": [";
  first = true;
  for (const std::string& e : errors) {
    out += (first ? "\"" : ", \"") + json_escape(e) + "\"";
    first = false;
  }
  out += "], \"trace_file\": \"" + json_escape(trace_file) + "\"";
  out += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  out += ", \"flags\": \"" + json_escape(PERFBENCH_FLAGS) + "\"}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
