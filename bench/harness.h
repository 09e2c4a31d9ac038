// Shared benchmark harness over core::Topology (the §5.1 testbed by
// default): the standard client/request, open-loop workload drivers, and
// table formatting for paper-style output.
//
// Concurrency: a Topology owns its sim::EventLoop and every object hanging
// off it, and the drivers below write only into result records the caller
// passes in — there are no shared mutable report buffers. One Topology per
// runner::RunSpec therefore runs safely on any thread; nothing here may
// grow static or cross-topology mutable state (see DESIGN.md §10).
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "canal/topology.h"
#include "mesh/dataplane.h"
#include "sim/stats.h"
#include "telemetry/registry.h"

namespace canal::bench {

/// Fixed-width table printing that mirrors the paper's tables.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cells) {
    header_ = std::move(cells);
    return *this;
  }
  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i >= widths.size()) widths.resize(i + 1, 0);
        widths[i] = std::max(widths[i], cells[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// The bench's standard client: the first pod of the first service.
inline k8s::Pod* client(core::Topology& bed) {
  return bed.services.front()->endpoints.front();
}
/// The bench's standard target: the last service.
inline net::ServiceId target_service(const core::Topology& bed) {
  return bed.services.back()->id;
}

inline mesh::RequestOptions request(core::Topology& bed,
                                    bool new_connection = true) {
  mesh::RequestOptions opts;
  opts.client = client(bed);
  opts.dst_service = target_service(bed);
  opts.path = "/api/items";
  opts.new_connection = new_connection;
  return opts;
}

struct LoadResult {
  sim::Histogram latency_us;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double mesh_user_cpu_core_s = 0.0;
  double mesh_total_cpu_core_s = 0.0;
  double duration_s = 0.0;

  [[nodiscard]] double error_rate() const {
    return sent == 0 ? 0.0
                     : 1.0 - static_cast<double>(ok) /
                                 static_cast<double>(sent);
  }
  /// Mean mesh cores busy inside the user cluster during the run.
  [[nodiscard]] double user_cores() const {
    return duration_s <= 0 ? 0.0 : mesh_user_cpu_core_s / duration_s;
  }
  [[nodiscard]] double total_cores() const {
    return duration_s <= 0 ? 0.0 : mesh_total_cpu_core_s / duration_s;
  }
};

/// Open-loop constant-rate driver: `rps` requests/s for `duration`.
/// When `registry` is non-null, every request is traced and its spans are
/// rolled into the registry under `trace_labels` (per-component latency
/// decomposition); when null, tracing stays off and the hot path is
/// identical to the untraced driver.
inline LoadResult drive_open_loop(
    core::Topology& bed, mesh::MeshDataplane& mesh, double rps,
    sim::Duration duration, bool new_connections = false,
    telemetry::MetricsRegistry* registry = nullptr,
    const telemetry::MetricsRegistry::Labels& trace_labels = {}) {
  LoadResult result;
  const double user_cpu_before = mesh.user_cpu_core_seconds();
  const double total_cpu_before = mesh.total_cpu_core_seconds();
  const sim::TimePoint start = bed.loop.now();
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / rps);
  const auto count = static_cast<std::uint64_t>(
      sim::to_seconds(duration) * rps);
  // Bind metric handles once for the whole run instead of re-interning
  // label strings on every completed request.
  auto recorder = registry != nullptr
                      ? std::make_shared<telemetry::TraceRecorder>(
                            *registry, trace_labels)
                      : nullptr;
  for (std::uint64_t i = 0; i < count; ++i) {
    bed.loop.post_at(
        start + static_cast<sim::Duration>(i) * spacing,
        [&bed, &mesh, &result, new_connections, recorder] {
          mesh::RequestOptions opts = request(bed, new_connections);
          opts.trace = recorder != nullptr;
          mesh.send_request(opts,
                            [&result, recorder](mesh::RequestResult r) {
            ++result.sent;
            if (r.ok()) ++result.ok;
            result.latency_us.record(sim::to_microseconds(r.latency));
            if (recorder != nullptr && r.trace) {
              recorder->record(*r.trace);
            }
          });
        });
  }
  bed.loop.run();
  result.duration_s = sim::to_seconds(bed.loop.now() - start);
  result.mesh_user_cpu_core_s =
      mesh.user_cpu_core_seconds() - user_cpu_before;
  result.mesh_total_cpu_core_s =
      mesh.total_cpu_core_seconds() - total_cpu_before;
  return result;
}

}  // namespace canal::bench
