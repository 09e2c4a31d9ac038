// Mesh control plane cost model: configuration build + southbound push.
//
// The paper's control-plane findings (§2.1, Figs 4/14/15) are about two
// costs: CPU to *build* per-proxy configurations (scales with proxies ×
// config size) and southbound bandwidth to *push* them (the I/O-bound
// step). This module models both: a shared southbound channel with finite
// bandwidth serializes transfers FIFO and tracks its peak 1 s bandwidth.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/callback.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "sim/ring_deque.h"
#include "sim/time.h"

namespace canal::k8s {

/// Shared downlink from controller to proxies (VPN / dedicated line in
/// cross-region deployments). Finite bandwidth; transfers queue FIFO.
class SouthboundChannel {
 public:
  SouthboundChannel(sim::EventLoop& loop, std::uint64_t bandwidth_bps,
                    sim::Duration latency = sim::microseconds(500))
      : loop_(loop), bandwidth_bps_(bandwidth_bps), latency_(latency) {}

  /// Queues a transfer; `done` fires `latency` after its last byte leaves
  /// the channel. `done` is moved into that event as is, so a capture that
  /// fits sim::Callback's inline buffer costs no allocation. One event is
  /// posted per transfer even when `done` is empty.
  void transfer(std::uint64_t bytes, sim::Callback done = nullptr);

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  /// Peak bandwidth (bps) over any 1 s window that ends at a transfer's
  /// last byte, counting every transfer whose last byte falls inside it.
  [[nodiscard]] double peak_bps() const noexcept { return peak_bps_; }
  /// Time the channel drains (becomes idle) for the current queue.
  [[nodiscard]] sim::TimePoint busy_until() const noexcept {
    return busy_until_;
  }

 private:
  sim::EventLoop& loop_;
  std::uint64_t bandwidth_bps_;
  sim::Duration latency_;
  sim::TimePoint busy_until_ = 0;
  std::uint64_t total_bytes_ = 0;
  // The peak window: transfers whose last byte left in [busy_until_ - 1 s,
  // busy_until_], oldest first, and their byte total. Last-byte times never
  // decrease (FIFO), so each transfer is pushed once and popped once.
  struct Sent {
    sim::TimePoint last_byte;
    std::uint64_t bytes;
  };
  sim::RingDeque<Sent> window_;
  std::uint64_t window_bytes_ = 0;
  double peak_bps_ = 0.0;
};

/// One proxy that needs configuration during an update.
struct ConfigTarget {
  std::string name;
  std::uint64_t config_bytes = 0;
};

/// Result of a completed configuration round.
struct PushReport {
  sim::Duration build_time = 0;
  sim::Duration total_time = 0;  // build + push (last byte delivered)
  std::uint64_t bytes_pushed = 0;
  std::size_t targets = 0;
};

/// Controller cost constants.
struct ControllerCostModel {
  /// CPU nanoseconds per configuration byte built (xDS marshalling etc.).
  double build_ns_per_byte = 18.0;
  /// Fixed per-target build overhead.
  sim::Duration build_per_target = sim::microseconds(150);
};

/// The mesh controller. Builds configs on its own cores, then pushes them
/// over the southbound channel.
class Controller {
 public:
  /// Fires once per target when that target's last byte arrives (the
  /// per-proxy propagation delay of the epoch layer, propagation.h).
  /// `index` is the target's position in the pushed vector.
  using TargetDelivered =
      std::function<void(std::size_t index, const ConfigTarget& target)>;

  Controller(sim::EventLoop& loop, std::size_t cores,
             SouthboundChannel& southbound,
             ControllerCostModel model = ControllerCostModel{})
      : loop_(loop), cpu_(loop, cores), southbound_(southbound), model_(model) {}

  /// Builds and pushes configuration for every target; `done` receives the
  /// report when the last target has its config delivered. When
  /// `on_delivered` is set it fires per target at that target's own
  /// delivery time — targets land one by one as the FIFO southbound
  /// channel drains, not all at once when the round completes.
  void push_update(std::vector<ConfigTarget> targets,
                   std::function<void(PushReport)> done,
                   TargetDelivered on_delivered = nullptr);

  [[nodiscard]] sim::CpuSet& cpu() noexcept { return cpu_; }
  [[nodiscard]] std::uint64_t updates_completed() const noexcept {
    return updates_completed_;
  }

 private:
  // One push round's state, shared by the build event and every target's
  // delivery event (each captures only the pointer and its index).
  struct Round;
  void finish(const Round& round);

  sim::EventLoop& loop_;
  sim::CpuSet cpu_;
  SouthboundChannel& southbound_;
  ControllerCostModel model_;
  std::uint64_t updates_completed_ = 0;
};

}  // namespace canal::k8s
