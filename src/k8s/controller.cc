#include "k8s/controller.h"

#include <algorithm>
#include <memory>

namespace canal::k8s {

void SouthboundChannel::transfer(std::uint64_t bytes, sim::Callback done) {
  const sim::Duration serialization = static_cast<sim::Duration>(
      static_cast<double>(bytes) * 8.0 / static_cast<double>(bandwidth_bps_) *
      static_cast<double>(sim::kSecond));
  const sim::TimePoint start = std::max(busy_until_, loop_.now());
  busy_until_ = start + serialization;
  total_bytes_ += bytes;
  window_.push_back(Sent{busy_until_, bytes});
  window_bytes_ += bytes;
  while (window_.front().last_byte < busy_until_ - sim::kSecond) {
    window_bytes_ -= window_.front().bytes;
    window_.pop_front();
  }
  peak_bps_ = std::max(peak_bps_, static_cast<double>(window_bytes_) * 8.0 /
                                      sim::to_seconds(sim::kSecond));
  if (!done) done = [] {};
  loop_.post_at(busy_until_ + latency_, std::move(done));
}

struct Controller::Round {
  std::vector<ConfigTarget> targets;
  TargetDelivered on_delivered;
  std::function<void(PushReport)> done;
  sim::TimePoint started = 0;
  sim::Duration build_time = 0;
  std::uint64_t total_bytes = 0;
  std::size_t remaining = 0;
};

void Controller::finish(const Round& round) {
  ++updates_completed_;
  if (round.done) {
    PushReport report;
    report.build_time = round.build_time;
    report.total_time = loop_.now() - round.started;
    report.bytes_pushed = round.total_bytes;
    report.targets = round.targets.size();
    round.done(report);
  }
}

void Controller::push_update(std::vector<ConfigTarget> targets,
                             std::function<void(PushReport)> done,
                             TargetDelivered on_delivered) {
  const sim::TimePoint started = loop_.now();

  // Build phase: CPU-bound, parallel across controller cores.
  sim::TimePoint build_done = started;
  std::uint64_t total_bytes = 0;
  for (const auto& target : targets) {
    const auto build_cost = static_cast<sim::Duration>(
        model_.build_ns_per_byte * static_cast<double>(target.config_bytes) +
        static_cast<double>(model_.build_per_target));
    build_done = std::max(build_done, cpu_.execute(build_cost));
    total_bytes += target.config_bytes;
  }

  auto round = std::make_shared<Round>();
  round->targets = std::move(targets);
  round->on_delivered = std::move(on_delivered);
  round->done = std::move(done);
  round->started = started;
  round->build_time = build_done - started;
  round->total_bytes = total_bytes;
  round->remaining = round->targets.size();
  // Push phase: I/O-bound over the shared southbound channel, started once
  // the build completes. Completion = last target delivered.
  loop_.post_at(build_done, [this, round] {
    if (round->targets.empty()) finish(*round);
    for (std::size_t i = 0; i < round->targets.size(); ++i) {
      southbound_.transfer(round->targets[i].config_bytes, [this, round, i] {
        if (round->on_delivered) round->on_delivered(i, round->targets[i]);
        if (--round->remaining == 0) finish(*round);
      });
    }
  });
}

}  // namespace canal::k8s
