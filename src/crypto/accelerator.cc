#include "crypto/accelerator.h"

#include <utility>
#include <vector>

namespace canal::crypto {

void AsymmetricAccelerator::submit(std::function<void()> done) {
  const sim::TimePoint submitted = loop_.now();
  if (mode_ == AccelMode::kSoftware) {
    cpu_.execute(model_.software_asym_cost, [this, submitted,
                                             done = std::move(done)]() mutable {
      ++completed_;
      op_latency_us_.record(sim::to_microseconds(loop_.now() - submitted));
      if (done) done();
    });
    return;
  }

  batch_.push_back({submitted, std::move(done)});
  if (batch_.size() >= model_.accel_batch_size) {
    flush_timer_.cancel();
    flush_batch();
  } else if (!flush_timer_.pending()) {
    flush_timer_ =
        loop_.post(model_.accel_flush_timeout, [this] { flush_batch(); });
  }
}

void AsymmetricAccelerator::flush_batch() {
  if (batch_.empty()) return;
  std::vector<PendingOp> ops;
  const std::size_t take =
      std::min(batch_.size(), model_.accel_batch_size);
  for (std::size_t i = 0; i < take; ++i) {
    ops.push_back(std::move(batch_.front()));
    batch_.pop_front();
  }
  ++batches_flushed_;
  // The batch's lanes execute in parallel across available cores; each op
  // costs accel_per_op_cost of CPU.
  for (auto& op : ops) {
    cpu_.execute(model_.accel_per_op_cost,
                 [this, submitted = op.submitted,
                  done = std::move(op.done)]() mutable {
                   ++completed_;
                   op_latency_us_.record(
                       sim::to_microseconds(loop_.now() - submitted));
                   if (done) done();
                 });
  }
  // If a backlog remains (burst larger than one batch), keep draining.
  if (!batch_.empty()) {
    flush_timer_.cancel();
    flush_batch();
  }
}

}  // namespace canal::crypto
