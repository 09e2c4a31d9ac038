// Host-time spans recorded by the benchmark's own code around its calls
// into the simulator's public functions (set-up, send_request entries,
// completion callbacks, EventLoop::run / ShardedSim::run, push_epoch and
// the timed replays). Nothing inside src/ is instrumented.
//
// Spans live in memory, one SpanLog per thread of execution (the main
// thread, plus one per shard of a ShardedSim: a shard's window task runs on
// one pool thread at a time, so its log has a single writer per round and
// the pool's barrier orders rounds). Every span carries the id of the
// simulated request it belongs to (0 for spans that belong to none), so a
// request's send and completion spans can be joined across logs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Global span id: (log index << 32) | index within the log.
using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = ~SpanId{0};

struct Span {
  const char* name = nullptr;  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId parent = kNoSpan;
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t index) : index_(index) {}

  /// Opens a span whose parent is the innermost open span of this log, or
  /// the log's root parent when none is open.
  void open(const char* name, std::uint64_t request = 0) {
    const SpanId parent = stack_.empty() ? root_ : id_of(stack_.back());
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(Span{name, host_ns(), 0, parent, request});
  }
  void close() {
    spans_[stack_.back()].end_ns = host_ns();
    stack_.pop_back();
  }
  /// Parent of spans opened while this log has no open span of its own.
  void set_root(SpanId root) { root_ = root; }
  /// Id of the innermost open span (kNoSpan when none).
  [[nodiscard]] SpanId current() const {
    return stack_.empty() ? root_ : id_of(stack_.back());
  }

  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] SpanId id_of(std::uint32_t i) const {
    return (SpanId{index_} << 32) | i;
  }

  std::uint32_t index_;
  SpanId root_ = kNoSpan;
  std::vector<std::uint32_t> stack_;
  std::vector<Span> spans_;
};

/// RAII span on a possibly-null log: a null log (untraced run) records
/// nothing and costs one branch.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t request = 0)
      : log_(log) {
    if (log_ != nullptr) log_->open(name, request);
  }
  ~Scope() {
    if (log_ != nullptr) log_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

/// Per-name aggregate over every recorded span.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  // duration minus the part covered by children
};

class Tracer {
 public:
  Tracer() { logs_.push_back(std::make_unique<SpanLog>(0)); }

  [[nodiscard]] SpanLog& main() { return *logs_.front(); }
  /// Log `i` (>= 1), created on first use. Call from the main thread only,
  /// before the threads that write the log start.
  SpanLog& extra(std::size_t i);

  /// Self time per span name: a span's duration minus the union of its
  /// children's intervals.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  [[nodiscard]] std::size_t span_count() const;

  /// Writes Chrome trace-event JSON: every span that belongs to no request
  /// plus the spans of requests 1..max_request (the rest only feed
  /// totals(), bounding the file). Host spans nest rather than tile, so
  /// their request id goes in args.req, not args.request, which
  /// validate_chrome_trace reserves for slices that tile a request.
  /// Returns the number of events written, or -1 on I/O failure.
  long write_chrome(const std::string& path, std::uint64_t max_request) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace perfbench
