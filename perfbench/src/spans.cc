#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanLog& Tracer::extra(std::size_t i) {
  while (logs_.size() <= i) {
    logs_.push_back(
        std::make_unique<SpanLog>(static_cast<std::uint32_t>(logs_.size())));
  }
  return *logs_[i];
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Children of one span may run in parallel on several logs (shard
  // windows under ShardedSim::run), so the covered part of a parent is the
  // union of its children's intervals, not their sum.
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::unordered_map<SpanId, std::vector<Interval>> children;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.parent != kNoSpan) {
        children[s.parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
  }
  std::unordered_map<SpanId, double> covered;
  covered.reserve(children.size());
  for (auto& [parent, intervals] : children) {
    std::sort(intervals.begin(), intervals.end());
    double sum = 0.0;
    std::int64_t lo = intervals.front().first;
    std::int64_t hi = intervals.front().second;
    for (const auto& [start, end] : intervals) {
      if (start > hi) {
        sum += static_cast<double>(hi - lo);
        lo = start;
      }
      hi = std::max(hi, end);
    }
    covered[parent] = sum + static_cast<double>(hi - lo);
  }
  std::map<std::string, SpanTotals> out;
  for (const auto& log : logs_) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      const SpanId id = (SpanId{log->index()} << 32) | i;
      const auto it = covered.find(id);
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - (it == covered.end() ? 0.0 : it->second);
    }
  }
  return out;
}

long Tracer::write_chrome(const std::string& path,
                          std::uint64_t max_request) const {
  std::int64_t t0 = 0;
  bool any = false;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      t0 = any ? std::min(t0, s.start_ns) : s.start_ns;
      any = true;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fputs("{\"traceEvents\":[", f);
  long written = 0;
  for (const auto& log : logs_) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.request > max_request) continue;
      const SpanId id = (SpanId{log->index()} << 32) | i;
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
          "\"pid\":1,\"tid\":%u,\"args\":{\"span\":%llu,\"parent\":%lld,"
          "\"req\":%llu}}",
          written == 0 ? "" : ",", s.name,
          static_cast<double>(s.start_ns - t0) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, log->index(),
          static_cast<unsigned long long>(id),
          s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.request));
      ++written;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok ? written : -1;
}

}  // namespace perfbench
