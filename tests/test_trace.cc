// Observability tests: Span/Trace invariants, the FCFS queue-wait split
// exposed by sim::Cpu, the label-keyed MetricsRegistry, registry-driven
// RCA, and the acceptance property that traced requests decompose e2e
// latency EXACTLY — for every dataplane, the spans tile [send, done] and
// their durations sum to RequestResult.latency.
#include <gtest/gtest.h>

#include "canal/canal_mesh.h"
#include "mesh/ambient.h"
#include "mesh/istio.h"
#include "tests/testutil.h"
#include "sim/cpu.h"
#include "telemetry/rca.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace canal {
namespace {

using telemetry::Component;
using telemetry::MetricsRegistry;
using telemetry::Trace;

// ---- Span / Trace invariants -----------------------------------------------

TEST(TraceSpans, QueueWaitPlusServiceTimeEqualsDuration) {
  Trace trace;
  const auto& cpu_span =
      trace.add("proxy/l7", Component::kL7, sim::microseconds(10),
                sim::microseconds(40), /*queue_wait=*/sim::microseconds(12));
  EXPECT_EQ(cpu_span.queue_wait, sim::microseconds(12));
  EXPECT_EQ(cpu_span.service_time, sim::microseconds(18));
  EXPECT_EQ(cpu_span.queue_wait + cpu_span.service_time, cpu_span.duration());

  // Link spans carry no queue wait: the whole duration is service time.
  const auto& link_span = trace.add("link/a-b", Component::kLink,
                                    sim::microseconds(40),
                                    sim::microseconds(60));
  EXPECT_EQ(link_span.queue_wait, 0);
  EXPECT_EQ(link_span.service_time, link_span.duration());
}

TEST(TraceSpans, QueueWaitClampedToSpanDuration) {
  Trace trace;
  const auto& span = trace.add("x", Component::kL4, 0, sim::microseconds(5),
                               /*queue_wait=*/sim::microseconds(999));
  EXPECT_EQ(span.queue_wait, sim::microseconds(5));
  EXPECT_EQ(span.service_time, 0);
}

TEST(TraceSpans, ChronologicalOrderAndContiguity) {
  Trace trace;
  trace.add("a", Component::kLink, 0, 100);
  trace.add("b", Component::kL7, 100, 250, 30);
  trace.add("c", Component::kApp, 250, 1000);
  ASSERT_EQ(trace.size(), 3u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace.spans()[i].start, trace.spans()[i - 1].start);
  }
  EXPECT_TRUE(trace.contiguous());
  EXPECT_EQ(trace.total_duration(), 1000);
  EXPECT_EQ(trace.total_queue_wait(), 30);
  EXPECT_EQ(trace.total_service_time(), 970);

  // A gap breaks contiguity.
  trace.add("d", Component::kLink, 1100, 1200);
  EXPECT_FALSE(trace.contiguous());
}

TEST(TraceSpans, ComponentAggregates) {
  Trace trace;
  trace.add("l1", Component::kLink, 0, 10);
  trace.add("l2", Component::kLink, 10, 30);
  trace.add("app", Component::kApp, 30, 100);
  EXPECT_EQ(trace.count_of(Component::kLink), 2u);
  EXPECT_EQ(trace.duration_of(Component::kLink), 30);
  EXPECT_TRUE(trace.has(Component::kApp));
  EXPECT_FALSE(trace.has(Component::kRedirect));
}

TEST(TraceJson, GoldenExport) {
  Trace trace;
  trace.add("link/a", Component::kLink, 0, 1000);
  trace.add("proxy/l7", Component::kL7, 1000, 3000, /*queue_wait=*/500,
            /*bytes=*/64, /*status=*/200);
  EXPECT_EQ(
      trace.to_json(),
      "{\"spans\":["
      "{\"name\":\"link/a\",\"component\":\"link\",\"start_ns\":0,"
      "\"end_ns\":1000,\"queue_wait_ns\":0,\"service_ns\":1000,"
      "\"bytes\":0,\"status\":0},"
      "{\"name\":\"proxy/l7\",\"component\":\"l7\",\"start_ns\":1000,"
      "\"end_ns\":3000,\"queue_wait_ns\":500,\"service_ns\":1500,"
      "\"bytes\":64,\"status\":200}"
      "],\"total_ns\":3000,\"queue_wait_ns\":500,\"service_ns\":2500}");
}

TEST(TraceJson, ChromeTraceSplitsQueueFromService) {
  Trace trace;
  trace.add("proxy/l7", Component::kL7, 1000, 3000, /*queue_wait=*/500);
  const std::string out = trace.to_chrome_trace();
  // Queue wait renders as its own slice, service as the main slice.
  EXPECT_NE(out.find("\"proxy/l7 [queue]\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"queue\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"l7\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
}

// ---- FCFS queue-wait out-param on sim::Cpu ---------------------------------

TEST(CpuQueueWait, SecondJobWaitsBehindFirst) {
  sim::EventLoop loop;
  sim::CpuCore core(loop);
  sim::Duration first_wait = -1;
  sim::Duration second_wait = -1;
  core.execute(sim::microseconds(100), nullptr, &first_wait);
  const sim::TimePoint done =
      core.execute(sim::microseconds(50), nullptr, &second_wait);
  EXPECT_EQ(first_wait, 0);
  EXPECT_EQ(second_wait, sim::microseconds(100));
  EXPECT_EQ(done, loop.now() + second_wait + sim::microseconds(50));
  loop.run();
}

TEST(CpuQueueWait, PinnedExecutionWaitsOnlyOnItsOwnCore) {
  sim::EventLoop loop;
  sim::CpuSet cpus(loop, 2);
  sim::Duration wait_same = -1;
  sim::Duration wait_other = -1;
  cpus.execute_pinned(0, sim::microseconds(100));
  cpus.execute_pinned(2, sim::microseconds(50), nullptr, &wait_same);
  cpus.execute_pinned(1, sim::microseconds(50), nullptr, &wait_other);
  EXPECT_EQ(wait_same, sim::microseconds(100));  // hashes 0 and 2 share core 0
  EXPECT_EQ(wait_other, 0);
  loop.run();
}

// ---- MetricsRegistry --------------------------------------------------------

TEST(Registry, CanonicalKeyIsLabelSorted) {
  EXPECT_EQ(MetricsRegistry::key_of("x", {}), "x");
  EXPECT_EQ(MetricsRegistry::key_of("x", {{"b", "2"}, {"a", "1"}}),
            "x{a=\"1\",b=\"2\"}");
}

TEST(Registry, LabelKeyedLookup) {
  MetricsRegistry registry;
  registry.counter("hits", {{"dataplane", "canal"}}).inc(3);
  registry.counter("hits", {{"dataplane", "istio"}}).inc();
  registry.histogram("lat", {{"az", "0"}}).record(7.0);

  const auto* canal_hits =
      registry.find_counter("hits", {{"dataplane", "canal"}});
  ASSERT_NE(canal_hits, nullptr);
  EXPECT_DOUBLE_EQ(canal_hits->value(), 3.0);
  const auto* istio_hits =
      registry.find_counter("hits", {{"dataplane", "istio"}});
  ASSERT_NE(istio_hits, nullptr);
  EXPECT_DOUBLE_EQ(istio_hits->value(), 1.0);
  EXPECT_EQ(registry.find_counter("hits"), nullptr);  // unlabeled != labeled
  const auto* lat = registry.find_histogram("lat", {{"az", "0"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 1u);
  EXPECT_EQ(registry.find_histogram("lat", {{"az", "1"}}), nullptr);
}

TEST(Registry, LinkedSeriesAreDiscoverableByName) {
  MetricsRegistry registry;
  sim::TimeSeries external;
  external.record(sim::seconds(1), 42.0);
  registry.link_time_series(telemetry::kServiceRpsSeries,
                            {{std::string(telemetry::kServiceLabel), "7"}},
                            &external);
  registry.time_series("other");  // owned series under a different name

  const auto named =
      registry.series_named(telemetry::kServiceRpsSeries);
  ASSERT_EQ(named.size(), 1u);
  EXPECT_EQ(named[0].first.at(std::string(telemetry::kServiceLabel)), "7");
  EXPECT_EQ(named[0].second, &external);  // linked, not copied
}

TEST(Registry, RecordTraceAggregatesSpans) {
  Trace trace;
  trace.add("link/a", Component::kLink, 0, sim::microseconds(20));
  trace.add("gw/l7", Component::kL7, sim::microseconds(20),
            sim::microseconds(50), /*queue_wait=*/sim::microseconds(10),
            /*bytes=*/128, /*status=*/200);
  trace.add("gw/reject", Component::kL7, sim::microseconds(50),
            sim::microseconds(50), 0, 0, /*status=*/503);

  MetricsRegistry registry;
  const MetricsRegistry::Labels base{{"dataplane", "canal"}};
  registry.record_trace(trace, base);

  const auto* requests = registry.find_counter("requests_total", base);
  ASSERT_NE(requests, nullptr);
  EXPECT_DOUBLE_EQ(requests->value(), 1.0);

  const auto* latency = registry.find_histogram("request_latency_us", base);
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->mean(),
                   sim::to_microseconds(trace.total_duration()));
  const auto* wait = registry.find_histogram("request_queue_wait_us", base);
  ASSERT_NE(wait, nullptr);
  EXPECT_DOUBLE_EQ(wait->mean(), 10.0);

  MetricsRegistry::Labels l7 = base;
  l7["component"] = "l7";
  const auto* l7_latency = registry.find_histogram("span_latency_us", l7);
  ASSERT_NE(l7_latency, nullptr);
  EXPECT_EQ(l7_latency->count(), 2u);
  const auto* bytes = registry.find_counter("span_bytes_total", l7);
  ASSERT_NE(bytes, nullptr);
  EXPECT_DOUBLE_EQ(bytes->value(), 128.0);
  const auto* errors = registry.find_counter("span_errors_total", l7);
  ASSERT_NE(errors, nullptr);
  EXPECT_DOUBLE_EQ(errors->value(), 1.0);
}

TEST(Registry, GoldenJsonExport) {
  MetricsRegistry registry;
  registry.counter("requests_total").inc();
  registry.gauge("water_level", {{"backend", "3"}}).set(0.5);
  EXPECT_EQ(registry.to_json(),
            "{\"counters\":{\"requests_total\":1},"
            "\"gauges\":{\"water_level{backend=\\\"3\\\"}\":0.5},"
            "\"histograms\":{},\"time_series\":{}}");
}

// ---- Registry-driven root-cause analysis -----------------------------------

TEST(RcaRegistry, PinpointsServiceCorrelatedWithBackendLoad) {
  sim::TimeSeries load, hot_rps, cold_rps, unparseable;
  for (int i = 0; i <= 24; ++i) {
    const sim::TimePoint t = static_cast<sim::Duration>(i) * sim::kSecond;
    load.record(t, static_cast<double>(i));         // rising water level
    hot_rps.record(t, 2.0 * static_cast<double>(i));  // rises with it
    cold_rps.record(t, 5.0);                          // flat
    unparseable.record(t, 3.0 * static_cast<double>(i));
  }
  MetricsRegistry registry;
  const std::string label(telemetry::kServiceLabel);
  registry.link_time_series(telemetry::kServiceRpsSeries, {{label, "42"}},
                            &hot_rps);
  registry.link_time_series(telemetry::kServiceRpsSeries, {{label, "43"}},
                            &cold_rps);
  // Non-numeric service labels are skipped, not misparsed.
  registry.link_time_series(telemetry::kServiceRpsSeries, {{label, "api"}},
                            &unparseable);

  const telemetry::RootCauseAnalyzer rca;
  const auto suspects = rca.pinpoint(load, registry, 0, 24 * sim::kSecond);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(net::id_value(suspects.front()), 42u);
}

// ---- End-to-end: traced requests decompose latency exactly -----------------

/// service-0 is "api"; service-1 holds the client pod.
struct TraceWorld : core::Topology {
  TraceWorld() : core::Topology(testutil::client_server_spec(2003)) {}

  k8s::Service* api = services[0];
  k8s::Pod* client = services[1]->endpoints.front();

  mesh::RequestResult traced(mesh::MeshDataplane& mesh,
                             bool new_connection = true) {
    std::optional<mesh::RequestResult> result;
    mesh::RequestOptions opts;
    opts.client = client;
    opts.dst_service = api->id;
    opts.new_connection = new_connection;
    opts.trace = true;
    mesh.send_request(opts, [&](mesh::RequestResult r) { result = r; });
    loop.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(mesh::RequestResult{});
  }
};

/// The acceptance property: spans tile [send, done] contiguously, each
/// span splits into queue-wait + service-time, and the sum of durations
/// equals RequestResult.latency EXACTLY (integer nanoseconds).
void expect_exact_decomposition(const mesh::RequestResult& result) {
  ASSERT_NE(result.trace, nullptr);
  ASSERT_FALSE(result.trace->empty());
  EXPECT_TRUE(result.trace->contiguous());
  EXPECT_EQ(result.trace->total_duration(), result.latency);
  for (const auto& span : result.trace->spans()) {
    EXPECT_EQ(span.queue_wait + span.service_time, span.duration())
        << "span " << span.name;
    EXPECT_GE(span.queue_wait, 0) << "span " << span.name;
  }
  EXPECT_EQ(result.trace->total_queue_wait() +
                result.trace->total_service_time(),
            result.latency);
}

TEST(TracedRequest, NoMeshDecomposesExactly) {
  TraceWorld world;
  mesh::NoMesh& nomesh = world.build_nomesh();
  const auto result = world.traced(nomesh);
  EXPECT_EQ(result.status, 200);
  expect_exact_decomposition(result);
  EXPECT_TRUE(result.trace->has(Component::kLink));
  EXPECT_TRUE(result.trace->has(Component::kApp));
}

TEST(TracedRequest, IstioDecomposesExactly) {
  TraceWorld world;
  mesh::IstioMesh& istio = world.build_istio();
  // New connection (mTLS handshake span) and established connection both
  // must tile exactly.
  for (const bool fresh : {true, false}) {
    const auto result = world.traced(istio, fresh);
    EXPECT_EQ(result.status, 200);
    expect_exact_decomposition(result);
    EXPECT_TRUE(result.trace->has(Component::kL7));  // sidecars are L7
    EXPECT_EQ(result.trace->has(Component::kHandshake), fresh);
  }
}

TEST(TracedRequest, AmbientDecomposesExactly) {
  TraceWorld world;
  mesh::AmbientMesh& ambient = world.build_ambient();
  for (const bool fresh : {true, false}) {
    const auto result = world.traced(ambient, fresh);
    EXPECT_EQ(result.status, 200);
    expect_exact_decomposition(result);
    EXPECT_TRUE(result.trace->has(Component::kL4));  // ztunnels
    EXPECT_TRUE(result.trace->has(Component::kL7));  // waypoint
  }
}

TEST(TracedRequest, CanalDecomposesExactly) {
  TraceWorld world;
  world.build_canal();
  for (const bool fresh : {true, false}) {
    const auto result = world.traced(*world.canal, fresh);
    EXPECT_EQ(result.status, 200);
    expect_exact_decomposition(result);
    // The Canal-specific stages are visible in the decomposition.
    EXPECT_TRUE(result.trace->has(Component::kRedirect));
    EXPECT_TRUE(result.trace->has(Component::kDisaggregation));
    EXPECT_TRUE(result.trace->has(Component::kL4));  // on-node proxy
    EXPECT_TRUE(result.trace->has(Component::kL7));  // gateway replica
    EXPECT_TRUE(result.trace->has(Component::kApp));
  }
}

TEST(TracedRequest, ProxylessIsUntraced) {
  // Proxyless observability is gateway-side only: there is no on-node
  // collection point, so even a traced request comes back without a trace.
  TraceWorld world;
  world.build_proxyless();
  const auto result = world.traced(*world.proxyless);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.trace, nullptr);
}

TEST(TracedRequest, TracingIsOptIn) {
  TraceWorld world;
  world.build_canal();
  std::optional<mesh::RequestResult> result;
  mesh::RequestOptions opts;
  opts.client = world.client;
  opts.dst_service = world.api->id;
  opts.new_connection = true;  // default: opts.trace == false
  world.canal->send_request(opts, [&](mesh::RequestResult r) { result = r; });
  world.loop.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 200);
  EXPECT_EQ(result->trace, nullptr);
}

TEST(TracedRequest, RecordedTraceFeedsLatencyDecomposition) {
  TraceWorld world;
  world.build_canal();
  MetricsRegistry registry;
  const MetricsRegistry::Labels labels{{"dataplane", "canal"}};
  for (int i = 0; i < 10; ++i) {
    const auto result = world.traced(*world.canal, /*new_connection=*/false);
    ASSERT_NE(result.trace, nullptr);
    registry.record_trace(*result.trace, labels);
  }
  const auto* latency = registry.find_histogram("request_latency_us", labels);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 10u);
  // Per-component means cover every stage the trace reported.
  MetricsRegistry::Labels link = labels;
  link["component"] = "link";
  const auto* link_spans = registry.find_histogram("span_latency_us", link);
  ASSERT_NE(link_spans, nullptr);
  EXPECT_GT(link_spans->count(), 0u);
}

}  // namespace
}  // namespace canal
