#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "canal/population.h"
#include "http/parser.h"
#include "k8s/propagation.h"
#include "k8s/region.h"
#include "lb/bucket_table.h"
#include "net/shard_link.h"
#include "runner/shard_exec.h"
#include "sim/alloc_hook.h"
#include "sim/shard.h"
#include "sim/stats.h"
#include "telemetry/registry.h"
#include "world.h"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double wall_s() { return static_cast<double>(host_ns()) * 1e-9; }

double pct(const sim::Histogram& h, double p) {
  return h.empty() ? 0.0 : h.percentile(p);
}

/// Exactly-once completion accounting, indexed by request id (1-based).
/// Each id completes on one thread, so distinct threads write distinct
/// bytes; each Tally is written by one thread only.
struct Ledger {
  explicit Ledger(std::uint64_t ids) : done(ids + 1, 0) {}
  std::vector<std::uint8_t> done;

  [[nodiscard]] std::uint64_t missing(std::uint64_t issued) const {
    std::uint64_t n = 0;
    for (std::uint64_t id = 1; id <= issued; ++id) n += done[id] == 0;
    return n;
  }
};

struct Tally {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t duplicate = 0;

  void complete(Ledger& ledger, std::uint64_t id, bool success) {
    if (ledger.done[id] != 0) {
      ++duplicate;
      return;
    }
    ledger.done[id] = 1;
    ++(success ? ok : failed);
  }
};

/// Deterministic counters of one installed plane.
struct PlaneCounters {
  std::uint64_t gw_hits = 0;
  std::uint64_t gw_misses = 0;
  std::uint64_t proxy_hits = 0;
  std::uint64_t proxy_misses = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t signs = 0;
  std::uint64_t jobs = 0;
  std::uint64_t sessions_peak = 0;

  void add(World& w) {
    if (core::MeshGateway* gw = w.gateway()) {
      for (core::GatewayBackend* backend : gw->all_backends()) {
        gw_hits += backend->fastpath_hits();
        gw_misses += backend->fastpath_misses();
      }
    }
    for (proxy::ProxyEngine* engine : w.engines()) {
      proxy_hits += engine->fastpath_hits();
      proxy_misses += engine->fastpath_misses();
      handshakes += engine->handshakes();
    }
    if (w.key_server() != nullptr) signs += w.key_server()->requests_served();
    jobs += cpu_jobs(w.cpu_sets());
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void put_counters(Repeat& r, const PlaneCounters& c, std::uint64_t events) {
  const auto req = static_cast<double>(r.issued);
  r.layer["sim.events_per_req"] = ratio(static_cast<double>(events), req);
  r.layer["sim.cpu_jobs_per_req"] =
      ratio(static_cast<double>(c.jobs), req);
  r.layer["sim.allocs_per_req"] = ratio(static_cast<double>(r.allocs), req);
  r.layer["canal.gw_fastpath_hit_rate"] =
      ratio(static_cast<double>(c.gw_hits),
            static_cast<double>(c.gw_hits + c.gw_misses));
  r.layer["proxy.fastpath_hit_rate"] =
      ratio(static_cast<double>(c.proxy_hits),
            static_cast<double>(c.proxy_hits + c.proxy_misses));
  r.layer["proxy.handshakes_per_req"] =
      ratio(static_cast<double>(c.handshakes), req);
  r.layer["proxy.sessions_peak"] = static_cast<double>(c.sessions_peak);
  r.layer["crypto.sign_requests_per_req"] =
      ratio(static_cast<double>(c.signs), req);
}

/// Σ SessionTable sizes over a set of engines.
std::uint64_t sessions_now(const std::vector<proxy::ProxyEngine*>& engines) {
  std::uint64_t n = 0;
  for (proxy::ProxyEngine* e : engines) n += e->sessions().size();
  return n;
}

// --- Timed replays --------------------------------------------------------
//
// Layers that only the drain reaches (gateway placement scoring, the
// redirector, the HTTP parser) get no span of their own from outside. After
// the drain, the traced repeat replays their public functions on the
// workload's own inputs, against the state the drain left, and reports the
// median host ns per call over kReplayBatches batches.

constexpr int kReplayBatches = 5;
constexpr std::size_t kReplayCallsPerBatch = 20'000;

struct ReplayInputs {
  std::vector<const sim::CpuCore*> replica_cores;
  struct Resolve {
    core::MeshGateway* gateway;
    net::ServiceId service;
    net::AzId az;
  };
  std::vector<Resolve> resolves;
  struct Redirect {
    core::GatewayBackend* backend;
    const canal::lb::BucketTable* table;
    net::FiveTuple tuple;
    bool syn;  // the workload opens a new connection per request
  };
  std::vector<Redirect> redirects;
  std::vector<std::string> requests;  // serialized request bytes

  /// Adds the gateway replica cores of a canal world.
  void add_replica_cores(World& w) {
    for (core::GatewayBackend* backend : w.gateway()->all_backends()) {
      for (std::size_t i = 0; i < backend->replica_count(); ++i) {
        const sim::CpuSet& cpu = backend->replica(i)->cpu();
        for (std::size_t c = 0; c < cpu.size(); ++c) {
          replica_cores.push_back(&cpu.core(c));
        }
      }
    }
  }
  /// Adds one flow of the workload: its resolve pair and redirector input.
  void add_flow(World& w, net::ServiceId service, const net::FiveTuple& tuple,
                bool syn) {
    const auto az = static_cast<net::AzId>(0);
    resolves.push_back({w.gateway(), service, az});
    core::GatewayBackend* backend = w.gateway()->resolve(service, az);
    if (backend == nullptr) return;
    const canal::lb::BucketTable* table = backend->bucket_table(service);
    if (table != nullptr) redirects.push_back({backend, table, tuple, syn});
  }
  void add_request(const mesh::RequestOptions& opts) {
    const std::string bytes = mesh::build_request(opts).serialize();
    if (std::find(requests.begin(), requests.end(), bytes) == requests.end()) {
      requests.push_back(bytes);
    }
  }
};

template <typename Call>
double time_replay(SpanLog* log, const char* name, Call&& call) {
  std::vector<double> per_call;
  for (int b = 0; b < kReplayBatches; ++b) {
    Scope span(log, name);
    const std::int64_t t0 = host_ns();
    for (std::size_t i = 0; i < kReplayCallsPerBatch; ++i) call(i);
    per_call.push_back(static_cast<double>(host_ns() - t0) /
                       static_cast<double>(kReplayCallsPerBatch));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

/// Runs the four replays; throws if a replayed call fails on the inputs
/// the drain handled successfully.
void replay(const ReplayInputs& in, SpanLog* log, Repeat& r) {
  double sink = 0.0;
  std::uint64_t failures = 0;
  if (!in.replica_cores.empty()) {
    r.layer["sim.util_query_ns"] =
        time_replay(log, "replay.CpuCore::utilization", [&](std::size_t i) {
          sink += in.replica_cores[i % in.replica_cores.size()]->utilization(
              sim::seconds(5));
        });
  }
  if (!in.resolves.empty()) {
    r.layer["canal.resolve_ns"] =
        time_replay(log, "replay.MeshGateway::resolve", [&](std::size_t i) {
          const auto& q = in.resolves[i % in.resolves.size()];
          failures += q.gateway->resolve(q.service, q.az) == nullptr;
        });
  }
  if (!in.requests.empty()) {
    canal::http::RequestParser parser;
    r.layer["http.parse_ns"] =
        time_replay(log, "replay.RequestParser::feed", [&](std::size_t i) {
          const auto status =
              parser.feed(in.requests[i % in.requests.size()]);
          failures += status != canal::http::ParseStatus::kComplete;
          parser.reset();
        });
  }
  if (!in.redirects.empty()) {
    r.layer["lb.redirect_ns"] =
        time_replay(log, "replay.Redirector::resolve", [&](std::size_t i) {
          const auto& q = in.redirects[i % in.redirects.size()];
          core::GatewayBackend* backend = q.backend;
          const auto decision = canal::lb::Redirector(*q.table).resolve(
              q.tuple, q.syn,
              [backend](net::ReplicaId rid, const net::FiveTuple& t) {
                const core::GatewayReplica* rep = backend->find_replica(rid);
                return rep != nullptr && rep->knows_flow(t);
              });
          failures += !decision.has_value();
        });
  }
  if (failures != 0) {
    throw std::runtime_error("replay: " + std::to_string(failures) +
                             " replayed calls failed");
  }
  volatile double keep = sink;
  (void)keep;
}

net::FiveTuple tuple_of(const k8s::Pod& client, net::ServiceId service,
                        std::uint16_t port) {
  return net::FiveTuple{client.ip(), mesh::service_vip(service), port, 443,
                        net::Protocol::kTcp};
}

// --- canal_steady ---------------------------------------------------------
//
// §5.1 testbed on the canal plane; one client sends 2000 rps over 64
// pinned, established flows (one tenant, no registry, no config churn).

constexpr std::size_t kSteadyFlows = 64;
constexpr double kSteadyRps = 2000.0;
constexpr std::uint64_t kSteadyPerFlow = 312;  // ~20k requests, 10 s simulated

struct PinnedFlow {
  World* world = nullptr;
  SpanLog* log = nullptr;
  Ledger* ledger = nullptr;
  Tally* tally = nullptr;
  sim::Histogram* latency_us = nullptr;
  const std::vector<proxy::ProxyEngine*>* engines = nullptr;  // traced only
  std::uint64_t* sessions_peak = nullptr;
  std::size_t index = 0;
  std::uint16_t port = 0;
  sim::TimePoint start = 0;
  sim::Duration spacing = 0;
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
};

mesh::RequestOptions steady_request(World& w, std::uint16_t port, bool first) {
  mesh::RequestOptions opts;
  opts.client = w.client();
  opts.dst_service = w.target_service();
  opts.path = "/api/items";
  opts.src_port = port;
  opts.new_connection = first;  // handshake on the flow's first use only
  opts.close_after = false;
  return opts;
}

void fire_pinned(PinnedFlow& f) {
  const std::uint64_t id = f.issued * kSteadyFlows + f.index + 1;
  {
    Scope span(f.log, "request.send", id);
    f.world->mesh().send_request(
        steady_request(*f.world, f.port, f.issued == 0),
        [&f, id](mesh::RequestResult r) {
          Scope done(f.log, "request.complete", id);
          f.tally->complete(*f.ledger, id, r.ok());
          f.latency_us->record(sim::to_microseconds(r.latency));
        });
  }
  if (f.engines != nullptr && id % 64 == 0) {
    *f.sessions_peak = std::max(*f.sessions_peak, sessions_now(*f.engines));
  }
  ++f.issued;
  if (f.issued < f.count) {
    f.world->loop().post_at(
        f.start + static_cast<sim::Duration>(f.issued) * f.spacing,
        [&f] { fire_pinned(f); });
  }
}

}  // namespace

Repeat run_canal_steady(std::uint64_t seed, Tracer* tracer) {
  SpanLog* log = tracer != nullptr ? &tracer->main() : nullptr;
  Repeat r;
  const double t0 = wall_s();
  sim::EventLoop loop;
  std::unique_ptr<World> world;
  std::vector<PinnedFlow> flows(kSteadyFlows);
  const std::uint64_t total = kSteadyFlows * kSteadyPerFlow;
  Ledger ledger(total);
  Tally tally;
  sim::Histogram latency_us;
  latency_us.reserve(total);
  std::vector<proxy::ProxyEngine*> engines;
  PlaneCounters counters;
  {
    Scope setup(log, "setup");
    WorldOptions opts;
    opts.seed = seed;
    world = std::make_unique<World>(loop, opts, log);
    world->install(Plane::kCanal, log);
    Scope arm(log, "setup.arm");
    if (tracer != nullptr) engines = world->engines();
    const auto spacing = static_cast<sim::Duration>(
        static_cast<double>(sim::kSecond) * kSteadyFlows / kSteadyRps);
    const auto stagger = spacing / static_cast<sim::Duration>(kSteadyFlows);
    for (std::size_t i = 0; i < kSteadyFlows; ++i) {
      PinnedFlow& f = flows[i];
      f.world = world.get();
      f.log = log;
      f.ledger = &ledger;
      f.tally = &tally;
      f.latency_us = &latency_us;
      f.engines = tracer != nullptr ? &engines : nullptr;
      f.sessions_peak = &counters.sessions_peak;
      f.index = i;
      f.port = static_cast<std::uint16_t>(50'000 + i);
      f.start = static_cast<sim::Duration>(i) * stagger;
      f.spacing = spacing;
      f.count = kSteadyPerFlow;
      loop.post_at(f.start, [&f] { fire_pinned(f); });
    }
  }
  r.setup_s = wall_s() - t0;

  const std::uint64_t allocs0 = sim::alloc_count();
  const double cpu0 = process_cpu_s();
  const double w0 = wall_s();
  std::uint64_t events = 0;
  {
    Scope drain(log, "sim.EventLoop::run");
    events = loop.run();
  }
  r.drain_wall_s = wall_s() - w0;
  r.drain_cpu_s = process_cpu_s() - cpu0;
  r.allocs = sim::alloc_count() - allocs0;

  for (const PinnedFlow& f : flows) r.issued += f.issued;
  r.ok = tally.ok;
  r.failed = tally.failed;
  r.duplicate = tally.duplicate;
  r.missing = ledger.missing(r.issued);
  r.checked["sim.requests"] = static_cast<double>(r.issued);
  r.checked["sim.ok"] = static_cast<double>(r.ok);
  r.checked["sim.events"] = static_cast<double>(events);
  r.checked["sim.p50_us"] = pct(latency_us, 50);
  r.checked["sim.p99_us"] = pct(latency_us, 99);
  r.checked["sim.end_ms"] = sim::to_seconds(loop.now()) * 1e3;

  counters.add(*world);
  put_counters(r, counters, events);
  r.layer["mesh.drain_cpu_share.canal"] = 1.0;  // the only plane drained
  if (tracer != nullptr) {
    ReplayInputs in;
    in.add_replica_cores(*world);
    for (const PinnedFlow& f : flows) {
      in.add_flow(*world, world->target_service(),
                  tuple_of(*world->client(), world->target_service(), f.port),
                  false);
    }
    in.add_request(steady_request(*world, flows.front().port, false));
    replay(in, log, r);
  }
  return r;
}

// --- plane_churn ----------------------------------------------------------
//
// The same traffic through canal, ambient and istio in turn, each on a
// fresh §5.1 testbed with 100 µs app service time: 500 rps split over four
// tenants, every request a new connection (distinct five-tuple, mTLS
// handshake, close after the response), per-tenant telemetry through
// TenantRecorderSet::record, and a config epoch pushed every 50 ms.

namespace {

constexpr int kChurnTenants = 4;
constexpr double kChurnRps = 500.0;
constexpr sim::Duration kChurnSpan = sim::seconds(20);  // per plane
constexpr sim::Duration kChurnPushPeriod = sim::milliseconds(50);
constexpr std::uint16_t kChurnPortBase = 10'000;

struct ChurnContext {
  World* world = nullptr;
  SpanLog* log = nullptr;
  Ledger* ledger = nullptr;
  Tally* tally = nullptr;
  sim::Histogram* latency_us = nullptr;
  canal::telemetry::TenantRecorderSet* recorders = nullptr;
  const std::vector<proxy::ProxyEngine*>* engines = nullptr;  // traced only
  std::uint64_t sessions_peak = 0;
  std::uint64_t id_base = 0;  // ids of earlier planes
  std::uint64_t next_id = 0;  // ids issued on this plane
  std::uint64_t untraced = 0;  // completions that carried no trace
};

struct TenantGen {
  ChurnContext* ctx = nullptr;
  net::TenantId tenant{};
  sim::TimePoint start = 0;
  sim::Duration spacing = 0;
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
};

mesh::RequestOptions churn_request(World& w, net::TenantId tenant,
                                   std::uint16_t port) {
  mesh::RequestOptions opts;
  opts.client = w.client();
  opts.dst_service = w.target_service();
  opts.tenant = tenant;
  opts.path = "/api/items";
  opts.src_port = port;
  opts.new_connection = true;
  opts.close_after = true;
  opts.trace = true;  // TenantRecorderSet::record consumes the trace
  return opts;
}

void fire_tenant(TenantGen& g) {
  ChurnContext& c = *g.ctx;
  const std::uint64_t local = c.next_id++;
  const std::uint64_t id = c.id_base + local + 1;
  {
    Scope span(c.log, "request.send", id);
    const auto port = static_cast<std::uint16_t>(kChurnPortBase + local);
    c.world->mesh().send_request(
        churn_request(*c.world, g.tenant, port),
        [&c, id](mesh::RequestResult r) {
          Scope done(c.log, "request.complete", id);
          c.tally->complete(*c.ledger, id, r.ok());
          c.latency_us->record(sim::to_microseconds(r.latency));
          if (!r.trace) {
            ++c.untraced;
            return;
          }
          Scope rec(c.log, "telemetry.record", id);
          c.recorders->record(*r.trace, r.status);
        });
  }
  if (c.engines != nullptr && id % 16 == 0) {
    c.sessions_peak = std::max(c.sessions_peak, sessions_now(*c.engines));
  }
  ++g.issued;
  if (g.issued < g.count) {
    c.world->loop().post_at(
        g.start + static_cast<sim::Duration>(g.issued) * g.spacing,
        [&g] { fire_tenant(g); });
  }
}

struct PushGen {
  World* world = nullptr;
  SpanLog* log = nullptr;
  k8s::ConfigPropagation* propagation = nullptr;
  const k8s::Service* service = nullptr;
  sim::TimePoint start = 0;
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
};

void fire_push(PushGen& p) {
  // Each epoch re-installs the target service's route table and endpoints
  // on every proxy it reaches, bumping their fastpath versions on delivery.
  const k8s::Service* service = p.service;
  auto targets = p.world->mesh().config_epoch_targets(
      [service](proxy::ProxyEngine& engine) {
        mesh::install_service_config(engine, *service);
      });
  {
    Scope span(p.log, "k8s.push_epoch");
    p.propagation->push_epoch(std::move(targets));
  }
  ++p.issued;
  if (p.issued < p.count) {
    p.world->loop().post_at(
        p.start + static_cast<sim::Duration>(p.issued) * kChurnPushPeriod,
        [&p] { fire_push(p); });
  }
}

}  // namespace

Repeat run_plane_churn(std::uint64_t seed, Tracer* tracer) {
  SpanLog* log = tracer != nullptr ? &tracer->main() : nullptr;
  Repeat r;
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) * kChurnTenants / kChurnRps);
  const auto per_tenant =
      static_cast<std::uint64_t>(kChurnSpan / spacing);
  const std::uint64_t per_plane = per_tenant * kChurnTenants;
  const Plane planes[] = {Plane::kCanal, Plane::kAmbient, Plane::kIstio};
  Ledger ledger(per_plane * std::size(planes));
  Tally tally;
  PlaneCounters counters;
  std::uint64_t events_total = 0;
  std::uint64_t applies = 0;
  std::uint64_t superseded = 0;
  std::map<std::string, double> plane_cpu;

  for (const Plane plane : planes) {
    const std::string name = plane_name(plane);
    const double t0 = wall_s();
    sim::EventLoop loop;
    std::unique_ptr<World> world;
    std::unique_ptr<k8s::ConfigPropagation> propagation;
    auto registry = std::make_unique<canal::telemetry::MetricsRegistry>();
    auto recorders = std::make_unique<canal::telemetry::TenantRecorderSet>(
        *registry, canal::telemetry::MetricsRegistry::Labels{
                       {"dataplane", name}});
    std::vector<proxy::ProxyEngine*> engines;
    sim::Histogram latency_us;
    latency_us.reserve(per_plane);
    ChurnContext ctx;
    std::vector<TenantGen> gens(kChurnTenants);
    PushGen pusher;
    {
      Scope setup(log, "setup");
      WorldOptions opts;
      opts.app_service_time = sim::microseconds(100);
      opts.seed = seed;
      world = std::make_unique<World>(loop, opts, log);
      world->install(plane, log);
      Scope arm(log, "setup.arm");
      propagation = std::make_unique<k8s::ConfigPropagation>(
          loop, k8s::ControlPlaneProfile{});
      if (tracer != nullptr) engines = world->engines();
      ctx.world = world.get();
      ctx.log = log;
      ctx.ledger = &ledger;
      ctx.tally = &tally;
      ctx.latency_us = &latency_us;
      ctx.recorders = recorders.get();
      ctx.engines = tracer != nullptr ? &engines : nullptr;
      ctx.id_base = r.issued;
      for (int t = 0; t < kChurnTenants; ++t) {
        TenantGen& g = gens[static_cast<std::size_t>(t)];
        g.ctx = &ctx;
        g.tenant = static_cast<net::TenantId>(t + 1);
        g.start = static_cast<sim::Duration>(t) * spacing / kChurnTenants;
        g.spacing = spacing;
        g.count = per_tenant;
        loop.post_at(g.start, [&g] { fire_tenant(g); });
      }
      pusher.world = world.get();
      pusher.log = log;
      pusher.propagation = propagation.get();
      pusher.service = world->services().back();
      pusher.start = sim::milliseconds(25);
      pusher.count = static_cast<std::uint64_t>(kChurnSpan / kChurnPushPeriod);
      loop.post_at(pusher.start, [&pusher] { fire_push(pusher); });
    }
    r.setup_s += wall_s() - t0;

    const std::uint64_t allocs0 = sim::alloc_count();
    const double cpu0 = process_cpu_s();
    const double w0 = wall_s();
    std::uint64_t events = 0;
    {
      Scope drain(log, "sim.EventLoop::run");
      events = loop.run();
    }
    r.drain_wall_s += wall_s() - w0;
    const double cpu = process_cpu_s() - cpu0;
    r.drain_cpu_s += cpu;
    plane_cpu[name] = cpu;
    r.allocs += sim::alloc_count() - allocs0;

    std::uint64_t issued = 0;
    for (const TenantGen& g : gens) issued += g.issued;
    r.issued += issued;
    events_total += events;
    applies += propagation->applies_total();
    superseded += propagation->superseded_total();
    r.checked["sim.requests." + name] = static_cast<double>(issued);
    r.checked["sim.events." + name] = static_cast<double>(events);
    r.checked["sim.p50_us." + name] = pct(latency_us, 50);
    r.checked["sim.p99_us." + name] = pct(latency_us, 99);
    r.checked["sim.epochs." + name] =
        static_cast<double>(propagation->latest_epoch());
    r.checked["sim.epoch_applies." + name] =
        static_cast<double>(propagation->applies_total());
    r.checked["sim.untraced." + name] = static_cast<double>(ctx.untraced);
    counters.add(*world);
    counters.sessions_peak = std::max(counters.sessions_peak,
                                      ctx.sessions_peak);
    if (tracer != nullptr && plane == Plane::kCanal) {
      ReplayInputs in;
      in.add_replica_cores(*world);
      for (std::uint64_t i = 0; i < issued; ++i) {
        in.add_flow(*world, world->target_service(),
                    tuple_of(*world->client(), world->target_service(),
                             static_cast<std::uint16_t>(kChurnPortBase + i)),
                    true);
      }
      in.add_request(churn_request(*world, gens.front().tenant,
                                   kChurnPortBase));
      replay(in, log, r);
    }
  }
  r.ok = tally.ok;
  r.failed = tally.failed;
  r.duplicate = tally.duplicate;
  r.missing = ledger.missing(r.issued);
  r.checked["sim.requests"] = static_cast<double>(r.issued);
  r.checked["sim.ok"] = static_cast<double>(r.ok);
  r.checked["sim.events"] = static_cast<double>(events_total);

  put_counters(r, counters, events_total);
  r.layer["k8s.superseded_frac"] = ratio(static_cast<double>(superseded),
                                         static_cast<double>(applies));
  for (const auto& [name, cpu] : plane_cpu) {
    r.layer["mesh.drain_cpu_share." + name] = ratio(cpu, r.drain_cpu_s);
  }
  return r;
}

// --- region_sharded -------------------------------------------------------
//
// The region_scale operating point (bench/region.h, BENCH_region.json): 8
// AZ domains of a ShardedSim, 8 x 140 VMs, 1536 pods, 200 Table-3 tenants,
// 1M aggregate RPS, 15% cross-AZ over net::ShardChannel, 300 ms of
// simulated time. The benchmark runs it on 1 shard (serial windows on the
// calling thread) by default; --shards N runs the windows on a pool.
// Construction order, seeds and the generator schedule reproduce
// bench/region.h's run_region, so every simulated output equals the
// golden's at seed 1 and at any shard count.

namespace {

constexpr std::size_t kAzs = 8;
constexpr std::size_t kGeneratorsPerAz = 64;
constexpr double kRegionRps = 1'000'000.0;
constexpr double kCrossFraction = 0.15;
constexpr std::size_t kRegionTenants = 200;
constexpr sim::Duration kRegionSpan = sim::milliseconds(300);
constexpr std::uint32_t kRequestBytes = 256;
constexpr std::uint32_t kResponseBytes = 1024;

struct AzState {
  World* world = nullptr;
  SpanLog* log = nullptr;  // the log of the shard hosting this AZ
  Tally tally;
  sim::Histogram intra_latency_us;
  sim::Histogram cross_latency_us;
  std::vector<proxy::ProxyEngine*> engines;  // traced only
  std::uint64_t sessions_peak = 0;
};

struct RegionGen {
  AzState* src = nullptr;
  AzState* dst = nullptr;  // cross-AZ only
  Ledger* ledger = nullptr;
  k8s::Pod* client = nullptr;
  k8s::Pod* ingress = nullptr;  // cross-AZ only
  net::ServiceId dst_service{};
  net::TenantId tenant{};
  std::uint16_t src_port = 0;
  sim::TimePoint start = 0;
  sim::Duration spacing = 0;
  std::uint64_t count = 0;
  std::uint64_t issued = 0;
  std::uint64_t id_base = 0;
  net::ShardChannel* forward = nullptr;
  net::ShardChannel* reverse = nullptr;
  bool sample_sessions = false;
};

mesh::RequestOptions region_request(const RegionGen& g, k8s::Pod* client,
                                    bool first) {
  mesh::RequestOptions opts;
  opts.client = client;
  opts.dst_service = g.dst_service;
  opts.tenant = g.tenant;
  opts.path = "/api/region";
  opts.request_bytes = kRequestBytes;
  opts.src_port = g.src_port;
  opts.new_connection = first;
  opts.close_after = false;
  return opts;
}

void fire_region(RegionGen& g) {
  const std::uint64_t k = g.issued;
  const std::uint64_t id = g.id_base + k + 1;
  const bool first = k == 0;
  if (g.forward == nullptr) {
    Scope span(g.src->log, "request.send", id);
    g.src->world->mesh().send_request(
        region_request(g, g.client, first), [&g, id](mesh::RequestResult r) {
          Scope done(g.src->log, "request.complete", id);
          g.src->tally.complete(*g.ledger, id, r.ok());
          g.src->intra_latency_us.record(sim::to_microseconds(r.latency));
        });
  } else {
    g.forward->deliver(kRequestBytes, [&g, id, k, first] {
      Scope span(g.dst->log, "request.send", id);
      g.dst->world->mesh().send_request(
          region_request(g, g.ingress, first),
          [&g, id, k](mesh::RequestResult r) {
            Scope done(g.dst->log, "request.complete", id);
            const bool ok = r.ok();
            g.reverse->deliver(kResponseBytes, [&g, id, k, ok] {
              Scope back(g.src->log, "request.return", id);
              g.src->tally.complete(*g.ledger, id, ok);
              const sim::TimePoint sent_at =
                  g.start + static_cast<sim::Duration>(k) * g.spacing;
              g.src->cross_latency_us.record(
                  sim::to_microseconds(g.src->world->loop().now() - sent_at));
            });
          });
    });
  }
  if (g.sample_sessions && k % 64 == 0) {
    g.src->sessions_peak =
        std::max(g.src->sessions_peak, sessions_now(g.src->engines));
  }
  ++g.issued;
  if (g.issued < g.count) {
    g.src->world->loop().post_at(
        g.start + static_cast<sim::Duration>(g.issued) * g.spacing,
        [&g] { fire_region(g); });
  }
}

/// Executes ShardedSim rounds on a pool (or serially for one shard),
/// wrapping each shard's window task to count its heap allocations on
/// whichever thread runs it and, when traced, to record a window span in
/// the shard's log.
class InstrumentedRunner final : public sim::ShardRunner {
 public:
  InstrumentedRunner(std::size_t shards, std::vector<SpanLog*> logs)
      : logs_(std::move(logs)), allocs_(shards, 0) {
    const std::size_t threads = std::min<std::size_t>(
        shards, std::max(1u, std::thread::hardware_concurrency()));
    if (threads > 1) {
      pool_ = std::make_unique<canal::runner::PoolShardRunner>(threads);
    }
  }
  // The wrapped tasks capture `this`.
  InstrumentedRunner(const InstrumentedRunner&) = delete;
  InstrumentedRunner& operator=(const InstrumentedRunner&) = delete;

  void run_round(std::vector<std::function<void()>>& tasks) override {
    if (wrapped_.empty()) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        std::function<void()>* task = &tasks[i];
        wrapped_.emplace_back([this, i, task] {
          const std::uint64_t a0 = sim::alloc_count();
          {
            Scope span(logs_[i], "shard.window");
            (*task)();
          }
          allocs_[i] += sim::alloc_count() - a0;
        });
      }
    }
    if (pool_) {
      pool_->run_round(wrapped_);
    } else {
      for (auto& task : wrapped_) task();
    }
  }

  [[nodiscard]] bool uses_pool() const { return pool_ != nullptr; }

  [[nodiscard]] std::uint64_t allocs() const {
    std::uint64_t n = 0;
    for (const std::uint64_t a : allocs_) n += a;
    return n;
  }

 private:
  std::vector<SpanLog*> logs_;
  std::vector<std::uint64_t> allocs_;
  std::unique_ptr<canal::runner::PoolShardRunner> pool_;
  std::vector<std::function<void()>> wrapped_;
};

}  // namespace

Repeat run_region_sharded(std::uint64_t seed, std::size_t shards,
                          Tracer* tracer) {
  SpanLog* log = tracer != nullptr ? &tracer->main() : nullptr;
  Repeat r;
  const double t0 = wall_s();

  const std::vector<std::size_t> partition =
      k8s::partition_region(kAzs, shards);
  const net::Link cross_link = net::LinkProfiles::cross_az();
  std::vector<std::vector<sim::Duration>> latency(
      kAzs, std::vector<sim::Duration>(kAzs, cross_link.latency()));
  std::vector<std::size_t> identity(kAzs);
  for (std::size_t a = 0; a < kAzs; ++a) identity[a] = a;
  const sim::Duration lookahead = k8s::cross_shard_lookahead(latency, identity);
  (void)k8s::cross_shard_lookahead(latency, partition);  // validates it
  sim::ShardedSim sharded(partition, lookahead);

  std::vector<SpanLog*> shard_logs(sharded.shards(), nullptr);
  if (tracer != nullptr) {
    for (std::size_t s = 0; s < shard_logs.size(); ++s) {
      shard_logs[s] = &tracer->extra(1 + s);
    }
  }

  std::vector<std::unique_ptr<World>> worlds;
  std::vector<AzState> azs(kAzs);
  std::vector<RegionGen> gens;
  std::vector<std::vector<std::unique_ptr<net::ShardChannel>>> channels(kAzs);
  const double per_gen_rps =
      kRegionRps / static_cast<double>(kAzs) /
      static_cast<double>(kGeneratorsPerAz);
  const auto spacing = static_cast<sim::Duration>(
      static_cast<double>(sim::kSecond) / per_gen_rps);
  const auto per_gen_count = static_cast<std::uint64_t>(
      sim::to_seconds(kRegionSpan) * per_gen_rps);
  const auto cross_gens = static_cast<std::size_t>(
      static_cast<double>(kGeneratorsPerAz) * kCrossFraction);
  Ledger ledger(kAzs * kGeneratorsPerAz * per_gen_count);
  canal::core::RegionAdoption adoption;
  std::size_t tenant_count = 0;
  {
    Scope setup(log, "setup");
    for (std::size_t az = 0; az < kAzs; ++az) {
      WorldOptions opts;
      opts.nodes = 140;
      opts.services = 16;
      opts.pods_per_service = 12;
      opts.node_cores = 8;
      opts.app_service_time = sim::microseconds(500);
      opts.gateway_backends = 8;
      opts.gateway_replicas_per_backend = 2;
      opts.gateway_replica_cores = 4;
      opts.gateway_backends_per_service = 4;
      opts.seed = seed * 9973 + az;
      worlds.push_back(
          std::make_unique<World>(sharded.domain_loop(az), opts, log));
      worlds.back()->install(Plane::kCanal, log);
      azs[az].world = worlds.back().get();
      azs[az].log = shard_logs[sharded.shard_of(az)];
    }

    Scope arm(log, "setup.arm");
    canal::core::RegionProfile profile;
    profile.name = "region";
    profile.tenants = kRegionTenants;
    canal::core::PopulationGenerator population(sim::Rng(seed * 7919 + 13));
    const std::vector<canal::core::TenantProfile> tenants =
        population.generate(profile);
    tenant_count = tenants.size();
    adoption =
        canal::core::PopulationGenerator::summarize(profile.name, tenants);
    std::vector<std::uint64_t> cumulative_pods;
    std::uint64_t total_pods = 0;
    for (const auto& tenant : tenants) {
      total_pods += tenant.pods > 0 ? tenant.pods : 1;
      cumulative_pods.push_back(total_pods);
    }
    sim::Rng assign_rng(seed * 6271 + 29);
    const auto pick_tenant = [&]() -> net::TenantId {
      const auto target = static_cast<std::uint64_t>(assign_rng.uniform_int(
          1, static_cast<std::int64_t>(total_pods)));
      const auto it = std::lower_bound(cumulative_pods.begin(),
                                       cumulative_pods.end(), target);
      return static_cast<net::TenantId>(
          tenants[static_cast<std::size_t>(it - cumulative_pods.begin())].id);
    };

    for (std::size_t a = 0; a < kAzs; ++a) {
      channels[a].resize(kAzs);
      for (std::size_t b = 0; b < kAzs; ++b) {
        if (a == b) continue;
        channels[a][b] =
            std::make_unique<net::ShardChannel>(sharded, a, b, cross_link);
      }
    }

    gens.reserve(kAzs * kGeneratorsPerAz);
    for (std::size_t az = 0; az < kAzs; ++az) {
      World& w = *worlds[az];
      const std::size_t services = w.services().size();
      azs[az].intra_latency_us.reserve((kGeneratorsPerAz - cross_gens) *
                                       per_gen_count);
      azs[az].cross_latency_us.reserve(cross_gens * per_gen_count);
      if (tracer != nullptr) azs[az].engines = w.engines();
      for (std::size_t i = 0; i < kGeneratorsPerAz; ++i) {
        RegionGen g;
        g.src = &azs[az];
        g.ledger = &ledger;
        const k8s::Service& client_service = *w.services()[i % services];
        g.client = client_service.endpoints[(i / services) %
                                            client_service.endpoints.size()];
        g.tenant = pick_tenant();
        g.src_port = static_cast<std::uint16_t>(40'000 + i);
        g.spacing = spacing;
        g.count = per_gen_count;
        g.start = static_cast<sim::Duration>(i) * spacing /
                  static_cast<sim::Duration>(kGeneratorsPerAz);
        g.id_base = gens.size() * per_gen_count;
        g.sample_sessions = tracer != nullptr;
        if (i < cross_gens) {
          const std::size_t dst_az = (az + 1 + i % (kAzs - 1)) % kAzs;
          World& dst = *worlds[dst_az];
          g.dst = &azs[dst_az];
          g.forward = channels[az][dst_az].get();
          g.reverse = channels[dst_az][az].get();
          const k8s::Service& ingress_service = *dst.services()[i % services];
          g.ingress =
              ingress_service.endpoints[(i / services) %
                                        ingress_service.endpoints.size()];
          g.dst_service = dst.services()[(i + services / 2) % services]->id;
        } else {
          g.dst_service = w.services()[(i + services / 2) % services]->id;
        }
        gens.push_back(g);
      }
    }
    for (RegionGen& g : gens) {
      if (g.count == 0) continue;
      g.src->world->loop().post_at(g.start, [&g] { fire_region(g); });
    }
  }
  r.setup_s = wall_s() - t0;

  InstrumentedRunner runner(sharded.shards(), shard_logs);
  const std::uint64_t allocs0 = sim::alloc_count();
  const double cpu0 = process_cpu_s();
  const double w0 = wall_s();
  sim::ShardedSim::Stats stats;
  {
    Scope drain(log, "sim.ShardedSim::run");
    if (log != nullptr) {
      for (SpanLog* s : shard_logs) s->set_root(log->current());
    }
    stats = sharded.run(&runner);
  }
  r.drain_wall_s = wall_s() - w0;
  r.drain_cpu_s = process_cpu_s() - cpu0;
  r.single_threaded = !runner.uses_pool();
  r.allocs = sim::alloc_count() - allocs0 + runner.allocs();

  sim::Histogram intra;
  sim::Histogram cross;
  PlaneCounters counters;
  for (AzState& az : azs) {
    r.ok += az.tally.ok;
    r.failed += az.tally.failed;
    r.duplicate += az.tally.duplicate;
    for (const double v : az.intra_latency_us.samples()) intra.record(v);
    for (const double v : az.cross_latency_us.samples()) cross.record(v);
    counters.add(*az.world);
    counters.sessions_peak += az.sessions_peak;
  }
  for (const RegionGen& g : gens) r.issued += g.issued;
  r.missing = ledger.missing(r.issued);

  // Names mirror BENCH_region.json's keys under the "sim." prefix.
  r.checked["sim.vms"] = static_cast<double>(kAzs * 140);
  r.checked["sim.pods"] = static_cast<double>(kAzs * 16 * 12);
  r.checked["sim.tenants"] = static_cast<double>(tenant_count);
  r.checked["sim.table3_l7"] = adoption.l7;
  r.checked["sim.table3_l7_routing"] = adoption.l7_routing;
  r.checked["sim.table3_l7_security"] = adoption.l7_security;
  r.checked["sim.aggregate_rps"] = kRegionRps;
  r.checked["sim.requests"] = static_cast<double>(r.ok + r.failed);
  r.checked["sim.ok"] = static_cast<double>(r.ok);
  r.checked["sim.p50_us"] = pct(intra, 50);
  r.checked["sim.p99_us"] = pct(intra, 99);
  r.checked["sim.cross_p50_us"] = pct(cross, 50);
  r.checked["sim.cross_p99_us"] = pct(cross, 99);
  r.checked["sim.lookahead_us"] = static_cast<double>(lookahead) / 1e3;
  r.checked["sim.events"] = static_cast<double>(stats.events);
  r.checked["sim.rounds"] = static_cast<double>(stats.rounds);
  r.checked["sim.cross_shard_messages"] = static_cast<double>(stats.messages);

  put_counters(r, counters, stats.events);
  r.layer["mesh.drain_cpu_share.canal"] = 1.0;  // the only plane drained
  r.layer["shard.rounds"] = static_cast<double>(stats.rounds);
  r.layer["shard.messages"] = static_cast<double>(stats.messages);
  r.layer["shard.busy_ms_sum"] = stats.busy_ms_sum();
  r.layer["shard.busy_ms_max"] = stats.busy_ms_max();
  const double drain_ms = r.drain_wall_s * 1e3;
  r.layer["shard.barrier_wait_frac"] =
      ratio(drain_ms - stats.busy_ms_max(), drain_ms);

  if (tracer != nullptr) {
    ReplayInputs in;
    for (std::size_t az = 0; az < kAzs; ++az) in.add_replica_cores(*worlds[az]);
    for (const RegionGen& g : gens) {
      World& served = g.forward == nullptr ? *g.src->world : *g.dst->world;
      k8s::Pod* client = g.forward == nullptr ? g.client : g.ingress;
      in.add_flow(served, g.dst_service,
                  tuple_of(*client, g.dst_service, g.src_port), false);
      in.add_request(region_request(g, client, false));
    }
    replay(in, log, r);
  }
  return r;
}

}  // namespace perfbench
