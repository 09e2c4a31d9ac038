#include "mesh/dataplane.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <unordered_set>

namespace canal::mesh {

std::size_t service_config_bytes(const k8s::Service& service) {
  // Route rules + authz policy + per-endpoint entries. Matches the
  // footprint install_service_config() creates, plus security metadata.
  constexpr std::size_t kRouteBytes = 680;
  constexpr std::size_t kAuthzBytes = 420;
  constexpr std::size_t kPerEndpointBytes = 96;
  return kRouteBytes + kAuthzBytes +
         service.endpoints.size() * kPerEndpointBytes;
}

std::size_t full_config_bytes(const k8s::Cluster& cluster) {
  std::size_t total = 1024;  // bootstrap/listener framing
  for (const auto& service : cluster.services()) {
    total += service_config_bytes(*service);
  }
  return total;
}

std::string service_cluster_name(net::ServiceId id) {
  std::string out;
  append_service_cluster_name(out, id);
  return out;
}

void append_service_cluster_name(std::string& out, net::ServiceId id) {
  out += "service-";
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof(digits),
                                    net::id_value(id));
  out.append(digits, result.ptr);
}

net::Ipv4Addr service_vip(net::ServiceId id) {
  // ServiceId is (tenant << 32) | per-tenant counter. The VIP encodes the
  // low 24 counter bits in the 240.0.0.0/8 reserved range, which cannot
  // collide with pod (10/8), gateway-replica (172.16/12) or gateway-VIP
  // (100.64/10) addresses. VIPs deliberately overlap across tenants, like
  // pod IPs: tenants are differentiated by VNI, not by address. Two
  // services of the *same* tenant must never share a VIP, so counters that
  // would wrap the 24-bit field are rejected loudly instead of silently
  // aliasing another service's VIP (the old 16-bit mapping did exactly
  // that for ids >= 2^16).
  const std::uint64_t counter = net::id_value(id) & 0xFFFFFFFFULL;
  if (counter >= (1ULL << 24)) {
    throw std::invalid_argument(
        "service_vip: per-tenant service counter " + std::to_string(counter) +
        " exceeds the 24-bit VIP space (2^24 services per tenant); "
        "widen the VIP encoding before allocating this many services");
  }
  return net::Ipv4Addr(240, static_cast<std::uint8_t>((counter >> 16) & 0xFF),
                       static_cast<std::uint8_t>((counter >> 8) & 0xFF),
                       static_cast<std::uint8_t>(counter & 0xFF));
}

void refresh_endpoints(proxy::ProxyEngine& engine,
                       const k8s::Service& service) {
  // Diff the desired endpoint set against the live one instead of dropping
  // and rebuilding the cluster: a rebuild would reset the round-robin
  // cursor (skewing load every scale event) and invalidate UpstreamEndpoint
  // state (in-flight request counts) mid-run.
  const std::string name = service_cluster_name(service.id);
  auto& cluster =
      engine.clusters().add_cluster(name, proxy::LbPolicy::kRoundRobin);

  std::unordered_set<std::uint64_t> desired;
  desired.reserve(service.endpoints.size());
  for (const k8s::Pod* pod : service.endpoints) {
    const std::uint64_t key = net::id_value(pod->id());
    desired.insert(key);
    if (cluster.find_endpoint(key) == nullptr) {
      cluster.add_endpoint(net::Endpoint{pod->ip(), 8080}, key);
    }
  }

  std::vector<std::uint64_t> stale;
  for (const auto& endpoint : cluster.endpoints()) {
    if (desired.find(endpoint->key) == desired.end()) {
      stale.push_back(endpoint->key);
    }
  }
  for (const std::uint64_t key : stale) cluster.remove_endpoint(key);
}

void install_service_config(proxy::ProxyEngine& engine,
                            const k8s::Service& service) {
  http::RouteTable table;
  http::RouteRule rule;
  rule.name = service.name + "-default";
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  // Fill-construct rather than assign from a literal: GCC 12's inliner
  // flags the literal path with a spurious -Wrestrict (GCC PR 105329).
  rule.match.path = std::string(1, '/');
  rule.action.clusters.push_back({service_cluster_name(service.id), 1});
  table.add_rule(std::move(rule));
  engine.set_route_table(service.id, std::move(table));
  refresh_endpoints(engine, service);
}

void install_full_config(proxy::ProxyEngine& engine,
                         const k8s::Cluster& cluster) {
  for (const auto& service : cluster.services()) {
    install_service_config(engine, *service);
  }
}

sim::Duration RetryPolicy::backoff_before(std::uint32_t attempt,
                                          sim::Rng& rng) const {
  if (attempt <= 1 || base_backoff <= 0) return 0;
  sim::Duration backoff = base_backoff;
  for (std::uint32_t i = 2; i < attempt; ++i) {
    if (max_backoff > 0 && backoff >= max_backoff) break;
    backoff *= 2;
  }
  if (max_backoff > 0) backoff = std::min(backoff, max_backoff);
  if (jitter > 0.0) {
    const double scale = 1.0 - jitter + jitter * rng.uniform();
    backoff = static_cast<sim::Duration>(static_cast<double>(backoff) * scale);
  }
  return backoff;
}

namespace {

/// Shared state of one logical request moving through retry attempts.
struct RetryState {
  MeshDataplane* mesh = nullptr;
  sim::EventLoop* loop = nullptr;
  RequestOptions opts;
  RetryPolicy policy;
  sim::Rng* rng = nullptr;  ///< borrowed; must outlive the request
  RetryBudget* budget = nullptr;
  proxy::ResilienceChain* chain = nullptr;  ///< owned by the dataplane
  RequestCallback done;
  sim::TimePoint send = 0;
  std::uint32_t attempt = 0;
  net::TenantId tenant{};
  /// Resilience disturbance epoch of the destination service at send;
  /// a change by completion marks the outcome resilience_affected.
  std::uint64_t epoch_at_send = 0;
  bool affected = false;
  std::shared_ptr<telemetry::Trace> merged;  ///< null when tracing is off

  void append_attempt_trace(const telemetry::Trace& attempt_trace) {
    if (!merged) return;
    for (const auto& span : attempt_trace.spans()) {
      merged->add(span.name, span.component, span.start, span.end,
                  span.queue_wait, span.bytes, span.status);
    }
  }

  void finish(const RequestResult& last, bool timed_out) {
    RequestResult result;
    result.status = last.status;
    result.latency = loop->now() - send;
    result.served_by = last.served_by;
    result.attempts = attempt;
    result.timed_out = timed_out;
    result.tenant = tenant;
    result.trace = merged;
    if (chain != nullptr) {
      result.resilience_affected =
          affected ||
          chain->disturbance_epoch(opts.dst_service) != epoch_at_send ||
          chain->disturbed(opts.dst_service);
    }
    done(result);
  }

  /// Feeds one completed attempt into the breaker/outlier stages.
  void feed_chain(net::PodId served_by, int status) {
    if (chain == nullptr) return;
    chain->on_attempt_result(opts.dst_service, net::id_value(served_by),
                             status);
  }
};

void run_attempt(std::shared_ptr<RetryState> st);

/// Classifies `result` (produced at loop->now()): either it ends the
/// request, or — retryable status, attempts left, budget admits — the next
/// attempt is scheduled after backoff.
void settle_attempt(const std::shared_ptr<RetryState>& st,
                    const RequestResult& result, bool timed_out) {
  bool want_retry = st->policy.retryable(result.status) &&
                    st->attempt < st->policy.max_attempts;
  if (want_retry && st->chain != nullptr &&
      !st->chain->attempt_allowed(st->opts.dst_service)) {
    // The breaker opened under us: don't retry into an open breaker; the
    // current result stands and the outcome is marked affected.
    want_retry = false;
    st->affected = true;
  }
  const bool admitted =
      want_retry && (st->budget == nullptr || st->budget->try_acquire());
  if (!admitted) {
    st->finish(result, timed_out);
    return;
  }
  const sim::Duration wait =
      st->policy.backoff_before(st->attempt + 1, *st->rng);
  const sim::TimePoint wait_start = st->loop->now();
  st->loop->post(wait, [st, wait_start]() {
    if (st->merged && st->loop->now() > wait_start) {
      st->merged->add("retry/backoff", telemetry::Component::kRetry,
                      wait_start, st->loop->now());
    }
    run_attempt(st);
  });
}

void run_attempt(std::shared_ptr<RetryState> st) {
  ++st->attempt;
  const sim::TimePoint attempt_start = st->loop->now();
  // First writer wins: either the dataplane's completion or the per-try
  // timeout. The loser finds `*settled` set and backs off.
  auto settled = std::make_shared<bool>(false);
  auto timeout = std::make_shared<sim::EventHandle>();

  if (st->policy.per_try_timeout > 0) {
    *timeout = st->loop->schedule(
        st->policy.per_try_timeout, [st, settled, attempt_start]() {
          if (*settled) return;
          *settled = true;
          if (st->merged) {
            // The abandoned attempt's own spans never arrive; one kRetry
            // span covers its window so the merged trace stays gapless.
            st->merged->add(
                "retry/timeout-attempt-" + std::to_string(st->attempt),
                telemetry::Component::kRetry, attempt_start, st->loop->now(),
                0, 0, 504);
          }
          st->feed_chain(net::PodId{}, 504);
          RequestResult timed_out;
          timed_out.status = 504;
          timed_out.timed_out = true;
          settle_attempt(st, timed_out, /*timed_out=*/true);
        });
  }

  st->mesh->send_request(st->opts, [st, settled,
                                    timeout](RequestResult result) {
    if (*settled) return;  // attempt already abandoned by the timeout
    *settled = true;
    timeout->cancel();
    if (result.trace) st->append_attempt_trace(*result.trace);
    st->feed_chain(result.served_by, result.status);
    settle_attempt(st, result, /*timed_out=*/false);
  });
}

}  // namespace

void MeshDataplane::enable_resilience(const proxy::ResilienceConfig& config) {
  proxy::ResilienceChain::Hooks hooks;
  hooks.set_endpoint_health = [this](net::ServiceId service,
                                     std::uint64_t key, bool healthy) {
    apply_endpoint_health(service, key, healthy);
  };
  hooks.endpoint_total = [this](net::ServiceId service) {
    return service_endpoint_total(service);
  };
  hooks.loop = &event_loop();
  resilience_ =
      std::make_unique<proxy::ResilienceChain>(config, std::move(hooks));
}

std::vector<k8s::ConfigTarget> MeshDataplane::routing_update_targets() const {
  std::vector<k8s::ConfigTarget> targets;
  for (auto& target : config_epoch_targets({})) {
    targets.push_back(std::move(target.target));
  }
  return targets;
}

std::size_t MeshDataplane::service_endpoint_total(
    net::ServiceId service) const {
  const k8s::Service* obj = cluster_.find_service(service);
  return obj != nullptr ? obj->endpoints.size() : 0;
}

net::FiveTuple EphemeralPorts::tuple_for(const RequestOptions& opts,
                                         std::uint16_t dst_port) {
  const std::uint16_t src_port = opts.src_port != 0 ? opts.src_port : next_++;
  if (next_ < floor_) next_ = floor_;
  return net::FiveTuple{opts.client->ip(), service_vip(opts.dst_service),
                        src_port, dst_port, net::Protocol::kTcp};
}

bool MeshDataplane::open_request(RequestFrame& f, const RequestOptions& opts,
                                 RequestCallback done, bool traced) {
  f.opts = opts;
  f.done = std::move(done);
  f.start = loop_.now();
  f.tenant = effective_tenant(opts);
  f.endpoint = nullptr;
  f.target = nullptr;
  f.trace.reset();
  if (traced && opts.trace) {
    f.trace = std::make_shared<telemetry::Trace>();
    f.trace->set_tenant(f.tenant);
  }
  // Malformed request: no originating pod. The caller fails fast (400)
  // instead of dereferencing null further down its hop chain.
  if (opts.client == nullptr) return false;
  build_request_into(opts, f.req);
  return true;
}

void MeshDataplane::app_span(RequestFrame& f, sim::TimePoint from,
                             const http::Response& resp) {
  if (f.trace) {
    f.trace->add("app/" + std::to_string(net::id_value(f.target->id())),
                 telemetry::Component::kApp, from, loop_.now(), 0,
                 resp.wire_size(), resp.status);
  }
}

RequestResult MeshDataplane::conclude(RequestFrame& f, int status) {
  if (f.endpoint != nullptr && f.endpoint->active_requests > 0) {
    --f.endpoint->active_requests;
  }
  RequestResult result;
  result.status = status;
  result.latency = loop_.now() - f.start;
  if (f.target != nullptr) result.served_by = f.target->id();
  result.tenant = f.tenant;
  result.trace = std::move(f.trace);
  return result;
}

void MeshDataplane::send_request_with_retries(const RequestOptions& opts,
                                              const RetryPolicy& policy,
                                              sim::Rng& rng,
                                              RequestCallback done,
                                              RetryBudget* budget) {
  if (resilience_ != nullptr) {
    const proxy::ResilienceChain::Admission admission =
        resilience_->admit(effective_tenant(opts), opts.dst_service);
    if (!admission.admitted) {
      // Synchronous fast-fail before any attempt: 429 from the tenant's
      // token bucket or 503 from an open breaker. attempts = 0 records
      // that the dataplane was never entered; the (empty) trace still
      // tiles its zero-length [send, send] window.
      RequestResult result;
      result.status = admission.status;
      result.tenant = effective_tenant(opts);
      result.attempts = 0;
      result.rate_limited = admission.rate_limited;
      result.resilience_affected = !admission.rate_limited;
      if (opts.trace) {
        result.trace = std::make_shared<telemetry::Trace>();
        result.trace->set_tenant(result.tenant);
      }
      done(result);
      return;
    }
  }
  auto st = std::make_shared<RetryState>();
  st->mesh = this;
  st->loop = &event_loop();
  st->opts = opts;
  st->policy = policy;
  st->rng = &rng;
  st->budget = budget;
  st->done = std::move(done);
  st->send = st->loop->now();
  st->tenant = effective_tenant(opts);
  st->chain = resilience_.get();
  if (st->chain != nullptr) {
    st->epoch_at_send = st->chain->disturbance_epoch(opts.dst_service);
    st->affected = st->chain->disturbed(opts.dst_service);
  }
  if (opts.trace) {
    st->merged = std::make_shared<telemetry::Trace>();
    st->merged->set_tenant(st->tenant);
  }
  if (budget != nullptr) budget->on_request();
  run_attempt(std::move(st));
}

http::Request build_request(const RequestOptions& opts) {
  http::Request req;
  build_request_into(opts, req);
  return req;
}

void build_request_into(const RequestOptions& opts, http::Request& req) {
  req.method = opts.method;
  req.path = opts.path;
  // Drop headers a previous use of a pooled request left behind. Host and
  // Content-Length are overwritten below; anything else is stale. set()'s
  // remove+add churn stays allocation-free: header names/values here are
  // short enough for the small-string buffer and the entries vector keeps
  // its capacity.
  while (true) {
    const auto& entries = req.headers.entries();
    const auto stale = std::find_if(
        entries.begin(), entries.end(), [](const auto& entry) {
          return !http::iequals(entry.first, "Host") &&
                 !http::iequals(entry.first, "Content-Length");
        });
    if (stale == entries.end()) break;
    const std::string name = stale->first;  // remove() invalidates the entry
    req.headers.remove(name);
  }
  std::string& host = req.headers.value_slot("Host");
  host.clear();
  append_service_cluster_name(host, opts.dst_service);
  for (const auto& [name, value] : opts.headers) {
    req.headers.add(name, value);
  }
  if (opts.request_bytes > 0) {
    req.body.assign(opts.request_bytes, 'q');
    req.headers.set("Content-Length", std::to_string(opts.request_bytes));
  } else {
    req.body.clear();
    req.headers.remove("Content-Length");
  }
}

void NoMesh::apply_endpoint_health(net::ServiceId, std::uint64_t endpoint_key,
                                   bool healthy) {
  if (healthy) {
    ejected_.erase(endpoint_key);
  } else {
    ejected_.insert(endpoint_key);
  }
}

void NoMesh::send_request(const RequestOptions& opts, RequestCallback done) {
  auto st = std::make_shared<RequestFrame>();
  if (!open_request(*st, opts, std::move(done))) {
    complete(*st, 400);
    return;
  }
  k8s::Service* service = cluster_.find_service(opts.dst_service);
  if (service == nullptr) {
    complete(*st, 404);
    return;
  }
  auto endpoints = service->ready_endpoints();
  if (!ejected_.empty()) {
    std::erase_if(endpoints, [this](const k8s::Pod* pod) {
      return ejected_.contains(net::id_value(pod->id()));
    });
  }
  if (endpoints.empty()) {
    complete(*st, 503);
    return;
  }
  if (net_.dropped(rng_, st->start)) {
    // The request is lost on the wire: `done` never fires. Only a per-try
    // timeout in the retry layer recovers from this.
    return;
  }
  st->target = endpoints[rr_++ % endpoints.size()];
  const sim::Duration hop =
      net_.hop_at(opts.client->node(), st->target->node(), st->start);
  loop_.post(hop, [this, st, hop] {
    link_span(*st, "link/client-server", st->start);
    const sim::TimePoint app_start = loop_.now();
    st->target->handle_request(
        st->req, [this, st, hop, app_start](http::Response& resp) {
          app_span(*st, app_start, resp);
          const sim::TimePoint back_start = loop_.now();
          loop_.post(hop, [this, st, back_start, status = resp.status] {
            link_span(*st, "link/server-client", back_start);
            complete(*st, status);
          });
        });
  });
}

}  // namespace canal::mesh
