// The dataplane skeleton shared by the NoMesh/Istio/Ambient baselines and
// the Canal architecture (src/canal).
//
// Each architecture composes the same proxy engine (src/proxy) into a
// different topology; this interface lets the benchmark harness drive any
// of them identically (Figs 10/11/13/14/15). Those comparisons hold only if
// the planes differ in nothing but their proxies and hops, so everything
// else lives here once: MeshDataplane owns the event loop and cluster, the
// retry/resilience layer and the config-target contract, and RequestFrame
// plus MeshDataplane's frame helpers are the per-request scaffolding (trace
// setup, 400 fast-fail, 5-tuple, endpoint->pod resolution, link/app spans,
// result assembly). A plane's own file keeps only its proxies, its hop
// chain and its config fan-out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "http/message.h"
#include "k8s/cluster.h"
#include "k8s/controller.h"
#include "k8s/propagation.h"
#include "net/flow.h"
#include "net/ids.h"
#include "proxy/engine.h"
#include "proxy/resilience.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "telemetry/trace.h"

namespace canal::mesh {

/// Latency profile of the underlying network fabric, plus an optional
/// fault schedule that degrades it (loss / latency spikes) during windows.
struct NetworkProfile {
  sim::Duration intra_node = sim::microseconds(20);
  sim::Duration intra_az = sim::microseconds(100);
  sim::Duration cross_az = sim::microseconds(500);
  /// Not owned; when set, link hops honour its loss/latency windows.
  const sim::FaultPlan* faults = nullptr;

  /// One-way transit between two nodes (fault-free baseline).
  [[nodiscard]] sim::Duration hop(const k8s::Node& a, const k8s::Node& b) const {
    if (&a == &b) return intra_node;
    return a.az() == b.az() ? intra_az : cross_az;
  }

  /// One-way transit at simulated time `now`, including any active
  /// latency-spike windows from the fault plan.
  [[nodiscard]] sim::Duration hop_at(const k8s::Node& a, const k8s::Node& b,
                                     sim::TimePoint now) const {
    return hop(a, b) + fault_latency(now);
  }

  /// Extra per-hop latency injected by the fault plan at `now`.
  [[nodiscard]] sim::Duration fault_latency(sim::TimePoint now) const {
    return faults != nullptr ? faults->extra_link_latency_at(now) : 0;
  }

  /// Draws one loss decision for a request entering the fabric at `now`.
  /// A dropped request vanishes — the caller's completion never fires, so
  /// only a per-try timeout (RetryPolicy) can recover from it.
  [[nodiscard]] bool dropped(sim::Rng& rng, sim::TimePoint now) const {
    if (faults == nullptr) return false;
    const double loss = faults->link_loss_at(now);
    return loss > 0.0 && rng.chance(loss);
  }
};

struct RequestOptions {
  k8s::Pod* client = nullptr;
  net::ServiceId dst_service{};
  /// Tenant the request is issued on behalf of. The default (id 0) means
  /// "derive from the client pod's tenant" — see effective_tenant(). Set
  /// explicitly to model gateway-style traffic where one client cluster
  /// fronts several tenants.
  net::TenantId tenant{};
  std::string path = "/";
  http::Method method = http::Method::kGet;
  std::vector<std::pair<std::string, std::string>> headers;
  std::uint32_t request_bytes = 256;
  /// New connection => handshake costs on every mTLS hop.
  bool new_connection = true;
  /// Client source port for the request's 5-tuple. 0 (the default) lets
  /// the dataplane allocate a fresh ephemeral port, so every request is a
  /// distinct flow. Pinning a port (with new_connection=false and
  /// close_after=false on repeats) models repeat requests on an
  /// established connection — the flow the fastpath caches key on.
  std::uint16_t src_port = 0;
  /// Tear down connection state after the response.
  bool close_after = true;
  /// Collect a per-hop Trace for this request (opt-in: the hot path stays
  /// allocation-free when false). The trace arrives on RequestResult.
  bool trace = false;
};

struct RequestResult {
  int status = 0;
  sim::Duration latency = 0;
  net::PodId served_by{};
  /// Tenant the request ran under (effective_tenant of its options) —
  /// every dataplane stamps this, so per-tenant accounting needs no
  /// side-channel. Also stamped on the trace when tracing.
  net::TenantId tenant{};
  /// Attempts made to produce this result (1 = no retries). Only the
  /// retry layer (send_request_with_retries) ever sets this above 1.
  std::uint32_t attempts = 1;
  /// True when the final attempt was abandoned by the per-try timeout
  /// (status 504) rather than answered by the dataplane.
  bool timed_out = false;
  /// True when the per-tenant rate limiter rejected the request (429,
  /// attempts == 0). Rate-limit decisions depend only on the logical
  /// request arrival schedule, so they are identical across dataplanes
  /// and compared strictly by the differential oracle.
  bool rate_limited = false;
  /// True when breaker/ejection state influenced this outcome: a breaker
  /// fast-fail, or any breaker/outlier transition for the destination
  /// service between send and completion (disturbance-epoch change), or
  /// non-closed breaker / active ejection at either end. Such outcomes
  /// depend on attempt-completion timing and are plane-divergent — the
  /// oracle exempts them under the resilience-window allowlist entry.
  bool resilience_affected = false;
  /// Populated iff RequestOptions.trace was set and the plane traces (all
  /// but canal-proxyless): ordered spans whose durations tile [send, done]
  /// — they sum exactly to `latency`.
  std::shared_ptr<telemetry::Trace> trace;
  [[nodiscard]] bool ok() const noexcept {
    return status >= 200 && status < 400;
  }
};

using RequestCallback = std::function<void(RequestResult)>;

/// The tenant a request actually runs under: opts.tenant when set (id
/// != 0), else the client pod's tenant, else untenanted.
[[nodiscard]] inline net::TenantId effective_tenant(
    const RequestOptions& opts) noexcept {
  if (net::id_value(opts.tenant) != 0) return opts.tenant;
  return opts.client != nullptr ? opts.client->tenant() : net::TenantId{};
}

/// Client-side retry/timeout policy, applied identically on top of any
/// dataplane by MeshDataplane::send_request_with_retries. Backoff is capped
/// exponential with deterministic jitter drawn from the caller's Rng, so a
/// fixed seed reproduces the exact retry schedule.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retries.
  std::uint32_t max_attempts = 3;
  /// Abandon an attempt (classify as 504) after this long; 0 disables.
  sim::Duration per_try_timeout = 0;
  /// Backoff before attempt k (k >= 2) is base * 2^(k-2), capped.
  sim::Duration base_backoff = sim::milliseconds(1);
  sim::Duration max_backoff = sim::milliseconds(50);
  /// Fraction of the backoff randomized: wait = backoff * (1 - jitter +
  /// jitter * u), u ~ U[0,1). 0 = fixed schedule.
  double jitter = 0.5;

  /// Statuses worth another attempt: upstream connect failure (502), no
  /// healthy endpoint / overload (503), per-try timeout (504).
  [[nodiscard]] bool retryable(int status) const noexcept {
    return status == 502 || status == 503 || status == 504;
  }

  /// Backoff wait before attempt `attempt` (2-based; attempt 1 never
  /// waits). Deterministic given the Rng state.
  [[nodiscard]] sim::Duration backoff_before(std::uint32_t attempt,
                                             sim::Rng& rng) const;
};

/// Shared retry-rate limiter (Envoy-style budget): retries are admitted
/// while outstanding retries stay within `ratio` of recent requests plus a
/// fixed `burst` floor. Prevents retry storms from amplifying an outage.
class RetryBudget {
 public:
  explicit RetryBudget(double ratio = 0.2, std::uint32_t burst = 3)
      : ratio_(ratio), burst_(burst) {}

  /// Records one logical request entering the retry layer.
  void on_request() noexcept { ++requests_; }

  /// Tries to admit one retry; false means the budget is exhausted and the
  /// current result must stand.
  [[nodiscard]] bool try_acquire() noexcept {
    const double allowed =
        ratio_ * static_cast<double>(requests_) + static_cast<double>(burst_);
    if (static_cast<double>(retries_ + 1) > allowed) {
      ++denied_;
      return false;
    }
    ++retries_;
    return true;
  }

  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t denied() const noexcept { return denied_; }

 private:
  double ratio_;
  std::uint32_t burst_;
  std::uint64_t requests_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t denied_ = 0;
};

/// Per-request state every plane's hop chain carries. Planes extend it with
/// their own proxies and hop scratch (CanalMesh pools its extension for the
/// zero-allocation fastpath, DESIGN.md §14); MeshDataplane's frame helpers
/// read and write only these fields.
struct RequestFrame {
  RequestOptions opts;
  RequestCallback done;
  sim::TimePoint start = 0;
  net::TenantId tenant{};
  /// Null unless the request asked for a trace and the plane traces.
  std::shared_ptr<telemetry::Trace> trace;
  http::Request req;
  net::FiveTuple tuple{};
  /// The L7 load-balancer pick; it holds one of the endpoint's
  /// active_requests until the request ends.
  proxy::UpstreamEndpoint* endpoint = nullptr;
  /// The pod serving the request (RequestResult::served_by).
  k8s::Pod* target = nullptr;

  [[nodiscard]] telemetry::Trace* tracer() const { return trace.get(); }
};

/// A plane's ephemeral source-port cursor: ports count up from `floor` and
/// wrap back to it, so each plane's flows stay in its own port range.
class EphemeralPorts {
 public:
  explicit EphemeralPorts(std::uint16_t floor) noexcept
      : floor_(floor), next_(floor) {}

  /// The request's 5-tuple: client pod -> service VIP on `dst_port`, from
  /// the pinned opts.src_port or else the next ephemeral port.
  [[nodiscard]] net::FiveTuple tuple_for(const RequestOptions& opts,
                                         std::uint16_t dst_port);

 private:
  std::uint16_t floor_;
  std::uint16_t next_;
};

/// A service mesh dataplane + its control-plane footprint.
class MeshDataplane {
 public:
  virtual ~MeshDataplane() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Sends one request from `opts.client` to `opts.dst_service`; `done`
  /// fires when the response arrives back at the client.
  virtual void send_request(const RequestOptions& opts,
                            RequestCallback done) = 0;

  /// The event loop this dataplane schedules on (used by the retry layer
  /// for per-try timeouts and backoff waits).
  [[nodiscard]] sim::EventLoop& event_loop() noexcept { return loop_; }

  /// Sends one request with client-side retries/timeouts layered on top of
  /// send_request(). Retryable failures (502/503/504 per `policy`) are
  /// retried up to policy.max_attempts with capped exponential backoff;
  /// attempts that exceed policy.per_try_timeout are abandoned and counted
  /// as 504. When `budget` is non-null, each retry must be admitted by it.
  /// The final RequestResult carries the total attempt count, and — when
  /// tracing — a merged Trace whose spans still tile [send, done]: spans of
  /// completed attempts verbatim, plus kRetry spans covering abandoned
  /// attempts and backoff waits.
  void send_request_with_retries(const RequestOptions& opts,
                                 const RetryPolicy& policy, sim::Rng& rng,
                                 RequestCallback done,
                                 RetryBudget* budget = nullptr);

  /// Hook run against one proxy engine when its config epoch lands.
  using EngineApply = std::function<void(proxy::ProxyEngine&)>;

  /// The proxies a routing-policy change configures, in delivery (FIFO)
  /// order, each paired with a delivery-time thunk for
  /// k8s::ConfigPropagation::push_epoch: the thunk runs `apply` over the
  /// engines that target configures, so fastpath versions bump only when
  /// that proxy's epoch actually lands. Targets with no L7 engine
  /// (ztunnels) carry a null apply. This is each plane's one target list.
  [[nodiscard]] virtual std::vector<k8s::EpochTarget> config_epoch_targets(
      const EngineApply& apply) const = 0;

  /// config_epoch_targets() without the apply thunks: the proxies that
  /// must be configured when a routing policy changes.
  [[nodiscard]] std::vector<k8s::ConfigTarget> routing_update_targets() const;

  /// Proxies that must be configured when `new_pods` are created
  /// (before the pods are reachable).
  [[nodiscard]] virtual std::vector<k8s::ConfigTarget> pod_create_targets(
      const std::vector<k8s::Pod*>& new_pods) const = 0;

  /// Mesh CPU burned inside the user cluster (core-seconds since start).
  [[nodiscard]] virtual double user_cpu_core_seconds() const = 0;
  /// Mesh CPU including any cloud-side components (by default there are
  /// none).
  [[nodiscard]] virtual double total_cpu_core_seconds() const {
    return user_cpu_core_seconds();
  }

  /// Number of proxy instances the control plane manages.
  [[nodiscard]] virtual std::size_t proxy_count() const = 0;

  /// Arms the resilience filter chain (DESIGN.md §13). Stages run inside
  /// send_request_with_retries in fixed order — rate limit -> breaker ->
  /// retry — and outlier ejections are applied to this plane's LB sets
  /// through apply_endpoint_health(). Idempotent per call (replaces any
  /// previous chain).
  void enable_resilience(const proxy::ResilienceConfig& config);
  [[nodiscard]] proxy::ResilienceChain* resilience() noexcept {
    return resilience_.get();
  }

 protected:
  MeshDataplane(sim::EventLoop& loop, k8s::Cluster& cluster)
      : loop_(loop), cluster_(cluster) {}

  /// Flips one endpoint's health in every LB set this plane keeps for
  /// `service` (outlier ejection / readmission). Engine-based planes
  /// route this to UpstreamCluster::set_endpoint_health so the config
  /// version bump invalidates flow fastpath caches.
  virtual void apply_endpoint_health(net::ServiceId service,
                                     std::uint64_t endpoint_key,
                                     bool healthy) = 0;
  /// Endpoint-count denominator for the max_ejection_percent bound. Every
  /// plane answers from the shared k8s service object, so the bound is
  /// identical across planes.
  [[nodiscard]] std::size_t service_endpoint_total(
      net::ServiceId service) const;

  // ---- Request frame helpers ---------------------------------------------

  /// Starts `f` for a new request at now(): stores the options and
  /// callback, stamps the tenant, resets the endpoint/target, opens a trace
  /// when opts.trace and `traced`, and builds the HTTP request into f.req
  /// (reusing its buffers). Returns false — the 400 fast-fail — when the
  /// request has no originating pod.
  bool open_request(RequestFrame& f, const RequestOptions& opts,
                    RequestCallback done, bool traced = true);

  /// Resolves an L7 hop's outcome (proxy::ProxyEngine::RequestOutcome or
  /// core::GatewayOutcome) to the serving pod, recording the LB pick in
  /// `f`. Returns the status to end the request with — the hop's own on
  /// failure or on a direct response, 503 when the picked pod is gone or
  /// not ready — or nullopt when the request goes on to f.target.
  template <typename Outcome>
  std::optional<int> resolve_target(RequestFrame& f, const Outcome& outcome) {
    if (!outcome.ok || outcome.endpoint == nullptr) return outcome.status;
    f.endpoint = outcome.endpoint;
    f.target =
        cluster_.find_pod(static_cast<net::PodId>(outcome.endpoint->key));
    if (f.target == nullptr || !f.target->ready()) return 503;
    return std::nullopt;
  }

  /// Records a wire crossing [from, now()] carrying `bytes` when tracing.
  void link_span(RequestFrame& f, std::string_view name, sim::TimePoint from,
                 std::uint64_t bytes = 0) {
    if (f.trace) {
      f.trace->add(name, telemetry::Component::kLink, from, loop_.now(), 0,
                   bytes);
    }
  }
  /// Records f.target's application work [from, now()] when tracing.
  void app_span(RequestFrame& f, sim::TimePoint from,
                const http::Response& resp);

  /// Ends the request at now() with `status`: frees the endpoint's
  /// in-flight slot and assembles the result, moving the trace out of `f`.
  /// The caller hands it to f.done (see complete()).
  [[nodiscard]] RequestResult conclude(RequestFrame& f, int status);
  /// conclude(), then f.done(result).
  void complete(RequestFrame& f, int status) { f.done(conclude(f, status)); }

  sim::EventLoop& loop_;
  k8s::Cluster& cluster_;
  std::unique_ptr<proxy::ResilienceChain> resilience_;
};

/// Serialized size of one service's routes + endpoints ("per-service
/// config"), and of the union over all services ("full config" — what
/// Istio pushes to every sidecar).
[[nodiscard]] std::size_t service_config_bytes(const k8s::Service& service);
[[nodiscard]] std::size_t full_config_bytes(const k8s::Cluster& cluster);

/// Default cluster name for a service's endpoint pool.
[[nodiscard]] std::string service_cluster_name(net::ServiceId id);

/// Appends the cluster name for `id` to `out` without allocating beyond
/// `out`'s own growth — the hot-path variant of service_cluster_name()
/// (service IDs carry the tenant in their high bits, so the name outgrows
/// the small-string buffer and a fresh std::string per request would hit
/// the heap every time).
void append_service_cluster_name(std::string& out, net::ServiceId id);

/// Installs the default route table ("/" prefix -> service cluster) and
/// endpoint pool for `service` into `engine`.
void install_service_config(proxy::ProxyEngine& engine,
                            const k8s::Service& service);

/// Installs configuration for every service of the cluster (full config).
void install_full_config(proxy::ProxyEngine& engine,
                         const k8s::Cluster& cluster);

/// Refreshes the endpoint pool of `service` in `engine` (pods added or
/// removed).
void refresh_endpoints(proxy::ProxyEngine& engine, const k8s::Service& service);

/// Virtual IP for a service (used as connection destination address).
[[nodiscard]] net::Ipv4Addr service_vip(net::ServiceId id);

/// Direct pod-to-pod dataplane: the "No service mesh" baseline of Fig 10.
class NoMesh final : public MeshDataplane {
 public:
  NoMesh(sim::EventLoop& loop, k8s::Cluster& cluster, NetworkProfile net = {},
         std::uint64_t seed = 0x6e6f2d6d657368ULL)
      : MeshDataplane(loop, cluster), net_(net), rng_(seed) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "no-mesh";
  }
  void send_request(const RequestOptions& opts, RequestCallback done) override;
  [[nodiscard]] std::vector<k8s::EpochTarget> config_epoch_targets(
      const EngineApply&) const override {
    return {};
  }
  [[nodiscard]] std::vector<k8s::ConfigTarget> pod_create_targets(
      const std::vector<k8s::Pod*>&) const override {
    return {};
  }
  [[nodiscard]] double user_cpu_core_seconds() const override { return 0.0; }
  [[nodiscard]] std::size_t proxy_count() const override { return 0; }

 protected:
  /// NoMesh has no proxy LB sets; ejection maintains a client-side
  /// excluded-pod set filtered out of ready_endpoints() in send_request.
  void apply_endpoint_health(net::ServiceId service,
                             std::uint64_t endpoint_key,
                             bool healthy) override;

 private:
  NetworkProfile net_;
  sim::Rng rng_;  ///< loss decisions under an armed fault plan
  std::size_t rr_ = 0;
  std::unordered_set<std::uint64_t> ejected_;  ///< outlier-ejected pod keys
};

/// Builds the HTTP request described by `opts`.
[[nodiscard]] http::Request build_request(const RequestOptions& opts);

/// Builds the request into `req`, reusing its buffers (string capacity,
/// header entries) — the zero-allocation path for pooled request state.
/// Stale headers from a previous use are dropped; the result is
/// byte-identical to build_request() on a fresh object.
void build_request_into(const RequestOptions& opts, http::Request& req);

}  // namespace canal::mesh
