// Scenario programs for the differential dataplane fuzzer.
//
// A ScenarioSpec is a small, fully deterministic description of one
// simulated world: topology shape (nodes/services/pods), L7 traffic
// control (weighted canary splits, direct-response rules), a timed
// request program, and a timed event program (pod kills, link faults,
// gateway replica faults, pod/backend ops from the canal scaling
// vocabulary). The same spec is executed against every dataplane by
// fuzz::run_plane; the generator below produces specs from a (seed,
// index) pair so a fuzzing campaign is reproducible run to run, and a
// single failing spec can be re-created from those two numbers alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace canal::fuzz {

/// One request in the scenario's traffic program. Pods and services are
/// addressed by build-order index, which is identical across planes
/// because every plane rebuilds the same cluster in the same order.
struct RequestSpec {
  sim::TimePoint at = 0;
  std::uint32_t client_service = 0;
  std::uint32_t client_pod = 0;
  std::uint32_t dst_service = 1;
  /// Tenant the request is issued under (mesh::RequestOptions.tenant).
  /// Derived from the request index — NOT from the generator's RNG — so
  /// adding the tenant dimension left every historical (seed, index)
  /// campaign scenario byte-identical.
  std::uint32_t tenant = 1;
  std::string path = "/";
  /// Error-matrix probes: requests that must fail identically everywhere.
  bool null_client = false;    ///< 400 on every plane
  bool unknown_service = false;  ///< 404 on every plane
};

/// A weighted canary split on `service`: requests matching `path_prefix`
/// are split between the service's own cluster and `canary_service`'s
/// cluster; everything else falls through to the default route.
struct SplitSpec {
  std::uint32_t service = 0;
  std::uint32_t canary_service = 1;
  std::uint32_t primary_weight = 90;
  std::uint32_t canary_weight = 10;
  std::string path_prefix = "/canary";
};

/// A direct-response rule on `service`: requests matching `path_prefix`
/// are answered by the L7 proxy itself with `status`, never reaching an
/// endpoint. NoMesh (L4-only) cannot honour it — the documented
/// l7-routing-nomesh divergence.
struct DirectResponseSpec {
  std::uint32_t service = 0;
  int status = 403;
  std::string path_prefix = "/blocked";
};

/// Path prefix matched by the route-table rule a kPushConfig event
/// delivers. Catches the generator's default "/api/items" traffic while
/// staying disjoint from the split ("/canary") and direct-response
/// ("/blocked") prefixes. Shared by the executor (installs the rule) and
/// the oracle (classifies post-push requests as direct-rule matches).
inline constexpr std::string_view kPushedConfigPrefix = "/api";

enum class EventKind : std::uint8_t {
  kPodKill,         ///< crash pod at `at`, restart `duration` later
  kLinkLoss,        ///< loss=1.0 window [at, at+duration)
  kLatencySpike,    ///< +`extra_latency` per hop in [at, at+duration)
  kReplicaCrash,    ///< gateway replica crash at `at`, recover after `duration`
  kAddPod,          ///< scale out `service` by one pod at `at`
  kExtendService,   ///< gateway op: extend `service` onto one more backend
  kRetractService,  ///< gateway op: drop one backend from `service`
  kDrainReplica,    ///< gateway op: gracefully drain one replica
  kPushConfig,      ///< push a route-table epoch for `service` at `at`
  kRotateCerts,     ///< rolling cert rotation wave starting at `at`
};

struct EventSpec {
  EventKind kind = EventKind::kPodKill;
  sim::TimePoint at = 0;
  sim::Duration duration = 0;
  std::uint32_t service = 0;  ///< pod-kill / add-pod / extend / retract
  std::uint32_t pod = 0;      ///< pod index within the service
  std::uint32_t backend = 0;  ///< backend index (replica faults / drain)
  std::uint32_t replica = 0;  ///< replica index within the backend
  sim::Duration extra_latency = 0;  ///< latency-spike magnitude
  /// Status code the route table pushed by kPushConfig answers "/api"
  /// traffic with (a direct-response rule delivered through the modeled
  /// control plane). Defaulted so historical regression snippets that
  /// predate the field still rebuild byte-identical specs.
  int config_status = 418;

  /// True for events that can change request semantics (status, retries,
  /// serving pod) while active. Ops events (add-pod, extend, retract,
  /// drain), latency spikes, and control-plane events must be
  /// semantically transparent — kPushConfig converges to the same table
  /// on every plane, with only the propagation window exempted — so the
  /// oracle compares requests overlapping them at full strictness.
  [[nodiscard]] bool is_fault() const noexcept {
    return kind == EventKind::kPodKill || kind == EventKind::kLinkLoss ||
           kind == EventKind::kReplicaCrash;
  }
};

/// Resilience filter-chain configuration applied identically to every
/// plane (proxy::ResilienceChain: per-tenant token bucket -> per-service
/// circuit breaker -> outlier ejection). Never set by generate_scenario:
/// following the RequestSpec::tenant precedent, arming resilience must
/// not consume generator RNG draws, so every historical (seed, index)
/// campaign scenario stays byte-identical. fuzz_mesh --resilience arms
/// it post-generation via derive_resilience(), which draws from a
/// separately salted RNG keyed by the same (seed, index).
struct ResilienceSpec {
  bool enabled = false;
  std::uint32_t breaker_consecutive_errors = 5;
  sim::Duration breaker_ejection_time = sim::milliseconds(40);
  std::uint32_t outlier_consecutive_errors = 5;
  sim::Duration outlier_ejection_time = sim::milliseconds(40);
  std::uint32_t max_ejection_percent = 50;
  /// Rate limiting is optional within an armed spec: token-bucket
  /// decisions are strictly compared across planes (they depend only on
  /// the arrival schedule), so mixing limited and unlimited campaigns
  /// exercises both the strict and the windowed oracle paths.
  bool rate_limit = false;
  double rate_tokens_per_second = 200.0;
  double rate_burst = 8.0;
};

/// One complete scenario program.
struct ScenarioSpec {
  std::uint64_t seed = 1;    ///< plane RNG seed (core::Topology seed table)
  std::uint32_t index = 0;   ///< campaign index this spec was generated at
  std::uint32_t nodes = 2;
  std::uint32_t node_cores = 8;
  std::vector<std::uint32_t> pods_per_service;  ///< size = service count
  sim::Duration app_service_time = sim::milliseconds(1);
  std::vector<SplitSpec> splits;
  std::vector<DirectResponseSpec> direct_responses;
  std::vector<RequestSpec> requests;
  std::vector<EventSpec> events;
  ResilienceSpec resilience;  ///< disabled unless armed (see above)

  /// Test-only planted bug: when `planted_plane` is >= 0, the executor
  /// misreports the status of requests to `planted_service` on that plane
  /// (by index into fuzz::kPlanes). Never set by generate_scenario; used
  /// by the shrinker tests to plant a reproducible differential failure.
  int planted_plane = -1;
  std::uint32_t planted_service = 0;
  /// Test-only planted bug: when >= 0, the executor suppresses config
  /// epoch *applies* on that plane — its proxies keep serving the
  /// pre-push route table forever. The resulting divergence outlives the
  /// propagation window, so no allowlist entry covers it; used by the
  /// shrinker tests as the stale-route bug. Never set by the generator.
  int planted_skip_config_plane = -1;

  [[nodiscard]] std::size_t service_count() const noexcept {
    return pods_per_service.size();
  }
  /// Shrinker currency: every droppable element of the program.
  [[nodiscard]] std::size_t program_size() const noexcept {
    return requests.size() + events.size() + splits.size() +
           direct_responses.size();
  }
};

/// Deterministically generates scenario `index` of a campaign keyed by
/// `seed`. Same (seed, index) -> identical spec, on any thread.
[[nodiscard]] ScenarioSpec generate_scenario(std::uint64_t seed,
                                             std::uint32_t index);

/// Deterministically derives an armed ResilienceSpec for scenario
/// (seed, index) from a salted RNG that shares no draws with
/// generate_scenario. fuzz_mesh --resilience assigns the result into the
/// generated spec; same (seed, index) -> identical config, any thread.
[[nodiscard]] ResilienceSpec derive_resilience(std::uint64_t seed,
                                               std::uint32_t index);

/// Deterministically derives armed control-plane events (kPushConfig,
/// optionally kRotateCerts) for scenario (seed, index) from a salted RNG
/// that shares no draws with generate_scenario or derive_resilience.
/// fuzz_mesh --control-plane appends the result to the generated spec's
/// event program; same (seed, index, service_count) -> identical events,
/// any thread.
[[nodiscard]] std::vector<EventSpec> derive_control_plane(
    std::uint64_t seed, std::uint32_t index, std::size_t service_count);

/// Emits a self-contained C++ snippet (a gtest TEST body) that rebuilds
/// `spec`, runs all planes, and asserts a clean oracle report — ready to
/// paste into tests/test_fuzz_regressions.cc.
[[nodiscard]] std::string to_cpp_snippet(const ScenarioSpec& spec);

}  // namespace canal::fuzz
