// Cluster state: node/pod/service inventory and lifecycle.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "k8s/objects.h"
#include "net/ids.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace canal::k8s {

/// Owns every object in one tenant cluster and allocates identifiers/IPs.
class Cluster {
 public:
  Cluster(sim::EventLoop& loop, net::TenantId tenant, sim::Rng rng);

  [[nodiscard]] net::TenantId tenant() const noexcept { return tenant_; }
  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }

  Node& add_node(net::AzId az, std::size_t cores);
  Service& add_service(std::string name, bool wants_l7 = true);

  /// Creates a pod for `service`, placed on the node with the fewest pods
  /// (or a specific node). The pod starts kPending; the caller (mesh control
  /// plane) marks it Running when its dataplane config is in place.
  Pod& add_pod(Service& service, AppProfile profile,
               Node* placement = nullptr);

  /// Terminates a pod and removes it from its service's endpoints.
  void remove_pod(net::PodId id);

  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Pod>>& pods() const {
    return pods_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Service>>& services() const {
    return services_;
  }

  [[nodiscard]] Pod* find_pod(net::PodId id);
  [[nodiscard]] Service* find_service(net::ServiceId id);
  [[nodiscard]] Service* find_service(const std::string& name);

  [[nodiscard]] std::size_t pod_count() const noexcept { return pods_.size(); }
  [[nodiscard]] std::size_t running_pods() const;

  /// Pods hosted on `node`.
  [[nodiscard]] std::vector<Pod*> pods_on(const Node& node);

  /// Keeps `window` of busy history on every node's CPUs, current and
  /// added later, so their utilization can be read (sim::CpuCore). Node
  /// CPUs keep none until a reader asks; history only ever grows.
  void track_node_utilization(sim::Duration window);

 private:
  sim::EventLoop& loop_;
  net::TenantId tenant_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Pod>> pods_;
  std::vector<std::unique_ptr<Service>> services_;
  sim::Duration node_history_ = 0;
  std::uint32_t next_node_ = 1;
  std::uint64_t next_pod_ = 1;
  std::uint64_t next_service_ = 1;
  std::uint32_t next_ip_suffix_ = 1;
};

}  // namespace canal::k8s
