// core::Topology: the one cluster + dataplane builder. Cross-plane
// comparisons (the fuzz oracle, the bench's per-plane tables) rely on every
// plane seeing the same cluster, and seed sweeps rely on every plane
// drawing from spec.seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "canal/topology.h"
#include "sim/fault.h"

namespace canal::core {
namespace {

TopologySpec mixed_spec() {
  TopologySpec spec;
  spec.nodes = 3;
  spec.node_cores = 4;
  spec.pods_per_service = {2, 5, 1, 3};
  spec.gateway_backends = 3;
  spec.seed = 42;
  return spec;
}

/// (service id, pod id, node id) for every pod, in cluster order.
using Shape = std::vector<std::tuple<std::uint64_t, std::uint64_t,
                                     std::uint32_t>>;

Shape shape_of(const Topology& topology) {
  Shape shape;
  for (const auto& pod : topology.cluster.pods()) {
    shape.emplace_back(net::id_value(pod->service()),
                       net::id_value(pod->id()),
                       net::id_value(pod->node().id()));
  }
  return shape;
}

std::vector<std::uint64_t> service_ids(const Topology& topology) {
  std::vector<std::uint64_t> ids;
  for (const k8s::Service* service : topology.services) {
    ids.push_back(net::id_value(service->id));
  }
  return ids;
}

TEST(Topology, BuildsTheSpecShapeInServiceOrder) {
  const Topology topology(mixed_spec());
  EXPECT_EQ(topology.cluster.nodes().size(), 3u);
  ASSERT_EQ(topology.services.size(), 4u);
  std::size_t pods = 0;
  for (std::size_t s = 0; s < topology.services.size(); ++s) {
    EXPECT_EQ(topology.services[s]->name, "service-" + std::to_string(s));
    EXPECT_EQ(topology.services[s]->endpoints.size(),
              mixed_spec().pods_per_service[s]);
    pods += topology.services[s]->endpoints.size();
  }
  EXPECT_EQ(topology.cluster.pod_count(), pods);
}

TEST(Topology, EveryPlaneSeesTheSameCluster) {
  Topology nomesh(mixed_spec());
  Topology istio(mixed_spec());
  Topology ambient(mixed_spec());
  Topology canal(mixed_spec());
  Topology proxyless(mixed_spec());
  nomesh.build_nomesh();
  istio.build_istio();
  ambient.build_ambient();
  canal.build_canal();
  proxyless.build_proxyless();

  const Shape reference = shape_of(nomesh);
  ASSERT_FALSE(reference.empty());
  for (const Topology* other : {&istio, &ambient, &canal, &proxyless}) {
    EXPECT_EQ(service_ids(*other), service_ids(nomesh));
    EXPECT_EQ(shape_of(*other), reference);
  }
  // Both gateway planes place services on the same backends.
  for (std::size_t s = 0; s < canal.services.size(); ++s) {
    const auto canal_backends =
        canal.gateway->placement_of(canal.services[s]->id);
    const auto proxyless_backends =
        proxyless.gateway->placement_of(proxyless.services[s]->id);
    ASSERT_EQ(canal_backends.size(), proxyless_backends.size());
    for (std::size_t b = 0; b < canal_backends.size(); ++b) {
      EXPECT_EQ(canal_backends[b]->id(), proxyless_backends[b]->id());
    }
  }
}

TEST(Topology, BorrowedLoopBuildsTheSameCluster) {
  sim::EventLoop shard_loop;
  Topology borrowed(shard_loop, mixed_spec());
  const Topology owned(mixed_spec());
  EXPECT_EQ(&borrowed.loop, &shard_loop);
  EXPECT_NE(&owned.loop, &shard_loop);
  EXPECT_EQ(service_ids(borrowed), service_ids(owned));
  EXPECT_EQ(shape_of(borrowed), shape_of(owned));
}

/// Requests NoMesh drops under 20% link loss (single attempt, so every
/// drop surfaces as a per-try timeout).
std::uint64_t nomesh_drops(std::uint64_t seed) {
  TopologySpec spec;
  spec.seed = seed;
  Topology topology(spec);
  sim::FaultPlan plan;
  plan.link_loss(0, sim::seconds(10), 0.2);
  mesh::NetworkProfile network;
  network.faults = &plan;
  mesh::NoMesh& nomesh = topology.build_nomesh(network);

  mesh::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.per_try_timeout = sim::milliseconds(25);
  sim::Rng retry_rng(7);
  std::uint64_t drops = 0;
  for (int i = 0; i < 200; ++i) {
    topology.loop.post_at(i * sim::milliseconds(10), [&] {
      mesh::RequestOptions opts;
      opts.client = topology.services.front()->endpoints.front();
      opts.dst_service = topology.services.back()->id;
      nomesh.send_request_with_retries(
          opts, policy, retry_rng, [&drops](mesh::RequestResult r) {
            if (r.timed_out) ++drops;
          });
    });
  }
  topology.loop.run();
  return drops;
}

TEST(Topology, NoMeshLossFollowsTheSeed) {
  const std::uint64_t seed1 = nomesh_drops(1);
  EXPECT_GT(seed1, 0u);
  EXPECT_EQ(nomesh_drops(1), seed1);
  EXPECT_NE(nomesh_drops(2), seed1);
}

}  // namespace
}  // namespace canal::core
