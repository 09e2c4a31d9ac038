// Appendix B deployment modes, quantified:
//  * proxyless vs on-node-proxy Canal: latency, user CPU, and the
//    functional trade (observability, auth mechanism),
//  * keyless mode: handshake latency penalty of a customer-premises key
//    server vs the in-AZ shared one,
//  * §6.4 innocence probing: the full-mesh protocol/AZ matrix.
#include <cstdio>

#include "bench/harness.h"
#include "canal/innocence.h"
#include "canal/proxyless.h"

namespace canal::bench {
namespace {

void proxyless_vs_onnode() {
  Table table("Appendix B: proxyless vs on-node-proxy Canal");
  table.header({"mode", "mean latency", "user cpu/req", "observability",
                "auth"});

  // On-node-proxy Canal.
  {
    core::Topology bed;
    bed.build_canal();
    sim::Histogram latency;
    const double cpu_before = bed.canal->user_cpu_core_seconds();
    int n = 0;
    for (int i = 0; i < 200; ++i) {
      bed.loop.schedule_at(i * sim::milliseconds(10), [&] {
        mesh::RequestOptions opts = request(bed, true);
        bed.canal->send_request(opts, [&](mesh::RequestResult r) {
          if (r.ok()) {
            latency.record(sim::to_microseconds(r.latency));
            ++n;
          }
        });
      });
    }
    bed.loop.run();
    table.row({"canal (on-node proxy)", fmt_us(latency.mean()),
               fmt("%.1f us",
                   (bed.canal->user_cpu_core_seconds() - cpu_before) / n *
                       1e6),
               "L4 on-node + L7 gateway", "workload certs (mTLS)"});
  }

  // Proxyless.
  for (const bool user_certs : {true, false}) {
    core::Topology bed;
    core::GatewayConfig gateway_config;
    bed.gateway = std::make_unique<core::MeshGateway>(
        bed.loop, gateway_config, sim::Rng(51));
    bed.gateway->add_az(2);
    core::ProxylessMesh::Config config;
    config.user_managed_certs = user_certs;
    config.eni.max_enis_per_node = 64;
    core::ProxylessMesh proxyless(bed.loop, bed.cluster, *bed.gateway, config,
                                  sim::Rng(53));
    proxyless.install();
    sim::Histogram latency;
    int n = 0;
    for (int i = 0; i < 200; ++i) {
      bed.loop.schedule_at(i * sim::milliseconds(10), [&] {
        mesh::RequestOptions opts = request(bed, true);
        proxyless.send_request(opts, [&](mesh::RequestResult r) {
          if (r.ok()) {
            latency.record(sim::to_microseconds(r.latency));
            ++n;
          }
        });
      });
    }
    bed.loop.run();
    table.row({user_certs ? "proxyless (user certs)"
                          : "proxyless (gateway TLS)",
               fmt_us(latency.mean()),
               fmt("%.1f us", proxyless.user_cpu_core_seconds() / n * 1e6),
               "gateway-side only (partial)", "per-container ENI"});
  }
  table.print();
  std::printf(
      "  proxyless removes all on-node software; user-cert mode pays "
      "app-side TLS CPU, ENI limits cap pod density\n");
}

void keyless_latency() {
  Table table("Appendix B: keyless mode handshake latency");
  table.header({"key server", "one-way transit", "new-conn request latency"});
  struct Mode {
    const char* name;
    sim::Duration one_way;
  };
  const Mode modes[] = {
      {"in-AZ shared key server", sim::microseconds(350)},
      {"customer IDC (keyless, same region)", sim::milliseconds(2)},
      {"customer IDC (keyless, cross region)", sim::milliseconds(15)},
  };
  for (const auto& mode : modes) {
    core::TopologySpec options;
    options.app_service_time = sim::microseconds(100);
    core::Topology bed(options);
    core::GatewayConfig gateway_config;
    gateway_config.replica_costs.crypto.key_server_one_way = mode.one_way;
    bed.gateway = std::make_unique<core::MeshGateway>(bed.loop, gateway_config,
                                                      sim::Rng(61));
    bed.gateway->add_az(2);
    bed.key_server = std::make_unique<crypto::KeyServer>(
        bed.loop, static_cast<net::AzId>(0), 8, sim::Rng(63));
    core::CanalMesh::Config mesh_config;
    mesh_config.onnode.costs.crypto.key_server_one_way = mode.one_way;
    bed.canal = std::make_unique<core::CanalMesh>(
        bed.loop, bed.cluster, *bed.gateway, mesh_config, sim::Rng(67));
    bed.canal->install();
    bed.canal->attach_key_server(static_cast<net::AzId>(0),
                                 bed.key_server.get());
    sim::Histogram latency;
    for (int i = 0; i < 100; ++i) {
      bed.loop.schedule_at(i * sim::milliseconds(10), [&] {
        mesh::RequestOptions opts = request(bed, true);
        bed.canal->send_request(opts, [&](mesh::RequestResult r) {
          if (r.ok()) latency.record(sim::to_microseconds(r.latency));
        });
      });
    }
    bed.loop.run();
    table.row({mode.name, sim::format_duration(mode.one_way),
               fmt_ms(latency.mean() / 1000.0)});
  }
  table.print();
  std::printf(
      "  keyless keeps private keys out of the cloud at the cost of "
      "handshake RTTs to the customer's signer\n");
}

void innocence_matrix() {
  core::TopologySpec options;
  options.app_service_time = sim::milliseconds(1);
  core::Topology bed(options);
  core::GatewayConfig gateway_config;
  bed.gateway = std::make_unique<core::MeshGateway>(bed.loop, gateway_config,
                                                    sim::Rng(71));
  bed.gateway->add_az(2);
  bed.gateway->add_az(2);
  bed.canal = std::make_unique<core::CanalMesh>(
      bed.loop, bed.cluster, *bed.gateway, core::CanalMesh::Config{},
      sim::Rng(73));
  bed.canal->install();
  bed.key_server = std::make_unique<crypto::KeyServer>(
      bed.loop, static_cast<net::AzId>(0), 8, sim::Rng(79));
  bed.canal->attach_key_server(static_cast<net::AzId>(0),
                               bed.key_server.get());
  bed.canal->attach_key_server(static_cast<net::AzId>(1),
                               bed.key_server.get());

  core::InnocenceProber::Config config;
  config.probe_interval = sim::seconds(5);
  core::InnocenceProber prober(bed.loop, *bed.canal, bed.cluster, config);
  prober.deploy({static_cast<net::AzId>(0), static_cast<net::AzId>(1)});
  prober.start();
  bed.loop.run_until(bed.loop.now() + sim::minutes(2));
  prober.stop();
  bed.loop.run_until(bed.loop.now() + sim::seconds(5));

  Table table("§6.4 innocence probing: per-destination health");
  table.header({"destination", "az", "success", "mean latency"});
  const auto& instances = prober.instances();
  for (std::size_t dst = 0; dst < instances.size(); ++dst) {
    std::uint64_t ok = 0, failed = 0;
    double latency_sum = 0;
    std::size_t cells = 0;
    for (std::size_t src = 0; src < instances.size(); ++src) {
      if (src == dst) continue;
      const auto it = prober.matrix().find({src, dst});
      if (it == prober.matrix().end()) continue;
      ok += it->second.ok;
      failed += it->second.failed;
      latency_sum += it->second.latency_us.mean();
      ++cells;
    }
    table.row(
        {std::string(core::probe_protocol_name(instances[dst].protocol)),
         "AZ" + std::to_string(net::id_value(instances[dst].az)),
         fmt_pct(ok == 0 ? 0.0
                         : static_cast<double>(ok) /
                               static_cast<double>(ok + failed)),
         fmt_us(cells == 0 ? 0.0 : latency_sum / cells)});
  }
  table.print();
  std::printf("  infra innocent: %s (all %zu probe pairs healthy)\n",
              prober.infra_innocent() ? "YES" : "NO", prober.matrix().size());
}

}  // namespace
}  // namespace canal::bench

int main() {
  canal::bench::proxyless_vs_onnode();
  canal::bench::keyless_latency();
  canal::bench::innocence_matrix();
  return 0;
}
