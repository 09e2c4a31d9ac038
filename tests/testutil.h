// Shared test utilities.
//
// client_server_spec and frontend_backend_spec are the small
// core::Topology shapes the dataplane tests share.
//
// MtlsFixture centralises the CA / keypair / EndpointConfig setup that
// every mTLS handshake test needs: one certificate authority, a client
// and a server keypair, and ready-made endpoint configs whose signers
// borrow the fixture's RNG. The fixture must outlive any handshake built
// from its configs (the signer lambdas capture `this`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "canal/topology.h"
#include "crypto/cert.h"
#include "crypto/handshake.h"
#include "crypto/keyexchange.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace canal::testutil {

/// Two 16-core nodes; service-0 (4 pods) serves, service-1 holds the one
/// client pod; a three-backend gateway.
inline core::TopologySpec client_server_spec(std::uint64_t seed) {
  core::TopologySpec spec;
  spec.node_cores = 16;
  spec.pods_per_service = {4, 1};
  spec.gateway_backends = 3;
  spec.seed = seed;
  return spec;
}

/// Two services of `pods` pods each on `nodes` 8-core nodes: service-0
/// holds the clients (the frontend), service-1 serves (the backend).
inline core::TopologySpec frontend_backend_spec(std::uint64_t seed,
                                                std::size_t nodes = 2,
                                                std::size_t pods = 3) {
  core::TopologySpec spec;
  spec.nodes = nodes;
  spec.pods_per_service = {pods, pods};
  spec.seed = seed;
  return spec;
}

struct MtlsFixture {
  struct Params {
    std::uint64_t seed = 79;
    std::string ca_name = "mesh-ca";
    std::string client_identity = "spiffe://t1/client";
    std::string server_identity = "spiffe://t1/server";
    sim::Duration cert_lifetime = sim::hours(24);
  };

  MtlsFixture() : MtlsFixture(Params{}) {}
  explicit MtlsFixture(Params p)
      : params(std::move(p)),
        rng(params.seed),
        ca(params.ca_name, rng),
        client_key(crypto::generate_keypair(rng)),
        server_key(crypto::generate_keypair(rng)) {}

  [[nodiscard]] crypto::EndpointConfig client_config() {
    return config_for(params.client_identity, client_key);
  }
  [[nodiscard]] crypto::EndpointConfig server_config() {
    return config_for(params.server_identity, server_key);
  }

  /// Issues a fresh certificate for `identity` signed by the fixture CA
  /// and wires up a signer over `key`. `key` must be owned by the fixture.
  [[nodiscard]] crypto::EndpointConfig config_for(const std::string& identity,
                                                  const crypto::KeyPair& key) {
    crypto::EndpointConfig config;
    config.certificate =
        ca.issue(identity, key.public_key, 0, params.cert_lifetime, rng);
    config.signer = [this, &key](std::string_view transcript) {
      return crypto::sign(key.private_key, transcript, rng);
    };
    config.ca_public_key = ca.public_key();
    config.ca_name = params.ca_name;
    return config;
  }

  Params params;
  sim::Rng rng;
  crypto::CertificateAuthority ca;
  crypto::KeyPair client_key;
  crypto::KeyPair server_key;
};

}  // namespace canal::testutil
