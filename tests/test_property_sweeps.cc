// Heavier parameterized property sweeps across modules: handshake
// correctness over random seeds, HTTP parser round-trip fuzzing with
// deterministic request generators, route-table weighted-split accuracy
// across weight mixes, shuffle-shard isolation across pool shapes, and
// record-channel stream properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "canal/sharding.h"
#include "crypto/handshake.h"
#include "http/parser.h"
#include "http/route.h"
#include "sim/rng.h"
#include "tests/testutil.h"

namespace canal {
namespace {

// ---- mTLS handshake: correctness holds for any seed ------------------------

class HandshakeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HandshakeSweep, KeysAlwaysAgreeAndRecordsFlow) {
  testutil::MtlsFixture fx({.seed = GetParam(),
                            .ca_name = "ca",
                            .client_identity = "spiffe://t/c",
                            .server_identity = "spiffe://t/s",
                            .cert_lifetime = sim::hours(1)});
  sim::Rng& rng = fx.rng;

  crypto::ClientHandshake client(fx.client_config(), rng);
  crypto::ServerHandshake server(fx.server_config(), rng);
  const auto server_hello = server.on_client_hello(client.start());
  ASSERT_TRUE(server_hello.has_value());
  const auto client_fin = client.on_server_hello(*server_hello, 0);
  ASSERT_TRUE(client_fin.has_value());
  const auto server_fin = server.on_client_finished(*client_fin, 0);
  ASSERT_TRUE(server_fin.has_value());
  ASSERT_TRUE(client.on_server_finished(*server_fin));
  ASSERT_EQ(client.keys().client_to_server, server.keys().client_to_server);

  // A short random conversation over the derived keys.
  crypto::RecordChannel tx(client.keys().client_to_server);
  crypto::RecordChannel rx(server.keys().client_to_server);
  for (int i = 0; i < 8; ++i) {
    std::string message(static_cast<std::size_t>(rng.uniform_int(0, 300)),
                        static_cast<char>('a' + i));
    const auto opened = rx.open(tx.seal(message));
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, message);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandshakeSweep,
                         ::testing::Values(1u, 42u, 1234u, 987654321u,
                                           0xDEADBEEFu));

// ---- HTTP parser: serialize/parse round trip under random messages ---------

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RoundTripsRandomRequests) {
  sim::Rng rng(GetParam());
  const http::Method methods[] = {http::Method::kGet, http::Method::kPost,
                                  http::Method::kPut, http::Method::kDelete,
                                  http::Method::kPatch};
  for (int trial = 0; trial < 50; ++trial) {
    http::Request original;
    original.method =
        methods[rng.uniform_int(0, static_cast<std::int64_t>(
                                       std::size(methods)) -
                                       1)];
    original.path = "/p";
    const auto segments = rng.uniform_int(0, 5);
    for (std::int64_t s = 0; s < segments; ++s) {
      original.path += "/seg" + std::to_string(rng.uniform_int(0, 999));
    }
    if (rng.chance(0.4)) original.path += "?k=" + std::to_string(trial);
    const auto headers = rng.uniform_int(0, 8);
    for (std::int64_t h = 0; h < headers; ++h) {
      original.headers.add("X-H" + std::to_string(h),
                           std::string(static_cast<std::size_t>(
                                           rng.uniform_int(1, 40)),
                                       'v'));
    }
    if (rng.chance(0.6)) {
      original.body.assign(
          static_cast<std::size_t>(rng.uniform_int(0, 2000)), 'b');
      original.headers.set("Content-Length",
                           std::to_string(original.body.size()));
    }

    // Feed in random chunk sizes.
    const std::string wire = original.serialize();
    http::RequestParser parser;
    std::size_t offset = 0;
    http::ParseStatus status = http::ParseStatus::kNeedMore;
    while (offset < wire.size()) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform_int(1, 64));
      const auto n = std::min(chunk, wire.size() - offset);
      status = parser.feed(std::string_view(wire).substr(offset, n));
      offset += n;
    }
    ASSERT_EQ(status, http::ParseStatus::kComplete) << "trial " << trial;
    EXPECT_EQ(parser.request().method, original.method);
    EXPECT_EQ(parser.request().path, original.path);
    EXPECT_EQ(parser.request().body, original.body);
    EXPECT_EQ(parser.request().headers.size(), original.headers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(3u, 5u, 8u, 13u, 21u));

// ---- Weighted splits: accuracy across weight mixes --------------------------

struct SplitCase {
  std::uint32_t stable;
  std::uint32_t canary;
};

class SplitSweep : public ::testing::TestWithParam<SplitCase> {};

TEST_P(SplitSweep, FractionConvergesToWeights) {
  const auto& [stable, canary] = GetParam();
  http::RouteTable table;
  http::RouteRule rule;
  rule.match.path_kind = http::RouteMatch::PathKind::kPrefix;
  rule.match.path = "/";
  rule.action.clusters = {{"stable", stable}, {"canary", canary}};
  table.add_rule(std::move(rule));

  sim::Rng rng(5001);
  int canary_hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    http::Request req;
    req.path = "/x";
    const auto result = table.resolve(req, rng.uniform());
    ASSERT_TRUE(result.has_value());
    if (result->cluster == "canary") ++canary_hits;
  }
  const double expected =
      static_cast<double>(canary) / static_cast<double>(stable + canary);
  EXPECT_NEAR(canary_hits / static_cast<double>(kN), expected,
              3.5 * std::sqrt(expected * (1 - expected) / kN) + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Weights, SplitSweep,
                         ::testing::Values(SplitCase{99, 1}, SplitCase{95, 5},
                                           SplitCase{80, 20},
                                           SplitCase{50, 50},
                                           SplitCase{1, 99}));

// ---- Shuffle sharding: isolation across pool shapes --------------------------

// All fields are 64-bit so the struct has no padding: the test name prints
// the raw bytes, and padding would make it differ from run to run.
struct ShardShape {
  std::uint64_t pool;
  std::size_t shard;
  std::int64_t services;
};

class ShardSweep : public ::testing::TestWithParam<ShardShape> {};

TEST_P(ShardSweep, AllAssignmentsUniqueAndIsolated) {
  const auto& [pool_size, shard, services] = GetParam();
  core::ShuffleShardAssigner assigner(shard, sim::Rng(6007));
  std::vector<net::BackendId> pool;
  for (std::uint64_t i = 1; i <= pool_size; ++i) {
    pool.push_back(static_cast<net::BackendId>(i));
  }
  assigner.set_pool(pool);
  std::int64_t assigned = 0;
  for (std::int64_t s = 1; s <= services; ++s) {
    if (assigner.assign(static_cast<net::ServiceId>(s))) ++assigned;
  }
  EXPECT_EQ(assigned, services);
  for (std::int64_t s = 1; s <= services; ++s) {
    EXPECT_TRUE(assigner.isolated(static_cast<net::ServiceId>(s)));
  }
  EXPECT_LT(assigner.max_pairwise_overlap(), shard);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShardSweep,
                         ::testing::Values(ShardShape{8, 2, 20},
                                           ShardShape{12, 3, 60},
                                           ShardShape{20, 4, 150},
                                           ShardShape{30, 3, 300}));

// ---- Record channel: long streams stay consistent ----------------------------

TEST(RecordStream, ThousandRecordsInOrder) {
  const crypto::Key256 key = crypto::derive_key("stream", "k");
  crypto::RecordChannel tx(key), rx(key);
  for (int i = 0; i < 1000; ++i) {
    const std::string message = "msg-" + std::to_string(i);
    const auto opened = rx.open(tx.seal(message));
    ASSERT_TRUE(opened.has_value()) << i;
    ASSERT_EQ(*opened, message);
  }
  EXPECT_EQ(tx.sealed_records(), 1000u);
}

TEST(RecordStream, OutOfOrderRejected) {
  const crypto::Key256 key = crypto::derive_key("stream", "k2");
  crypto::RecordChannel tx(key), rx(key);
  const auto r0 = tx.seal("zero");
  const auto r1 = tx.seal("one");
  EXPECT_FALSE(rx.open(r1).has_value());  // skipped a sequence number
  EXPECT_TRUE(rx.open(r0).has_value());
  EXPECT_TRUE(rx.open(r1).has_value());
}

}  // namespace
}  // namespace canal
