// Unit tests for the network substrate: addresses, flows, ECMP, VXLAN.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <unordered_set>

#include "net/address.h"
#include "net/flow.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/router.h"
#include "net/vswitch.h"

namespace canal::net {
namespace {

TEST(Ipv4Addr, FormatRoundTrip) {
  const Ipv4Addr addr(10, 1, 2, 3);
  EXPECT_EQ(addr.to_string(), "10.1.2.3");
  EXPECT_EQ(Ipv4Addr::parse("10.1.2.3"), addr);
}

TEST(Ipv4Addr, ValuePacking) {
  EXPECT_EQ(Ipv4Addr(1, 2, 3, 4).value(), 0x01020304u);
  EXPECT_TRUE(Ipv4Addr().is_unspecified());
  EXPECT_FALSE(Ipv4Addr(0, 0, 0, 1).is_unspecified());
}

struct ParseCase {
  const char* text;
  bool valid;
};

// Prints the case by value so the test name does not carry the text pointer.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << '"' << c.text << "\" " << (c.valid ? "valid" : "invalid");
}

class Ipv4ParseTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4ParseTest, Parses) {
  const auto& [text, valid] = GetParam();
  EXPECT_EQ(Ipv4Addr::parse(text).has_value(), valid) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Ipv4ParseTest,
    ::testing::Values(ParseCase{"0.0.0.0", true},
                      ParseCase{"255.255.255.255", true},
                      ParseCase{"192.168.1.1", true},
                      ParseCase{"256.0.0.1", false}, ParseCase{"1.2.3", false},
                      ParseCase{"1.2.3.4.5", false}, ParseCase{"", false},
                      ParseCase{"a.b.c.d", false}, ParseCase{"1..2.3", false},
                      ParseCase{"1.2.3.4 ", false},
                      ParseCase{"-1.2.3.4", false}));

TEST(Endpoint, FormatAndOrder) {
  const Endpoint ep{Ipv4Addr(10, 0, 0, 1), 8080};
  EXPECT_EQ(ep.to_string(), "10.0.0.1:8080");
  const Endpoint other{Ipv4Addr(10, 0, 0, 2), 8080};
  EXPECT_LT(ep, other);
}

FiveTuple make_tuple(std::uint16_t sport) {
  return FiveTuple{Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), sport, 80,
                   Protocol::kTcp};
}

TEST(FiveTuple, Reversed) {
  const FiveTuple t = make_tuple(1234);
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FlowHash, Deterministic) {
  EXPECT_EQ(flow_hash(make_tuple(1)), flow_hash(make_tuple(1)));
  EXPECT_NE(flow_hash(make_tuple(1)), flow_hash(make_tuple(2)));
}

TEST(FlowHash, KeyReshufflesPlacement) {
  int moved = 0;
  constexpr int kFlows = 1000;
  for (int i = 0; i < kFlows; ++i) {
    const auto t = make_tuple(static_cast<std::uint16_t>(i));
    if (flow_hash(t, 1) % 8 != flow_hash(t, 2) % 8) ++moved;
  }
  // Changing the hash key must move most flows (this is the consistency
  // hazard Beamer exists to repair).
  EXPECT_GT(moved, kFlows / 2);
}

TEST(FlowHash, UniformAcrossBuckets) {
  constexpr int kFlows = 8000;
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  for (int i = 0; i < kFlows; ++i) {
    ++counts[flow_hash(make_tuple(static_cast<std::uint16_t>(i))) % kBuckets];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kFlows / kBuckets, kFlows / kBuckets * 0.2);
  }
}

TEST(Packet, WireBytesIncludeEncap) {
  Packet p;
  p.tuple = make_tuple(1);
  p.payload_bytes = 100;
  EXPECT_EQ(p.wire_bytes(), 140u);  // + IPv4/TCP headers
  p.vxlan = VxlanHeader{make_tuple(9), 42};
  EXPECT_EQ(p.wire_bytes(), 140u + VxlanHeader::kOverheadBytes);
}

TEST(Packet, Flags) {
  Packet p;
  EXPECT_FALSE(p.has_flag(TcpFlag::kSyn));
  p.set_flag(TcpFlag::kSyn);
  p.set_flag(TcpFlag::kFin);
  EXPECT_TRUE(p.has_flag(TcpFlag::kSyn));
  EXPECT_TRUE(p.has_flag(TcpFlag::kFin));
  EXPECT_FALSE(p.has_flag(TcpFlag::kRst));
}

TEST(Link, TransitLatencyOnly) {
  const Link link(sim::microseconds(100), 0);
  EXPECT_EQ(link.transit(1'000'000), sim::microseconds(100));
}

TEST(Link, TransitWithSerialization) {
  const Link link(sim::microseconds(100), 8'000'000);  // 8 Mbps = 1 B/us
  EXPECT_EQ(link.transit(1000), sim::microseconds(100) + sim::microseconds(1000));
}

TEST(EcmpRouter, RoutesConsistentlyWhileStable) {
  EcmpRouter router;
  router.add_member({Ipv4Addr(1, 1, 1, 1), 80});
  router.add_member({Ipv4Addr(2, 2, 2, 2), 80});
  const auto first = router.route(make_tuple(77));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.route(make_tuple(77)), first);
  }
}

TEST(EcmpRouter, EmptyRoutesNothing) {
  EcmpRouter router;
  EXPECT_FALSE(router.route(make_tuple(1)).has_value());
}

TEST(EcmpRouter, RemovalChangesHashBase) {
  EcmpRouter router;
  for (int i = 0; i < 4; ++i) {
    router.add_member({Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)), 80});
  }
  // Record placements, remove one member, count moved flows.
  std::vector<Endpoint> before;
  for (int i = 0; i < 400; ++i) {
    before.push_back(
        router.route(make_tuple(static_cast<std::uint16_t>(i))).value());
  }
  ASSERT_TRUE(router.remove_member({Ipv4Addr(10, 0, 0, 2), 80}));
  int moved = 0;
  for (int i = 0; i < 400; ++i) {
    const auto after =
        router.route(make_tuple(static_cast<std::uint16_t>(i))).value();
    if (after != before[static_cast<std::size_t>(i)]) ++moved;
  }
  EXPECT_GT(moved, 100);  // far more than the 1/4 that had to move
}

TEST(EcmpRouter, SpreadsLoad) {
  EcmpRouter router;
  for (int i = 0; i < 4; ++i) {
    router.add_member({Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)), 80});
  }
  std::map<Endpoint, int> counts;
  for (int i = 0; i < 4000; ++i) {
    ++counts[router.route(make_tuple(static_cast<std::uint16_t>(i))).value()];
  }
  for (const auto& [ep, count] : counts) {
    EXPECT_NEAR(count, 1000, 250);
  }
}

TEST(VSwitch, MapsVniToServiceAndStrips) {
  VSwitch vswitch;
  vswitch.bind_vni(42, static_cast<ServiceId>(7), static_cast<TenantId>(3));
  Packet p;
  p.tuple = make_tuple(1);
  p.vxlan = VxlanHeader{make_tuple(2), 42};
  ASSERT_TRUE(vswitch.deliver_to_vm(p));
  EXPECT_FALSE(p.vxlan.has_value());
  EXPECT_EQ(p.service_id, static_cast<ServiceId>(7));
  EXPECT_EQ(p.tenant_id, static_cast<TenantId>(3));
}

TEST(VSwitch, DropsUnknownVni) {
  VSwitch vswitch;
  Packet p;
  p.vxlan = VxlanHeader{make_tuple(2), 99};
  EXPECT_FALSE(vswitch.deliver_to_vm(p));
}

TEST(VSwitch, PassthroughWithoutEncap) {
  VSwitch vswitch;
  Packet p;
  p.tuple = make_tuple(1);
  EXPECT_TRUE(vswitch.deliver_to_vm(p));
  EXPECT_FALSE(p.service_id.has_value());
}

TEST(VSwitch, UnbindRemovesMapping) {
  VSwitch vswitch;
  vswitch.bind_vni(42, static_cast<ServiceId>(7), static_cast<TenantId>(3));
  vswitch.unbind_vni(42);
  EXPECT_FALSE(vswitch.lookup(42).has_value());
}

TEST(VSwitch, OverlappingInnerAddressesDifferentiatedByVni) {
  // Two tenants using identical VPC addresses must resolve to different
  // services — the §4.2 requirement.
  VSwitch vswitch;
  vswitch.bind_vni(1, static_cast<ServiceId>(100), static_cast<TenantId>(1));
  vswitch.bind_vni(2, static_cast<ServiceId>(200), static_cast<TenantId>(2));
  Packet a, b;
  a.tuple = b.tuple = make_tuple(5);  // identical inner headers
  a.vxlan = VxlanHeader{make_tuple(10), 1};
  b.vxlan = VxlanHeader{make_tuple(11), 2};
  ASSERT_TRUE(vswitch.deliver_to_vm(a));
  ASSERT_TRUE(vswitch.deliver_to_vm(b));
  EXPECT_NE(a.service_id, b.service_id);
}

TEST(VSwitch, TunnelSpreadingAcrossCores) {
  VSwitch vswitch;
  std::set<std::size_t> cores_hit;
  for (std::uint16_t sport = 40000; sport < 40040; ++sport) {
    Packet p;
    p.tuple = make_tuple(1);
    FiveTuple outer = make_tuple(sport);
    outer.protocol = Protocol::kUdp;
    p.vxlan = VxlanHeader{outer, 1};
    cores_hit.insert(vswitch.core_for(p, 4));
  }
  // 40 distinct outer source ports must land on all 4 cores.
  EXPECT_EQ(cores_hit.size(), 4u);
}

}  // namespace
}  // namespace canal::net
