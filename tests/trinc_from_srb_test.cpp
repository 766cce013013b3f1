// Experiment E1: the paper's Theorem 1 — SRB implements the TrInc
// interface. Exercised over the trusted SRB primitive (SrbHub) under
// adversarial schedules, plus a Byzantine host bypassing the local
// monotonicity refusal.
#include <gtest/gtest.h>

#include "broadcast/srb_hub.h"
#include "sim/adversaries.h"
#include "test_util.h"
#include "trusted/trinc_from_srb.h"

namespace unidir::trusted {
namespace {

using broadcast::SrbHub;
using broadcast::SrbHubEndpoint;
using testutil::Node;

constexpr sim::Channel kSrbCh = 40;

struct Fixture {
  sim::World world;
  SrbHub hub;
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<SrbHubEndpoint>> endpoints;
  std::vector<std::unique_ptr<TrincFromSrb>> trincs;

  Fixture(std::size_t n, std::uint64_t seed, Time max_delay = 30)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, max_delay)),
        hub(world, kSrbCh) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(&world.spawn<Node>());
      endpoints.push_back(hub.make_endpoint(*nodes.back()));
      trincs.push_back(std::make_unique<TrincFromSrb>(
          *endpoints.back(), nodes.back()->id()));
    }
    world.start();
  }
};

TEST(TrincFromSrb, Theorem1Property1CorrectAttestEventuallyChecks) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture fx(4, seed);
    const auto a = fx.trincs[0]->attest(1, bytes_of("m"));
    ASSERT_TRUE(a.has_value());
    fx.world.run_to_quiescence();
    for (auto& t : fx.trincs)
      EXPECT_TRUE(t->check(*a, 0)) << "seed " << seed;
  }
}

TEST(TrincFromSrb, Theorem1Property2UnattestedNeverChecks) {
  Fixture fx(4, 9);
  (void)fx.trincs[0]->attest(1, bytes_of("real"));
  fx.world.run_to_quiescence();
  SrbAttestation forged;
  forged.owner = 0;
  forged.broadcast_seq = 1;
  forged.seq = 1;
  forged.message = bytes_of("never attested");
  for (auto& t : fx.trincs) EXPECT_FALSE(t->check(forged, 0));
  // Wrong owner claim also fails.
  SrbAttestation real{0, 1, 1, bytes_of("real")};
  for (auto& t : fx.trincs) {
    EXPECT_TRUE(t->check(real, 0));
    EXPECT_FALSE(t->check(real, 1));
  }
}

TEST(TrincFromSrb, CheckIsFalseBeforeDeliveryTrueAfter) {
  auto adversary = std::make_unique<sim::PartitionAdversary>();
  auto* part = adversary.get();
  sim::World w(3, std::move(adversary));
  SrbHub hub(w, kSrbCh);
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<SrbHubEndpoint>> eps;
  std::vector<std::unique_ptr<TrincFromSrb>> trincs;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(&w.spawn<Node>());
    eps.push_back(hub.make_endpoint(*nodes.back()));
    trincs.push_back(std::make_unique<TrincFromSrb>(*eps.back(),
                                                    nodes.back()->id()));
  }
  part->block({0}, {2});
  w.start();
  const auto a = trincs[0]->attest(1, bytes_of("m"));
  w.run_to_quiescence();
  EXPECT_TRUE(trincs[1]->check(*a, 0));
  EXPECT_FALSE(trincs[2]->check(*a, 0));  // copy still held
  part->clear();
  w.network().flush_held();
  w.run_to_quiescence();
  EXPECT_TRUE(trincs[2]->check(*a, 0));  // "eventually"
}

TEST(TrincFromSrb, LocalMonotonicityRefusal) {
  Fixture fx(3, 2);
  ASSERT_TRUE(fx.trincs[0]->attest(5, bytes_of("a")).has_value());
  EXPECT_FALSE(fx.trincs[0]->attest(5, bytes_of("b")).has_value());
  EXPECT_FALSE(fx.trincs[0]->attest(3, bytes_of("c")).has_value());
  ASSERT_TRUE(fx.trincs[0]->attest(6, bytes_of("d")).has_value());
}

TEST(TrincFromSrb, ByzantineCounterReuseFilteredConsistently) {
  // A Byzantine host bypasses the local refusal and broadcasts two
  // attestation messages with the SAME counter value c. The C[q] filter
  // keeps only the first (in SRB order) — identically at every correct
  // process, because SRB delivers the same stream everywhere.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture fx(4, seed);
    // Bypass: write the wire format directly, twice, same c.
    serde::Writer w1;
    w1.u8(1);  // wire tag of trinc-attest
    w1.uvarint(7);
    w1.bytes(bytes_of("first"));
    serde::Writer w2;
    w2.u8(1);
    w2.uvarint(7);
    w2.bytes(bytes_of("second"));
    fx.world.mark_byzantine(fx.nodes[0]->id());
    fx.endpoints[0]->broadcast(w1.take());
    fx.endpoints[0]->broadcast(w2.take());
    fx.world.run_to_quiescence();

    SrbAttestation first{0, 1, 7, bytes_of("first")};
    SrbAttestation second{0, 2, 7, bytes_of("second")};
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_TRUE(fx.trincs[i]->check(first, 0)) << "seed " << seed;
      EXPECT_FALSE(fx.trincs[i]->check(second, 0)) << "seed " << seed;
      EXPECT_EQ(fx.trincs[i]->counter_of(0), 7u);
    }
  }
}

TEST(TrincFromSrb, GapsInCounterValuesAccepted) {
  Fixture fx(3, 4);
  const auto a = fx.trincs[0]->attest(10, bytes_of("x"));
  const auto b = fx.trincs[0]->attest(100, bytes_of("y"));
  fx.world.run_to_quiescence();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(fx.trincs[i]->check(*a, 0));
    EXPECT_TRUE(fx.trincs[i]->check(*b, 0));
    EXPECT_EQ(fx.trincs[i]->counter_of(0), 100u);
  }
}

TEST(TrincFromSrb, MalformedBroadcastAttestsNothing) {
  Fixture fx(3, 5);
  fx.world.mark_byzantine(fx.nodes[0]->id());
  fx.endpoints[0]->broadcast(Bytes{0xFF, 0xFF, 0xFF});
  fx.world.run_to_quiescence();
  EXPECT_EQ(fx.trincs[1]->counter_of(0), 0u);
  EXPECT_EQ(fx.trincs[2]->counter_of(0), 0u);
}

TEST(TrincFromSrb, ConcurrentAttestersDoNotInterfere) {
  Fixture fx(5, 6);
  std::vector<SrbAttestation> all;
  for (std::size_t i = 0; i < 5; ++i)
    for (SeqNum c = 1; c <= 3; ++c)
      all.push_back(*fx.trincs[i]->attest(
          c, bytes_of(testutil::numbered("p", i) +
                      testutil::numbered("c", c))));
  fx.world.run_to_quiescence();
  for (auto& t : fx.trincs)
    for (const auto& a : all) EXPECT_TRUE(t->check(a, a.owner));
}

}  // namespace
}  // namespace unidir::trusted
