#include <gtest/gtest.h>

#include "broadcast/echo.h"
#include "sim/adversaries.h"
#include "test_util.h"

namespace unidir::broadcast {
namespace {

using testutil::Node;

constexpr sim::Channel kCh = 25;

struct Fixture {
  sim::World world;
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<EchoBroadcastEndpoint>> endpoints;

  Fixture(std::size_t n, std::size_t f, std::uint64_t seed,
          Time max_delay = 15)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, max_delay)) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(&world.spawn<Node>());
      endpoints.push_back(
          std::make_unique<EchoBroadcastEndpoint>(*nodes.back(), kCh, n, f));
    }
  }
};

TEST(EchoBroadcast, RequiresNGreaterThan3F) {
  sim::World w(1, std::make_unique<sim::ImmediateAdversary>());
  auto& node = w.spawn<Node>();
  EXPECT_THROW(EchoBroadcastEndpoint(node, kCh, 3, 1), std::invalid_argument);
}

struct Case {
  std::size_t n;
  std::size_t f;
  std::uint64_t seed;
  int messages;
};

class EchoP : public ::testing::TestWithParam<Case> {};

TEST_P(EchoP, CorrectSenderSatisfiesAllSrbProperties) {
  const auto& c = GetParam();
  Fixture fx(c.n, c.f, c.seed);
  fx.world.start();
  std::vector<std::vector<Bytes>> bcasts(c.n);
  for (int k = 0; k < c.messages; ++k) {
    const Bytes m = bytes_of("m" + std::to_string(k));
    fx.endpoints[0]->broadcast(m);
    bcasts[0].push_back(m);
  }
  fx.world.run_to_quiescence();
  std::vector<SrbView> views;
  for (std::size_t i = 0; i < c.n; ++i)
    views.push_back({fx.nodes[i]->id(), fx.endpoints[i].get(), bcasts[i]});
  const auto violation = check_srb(views);
  EXPECT_FALSE(violation.has_value())
      << to_string(violation->kind) << ": " << violation->detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EchoP,
                         ::testing::Values(Case{4, 1, 1, 5}, Case{4, 1, 2, 5},
                                           Case{7, 2, 3, 4},
                                           Case{10, 3, 4, 3},
                                           Case{13, 4, 5, 2}));

TEST(EchoBroadcast, LinearMessageComplexity) {
  Fixture fx(10, 3, 7, /*max_delay=*/3);
  fx.world.start();
  fx.endpoints[0]->broadcast(bytes_of("count me"));
  fx.world.run_to_quiescence();
  // SEND (n-1) + ECHO (<= n-1) + FINAL (n-1): O(n), versus Bracha's
  // (2n+1)(n-1).
  const auto sent = fx.world.network().stats().messages_sent;
  EXPECT_LE(sent, 3u * (10 - 1));
  EXPECT_LT(sent, (2 * 10 + 1) * (10 - 1) / 3);  // way below Bracha
}

TEST(EchoBroadcast, ToleratesFSilentReplicas) {
  Fixture fx(7, 2, 9);
  fx.world.crash(5);
  fx.world.crash(6);
  fx.world.start();
  fx.endpoints[0]->broadcast(bytes_of("still works"));
  fx.world.run_to_quiescence();
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(fx.endpoints[i]->delivered_up_to(0), 1u) << i;
}

TEST(EchoBroadcast, ConsistencyUnderEquivocatingSender) {
  // A Byzantine sender SENDs different values to different halves. Each
  // correct replica echoes only one value, so at most one value can gather
  // the ⌈(n+f+1)/2⌉ echo quorum — no two correct deliver differently.
  class Equivocator final : public sim::Process {
   public:
    void on_start() override {
      for (ProcessId p = 1; p < world().size(); ++p) {
        serde::Writer w;
        w.u8(1);  // SEND
        w.uvarint(1);
        w.bytes(bytes_of(p % 2 == 0 ? "left" : "right"));
        send(p, kCh, w.take());
      }
    }
    // It never assembles/relays a FINAL (it can't get a quorum for either
    // value), so nothing delivers — consistency trivially preserved; the
    // test double-checks no delivery slips through.
  };

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, 10));
    auto& byz = w.spawn<Equivocator>();
    w.mark_byzantine(byz.id());
    std::vector<std::unique_ptr<EchoBroadcastEndpoint>> eps;
    for (int i = 0; i < 6; ++i)
      eps.push_back(std::make_unique<EchoBroadcastEndpoint>(
          w.spawn<Node>(), kCh, 7, 2));
    w.start();
    w.run_to_quiescence();
    std::set<Bytes, BytesLess> delivered;
    for (auto& ep : eps)
      for (const Delivery& d : ep->delivered())
        if (d.sender == byz.id()) delivered.insert(d.message);
    EXPECT_LE(delivered.size(), 1u) << "seed " << seed;
  }
}

TEST(EchoBroadcast, NoTotalityUnlikeBracha) {
  // The documented weakness: the adversary delivers the sender's FINAL to
  // only one process ("sender crashes mid-FINAL"). That process delivers;
  // the others never do — totality broken, consistency intact. Bracha's
  // READY amplification would have finished the job; this is the price of
  // O(n) messages.
  auto script = [](const sim::Envelope& env,
                   sim::Rng&) -> std::optional<Time> {
    const bool is_final = !env.payload.empty() && env.payload[0] == 3;
    if (is_final && env.from == 0 && env.to >= 2) return std::nullopt;
    return Time{1};
  };
  sim::World w(3, std::make_unique<sim::ScriptedAdversary>(script));
  std::vector<std::unique_ptr<EchoBroadcastEndpoint>> eps;
  for (int i = 0; i < 4; ++i)
    eps.push_back(
        std::make_unique<EchoBroadcastEndpoint>(w.spawn<Node>(), kCh, 4, 1));
  w.start();
  eps[0]->broadcast(bytes_of("m"));
  w.run_to_quiescence();

  EXPECT_EQ(eps[0]->delivered_up_to(0), 1u);  // sender delivers locally
  EXPECT_EQ(eps[1]->delivered_up_to(0), 1u);  // got the FINAL
  EXPECT_EQ(eps[2]->delivered_up_to(0), 0u);  // never will — no totality
  EXPECT_EQ(eps[3]->delivered_up_to(0), 0u);
  // Consistency must still hold.
  std::set<Bytes, BytesLess> values;
  for (auto& ep : eps)
    for (const Delivery& d : ep->delivered()) values.insert(d.message);
  EXPECT_EQ(values.size(), 1u);
}

}  // namespace
}  // namespace unidir::broadcast
