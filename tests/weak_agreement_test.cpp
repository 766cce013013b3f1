// The Preliminaries claim (§2): non-equivocation + transferable signatures
// solve weak Byzantine agreement with any corrupt minority (n >= 2f+1).
#include <gtest/gtest.h>

#include "agreement/weak_agreement.h"
#include "sim/adversaries.h"

namespace unidir::agreement {
namespace {

TEST(FirstWriteStateMachine, FirstWriteSticks) {
  FirstWriteStateMachine m;
  EXPECT_EQ(m.apply(FirstWriteStateMachine::write_op(bytes_of("a"))),
            bytes_of("a"));
  EXPECT_EQ(m.apply(FirstWriteStateMachine::write_op(bytes_of("b"))),
            bytes_of("a"));
  EXPECT_EQ(*m.value(), bytes_of("a"));
}

TEST(FirstWriteStateMachine, MalformedProposalIsNoOp) {
  FirstWriteStateMachine m;
  const auto before = m.digest();
  EXPECT_EQ(m.apply(Bytes{0xFF, 0xFF}), Bytes{});
  EXPECT_EQ(m.digest(), before);
  EXPECT_EQ(m.apply(FirstWriteStateMachine::write_op(bytes_of("v"))),
            bytes_of("v"));
}

struct WaCase {
  std::size_t n;
  std::size_t f;
  std::uint64_t seed;
  bool same_inputs;
};

class WeakAgreementP : public ::testing::TestWithParam<WaCase> {};

TEST_P(WeakAgreementP, AgreementTerminationAndWeakValidity) {
  const auto& c = GetParam();
  sim::World world(c.seed,
                   std::make_unique<sim::RandomDelayAdversary>(1, 10));
  SgxUsigDirectory usigs(world.keys());
  std::vector<Bytes> inputs;
  for (std::size_t i = 0; i < c.n; ++i)
    inputs.push_back(bytes_of(c.same_inputs ? "unanimous"
                                            : "in" + std::to_string(i)));
  WeakAgreementCluster cluster(world, usigs,
                               {.n = c.n, .f = c.f}, inputs);
  world.start();
  world.run_to_quiescence();

  ASSERT_TRUE(cluster.all_committed(world));
  std::set<Bytes, BytesLess> committed;
  for (std::size_t i = 0; i < c.n; ++i) committed.insert(*cluster.value_of(i));
  EXPECT_EQ(committed.size(), 1u);  // agreement
  if (c.same_inputs) {
    EXPECT_EQ(*committed.begin(), bytes_of("unanimous"));  // weak validity
  } else {
    // Some party's input won (the protocol never invents values).
    bool found = false;
    for (const Bytes& in : inputs)
      if (in == *committed.begin()) found = true;
    EXPECT_TRUE(found);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeakAgreementP,
    ::testing::Values(WaCase{3, 1, 1, true}, WaCase{3, 1, 2, false},
                      WaCase{5, 2, 3, true}, WaCase{5, 2, 4, false},
                      WaCase{7, 3, 5, true}, WaCase{7, 3, 6, false}));

TEST(WeakAgreement, ToleratesCorruptMinorityCrashes) {
  // f of 2f+1 parties crash (including the initial primary): the
  // remaining majority still agrees and terminates — the "any minority"
  // tolerance the claim advertises.
  sim::World world(9, std::make_unique<sim::RandomDelayAdversary>(1, 10));
  SgxUsigDirectory usigs(world.keys());
  std::vector<Bytes> inputs = {bytes_of("a"), bytes_of("b"), bytes_of("c"),
                               bytes_of("d"), bytes_of("e")};
  WeakAgreementCluster cluster(world, usigs, {.n = 5, .f = 2}, inputs);
  world.crash(0);  // replica 0 (view-0 primary)
  world.crash(1);  // replica 1
  world.crash(5);  // party 0's client too (it cannot commit)
  world.start();
  world.run_to_quiescence();

  std::set<Bytes, BytesLess> committed;
  for (std::size_t i = 1; i < 5; ++i) {
    ASSERT_TRUE(cluster.value_of(i).has_value()) << "party " << i;
    committed.insert(*cluster.value_of(i));
  }
  EXPECT_EQ(committed.size(), 1u);
}

TEST(WeakAgreement, RejectsMajorityFaultConfigurations) {
  sim::World world(1, std::make_unique<sim::ImmediateAdversary>());
  SgxUsigDirectory usigs(world.keys());
  EXPECT_THROW(WeakAgreementCluster(world, usigs, {.n = 4, .f = 2},
                                    std::vector<Bytes>(4, bytes_of("v"))),
               std::invalid_argument);
}

}  // namespace
}  // namespace unidir::agreement
