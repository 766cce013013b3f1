// Experiment E6: very weak agreement from one unidirectional round
// (n > f), plus the negative control showing zero-directional rounds are
// NOT enough — the empirical content of the paper's claim that
// unidirectionality strictly helps.
#include <gtest/gtest.h>

#include "agreement/very_weak.h"
#include "rounds/msg_rounds.h"
#include "rounds/shmem_uni_round.h"
#include "sim/adversaries.h"
#include "test_util.h"

namespace unidir::agreement {
namespace {

using testutil::Node;

constexpr sim::Channel kRoundCh = 60;
constexpr Time kDelta = 4;

/// Hosts one agreement instance over a given driver.
class VwaNode final : public sim::Process {
 public:
  std::unique_ptr<rounds::RoundDriver> driver;
  std::unique_ptr<VeryWeakAgreement> vwa;
  Bytes input;

 protected:
  void on_start() override { vwa->run(input, nullptr); }
};

/// Agreement modulo ⊥: the set of non-⊥ committed values has size <= 1.
void expect_vwa_agreement(const std::vector<VwaNode*>& nodes,
                          const sim::World& w, const char* context) {
  std::set<Bytes, BytesLess> committed;
  for (const VwaNode* n : nodes) {
    if (!w.correct(n->id())) continue;
    ASSERT_TRUE(n->vwa->committed()) << context;
    if (n->vwa->value()) committed.insert(*n->vwa->value());
  }
  EXPECT_LE(committed.size(), 1u) << context;
}

TEST(VeryWeakAgreement, AllCorrectSameInputCommitsThatValue) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
    std::vector<VwaNode*> nodes;
    for (int i = 0; i < 4; ++i) {
      auto& n = w.spawn<VwaNode>();
      n.driver = std::make_unique<rounds::DeltaSyncRoundDriver>(n, kRoundCh,
                                                                2 * kDelta);
      n.vwa = std::make_unique<VeryWeakAgreement>(n, *n.driver);
      n.input = bytes_of("consensus!");
      nodes.push_back(&n);
    }
    w.start();
    w.run_to_quiescence();
    for (auto* n : nodes) {
      ASSERT_TRUE(n->vwa->committed());
      ASSERT_TRUE(n->vwa->value().has_value()) << "seed " << seed;
      EXPECT_EQ(*n->vwa->value(), bytes_of("consensus!"));
    }
  }
}

TEST(VeryWeakAgreement, MixedInputsAgreementModuloBot) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
    std::vector<VwaNode*> nodes;
    for (int i = 0; i < 5; ++i) {
      auto& n = w.spawn<VwaNode>();
      n.driver = std::make_unique<rounds::DeltaSyncRoundDriver>(n, kRoundCh,
                                                                2 * kDelta);
      n.vwa = std::make_unique<VeryWeakAgreement>(n, *n.driver);
      n.input = bytes_of(i < 3 ? "alpha" : "beta");
      nodes.push_back(&n);
    }
    w.start();
    w.run_to_quiescence();
    expect_vwa_agreement(nodes, w, "mixed inputs");
  }
}

TEST(VeryWeakAgreement, WorksOnSharedMemoryRounds) {
  sim::World w(3, std::make_unique<sim::ImmediateAdversary>());
  shmem::MemoryHost memory(w.simulator(), sim::Rng(4));
  rounds::ShmemRoundBoard board(3);
  std::vector<VwaNode*> nodes;
  for (std::size_t i = 0; i < 3; ++i) {
    auto& n = w.spawn<VwaNode>();
    n.driver = std::make_unique<rounds::ShmemUniRoundDriver>(
        memory, board, static_cast<ProcessId>(i));
    n.vwa = std::make_unique<VeryWeakAgreement>(n, *n.driver);
    n.input = bytes_of(i == 0 ? "x" : "y");
    nodes.push_back(&n);
  }
  w.start();
  w.run_to_quiescence();
  expect_vwa_agreement(nodes, w, "shmem rounds");
}

TEST(VeryWeakAgreement, EquivocatorCannotSplitNonBotCommits) {
  // n = f+1 with f=1: ONE Byzantine process sends "left" to one correct
  // process and "right" to the other by raw round messages. Each correct
  // process still receives the other's value (unidirectionality among the
  // correct), so at most one non-⊥ value survives.
  class Equivocator final : public sim::Process {
   public:
    void on_start() override {
      send(1, kRoundCh,
           wire::encode_tagged(rounds::RoundMsg{1, bytes_of("left")}));
      send(2, kRoundCh,
           wire::encode_tagged(rounds::RoundMsg{1, bytes_of("right")}));
    }
  };

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
    auto& byz = w.spawn<Equivocator>();
    w.mark_byzantine(byz.id());
    std::vector<VwaNode*> nodes;
    for (int i = 0; i < 2; ++i) {
      auto& n = w.spawn<VwaNode>();
      n.driver = std::make_unique<rounds::DeltaSyncRoundDriver>(n, kRoundCh,
                                                                2 * kDelta);
      n.vwa = std::make_unique<VeryWeakAgreement>(n, *n.driver);
      n.input = bytes_of("honest");
      nodes.push_back(&n);
    }
    w.start();
    w.run_to_quiescence();
    expect_vwa_agreement(nodes, w, "equivocator");
  }
}

TEST(VeryWeakAgreement, ZeroDirectionalRoundsViolateAgreement) {
  // Negative control (why unidirectionality matters): with asynchronous
  // n−f-quorum rounds and a partition, two correct groups commit
  // different non-⊥ values — the very failure the unidirectional round
  // rules out.
  auto adversary = std::make_unique<sim::PartitionAdversary>();
  adversary->block_bidirectional({0, 1}, {2, 3});
  sim::World w(5, std::move(adversary));
  std::vector<VwaNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    auto& n = w.spawn<VwaNode>();
    n.driver = std::make_unique<rounds::AsyncZeroRoundDriver>(n, kRoundCh,
                                                              /*n=*/4,
                                                              /*f=*/2);
    n.vwa = std::make_unique<VeryWeakAgreement>(n, *n.driver);
    n.input = bytes_of(i < 2 ? "east" : "west");
    nodes.push_back(&n);
  }
  w.start();
  w.run_to_quiescence();
  std::set<Bytes, BytesLess> committed;
  for (auto* n : nodes) {
    ASSERT_TRUE(n->vwa->committed());
    if (n->vwa->value()) committed.insert(*n->vwa->value());
  }
  EXPECT_EQ(committed.size(), 2u);  // the violation, as predicted
}

}  // namespace
}  // namespace unidir::agreement
