// The paper's §3.2 claim in full generality: PEATS and sticky registers —
// not just SWMR registers — implement unidirectional rounds, and
// Algorithm 1 (SRB) runs unchanged on top of them.
#include <gtest/gtest.h>

#include "broadcast/srb_from_uni.h"
#include "rounds/checkers.h"
#include "rounds/object_uni_round.h"
#include "sim/adversaries.h"
#include "test_util.h"

namespace unidir::rounds {
namespace {

class Runner final : public sim::Process {
 public:
  std::unique_ptr<RoundDriver> driver;
  int target = 0;

 protected:
  void on_start() override { go(); }

 private:
  void go() {
    if (driver->completed_rounds() >= static_cast<RoundNum>(target)) return;
    driver->start_round(bytes_of(testutil::numbered("p", id())),
                        [this](RoundNum, const std::vector<Received>&) {
                          go();
                        });
  }
};

enum class Kind { Peats, Sticky };

struct Case {
  Kind kind;
  std::size_t n;
  int rounds;
  std::uint64_t seed;
};

class ObjectUniRoundP : public ::testing::TestWithParam<Case> {};

TEST_P(ObjectUniRoundP, UnidirectionalityHolds) {
  const auto& c = GetParam();
  sim::World w(c.seed, std::make_unique<sim::ImmediateAdversary>());
  shmem::MemoryHost memory(w.simulator(), sim::Rng(c.seed * 7 + 3),
                           {.max_to_linearize = 5, .max_to_respond = 5});
  PeatsRoundBoard peats(c.n);
  StickyRoundBoard sticky(c.n);

  std::vector<Runner*> runners;
  for (std::size_t i = 0; i < c.n; ++i) {
    auto& r = w.spawn<Runner>();
    if (c.kind == Kind::Peats) {
      r.driver = std::make_unique<PeatsUniRoundDriver>(
          memory, peats, static_cast<ProcessId>(i));
    } else {
      r.driver = std::make_unique<StickyUniRoundDriver>(
          memory, sticky, static_cast<ProcessId>(i));
    }
    r.target = c.rounds;
    runners.push_back(&r);
  }
  w.start();
  w.run_to_quiescence();

  std::vector<ProcessHistory> hist;
  for (auto* r : runners) {
    EXPECT_EQ(r->driver->completed_rounds(),
              static_cast<RoundNum>(c.rounds));
    hist.push_back(history_of(r->id(), *r->driver));
  }
  const auto violation = check_unidirectional(hist);
  EXPECT_FALSE(violation.has_value()) << violation->describe();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ObjectUniRoundP,
    ::testing::Values(Case{Kind::Peats, 2, 6, 1}, Case{Kind::Peats, 3, 5, 2},
                      Case{Kind::Peats, 5, 4, 3}, Case{Kind::Peats, 7, 3, 4},
                      Case{Kind::Sticky, 2, 6, 5},
                      Case{Kind::Sticky, 3, 5, 6},
                      Case{Kind::Sticky, 5, 4, 7},
                      Case{Kind::Sticky, 7, 3, 8}));

TEST(ObjectUniRound, PeatsBoardIndexesPerOwner) {
  PeatsRoundBoard board(3);
  EXPECT_TRUE(board.publish(1, RoundMsg{1, bytes_of("ok")}));
  EXPECT_TRUE(board.publish(1, RoundMsg{2, bytes_of("second")}));
  EXPECT_EQ(board.read_from(0, 1, 0).size(), 2u);
  EXPECT_EQ(board.read_from(0, 1, 1).size(), 1u);
  EXPECT_TRUE(board.read_from(0, 2, 0).empty());
}

TEST(ObjectUniRound, StickyCellsAreWriteOnce) {
  StickyRoundBoard board(2);
  EXPECT_TRUE(board.publish(0, RoundMsg{1, bytes_of("first")}));
  // publish() always targets the next free cell, so the append succeeds;
  // write-once-ness shows at read time: history is immutable and ordered.
  EXPECT_TRUE(board.publish(0, RoundMsg{2, bytes_of("second")}));
  const auto all = board.read_from(1, 0, 0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].message, bytes_of("first"));
  EXPECT_EQ(all[1].message, bytes_of("second"));
}

TEST(ObjectUniRound, Algorithm1RunsOverPeatsAndSticky) {
  // The full stack: SRB (Algorithm 1) over each exotic board.
  for (int kind = 0; kind < 2; ++kind) {
    class Node final : public sim::Process {
     public:
      std::unique_ptr<RoundDriver> driver;
      std::unique_ptr<broadcast::UniSrbEndpoint> srb;
      std::vector<Bytes> to_broadcast;
      void on_start() override {
        for (auto& m : to_broadcast) srb->broadcast(m);
        srb->start();
      }
    };
    sim::World w(42 + static_cast<std::uint64_t>(kind),
                 std::make_unique<sim::ImmediateAdversary>());
    shmem::MemoryHost memory(w.simulator(), sim::Rng(43));
    PeatsRoundBoard peats(3);
    StickyRoundBoard sticky(3);
    std::vector<Node*> nodes;
    for (std::size_t i = 0; i < 3; ++i) {
      auto& node = w.spawn<Node>();
      if (kind == 0) {
        node.driver = std::make_unique<PeatsUniRoundDriver>(
            memory, peats, static_cast<ProcessId>(i));
      } else {
        node.driver = std::make_unique<StickyUniRoundDriver>(
            memory, sticky, static_cast<ProcessId>(i));
      }
      node.srb = std::make_unique<broadcast::UniSrbEndpoint>(
          node, *node.driver, 3, 1);
      nodes.push_back(&node);
    }
    nodes[0]->to_broadcast = {bytes_of("a"), bytes_of("b")};
    w.start();
    w.run_to_quiescence();
    std::vector<broadcast::SrbView> views;
    for (auto* node : nodes)
      views.push_back({node->id(), node->srb.get(), node->to_broadcast});
    const auto violation = broadcast::check_srb(views);
    EXPECT_FALSE(violation.has_value())
        << broadcast::to_string(violation->kind) << ": " << violation->detail
        << " (kind " << kind << ")";
  }
}

}  // namespace
}  // namespace unidir::rounds
