#include <gtest/gtest.h>

#include "sim/adversaries.h"
#include "sim/world.h"
#include "test_util.h"

namespace unidir::sim {
namespace {

TEST(Transcript, RecordsMessagesInDeliveryOrder) {
  Transcript t;
  t.record_message(1, 0, bytes_of("a"));
  t.record_message(2, 0, bytes_of("b"));
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].from, 1u);
  EXPECT_EQ(t.events()[1].from, 2u);
}

TEST(Transcript, OutputsFilteredByTag) {
  Transcript t;
  t.record_output("deliver", bytes_of("x"));
  t.record_message(1, 0, bytes_of("a"));
  t.record_output("commit", bytes_of("y"));
  t.record_output("deliver", bytes_of("z"));
  const auto delivers = t.outputs("deliver");
  ASSERT_EQ(delivers.size(), 2u);
  EXPECT_EQ(delivers[0].payload, bytes_of("x"));
  EXPECT_EQ(delivers[1].payload, bytes_of("z"));
  EXPECT_EQ(t.outputs("commit").size(), 1u);
  EXPECT_TRUE(t.outputs("nothing").empty());
}

TEST(Transcript, IndistinguishabilityIsExactEquality) {
  Transcript a;
  Transcript b;
  a.record_message(1, 5, bytes_of("m"));
  b.record_message(1, 5, bytes_of("m"));
  EXPECT_TRUE(a.indistinguishable_from(b));
  EXPECT_EQ(a.first_divergence(b), -1);

  b.record_output("deliver", bytes_of("v"));
  EXPECT_FALSE(a.indistinguishable_from(b));
  EXPECT_EQ(a.first_divergence(b), 1);
}

TEST(Transcript, DivergenceDetectsDifferentSenders) {
  Transcript a;
  Transcript b;
  a.record_message(1, 0, bytes_of("m"));
  b.record_message(2, 0, bytes_of("m"));
  EXPECT_EQ(a.first_divergence(b), 0);
}

TEST(Transcript, DivergenceDetectsPayloadDifference) {
  Transcript a;
  Transcript b;
  a.record_message(1, 0, bytes_of("m"));
  a.record_message(1, 0, bytes_of("x"));
  b.record_message(1, 0, bytes_of("m"));
  b.record_message(1, 0, bytes_of("y"));
  EXPECT_EQ(a.first_divergence(b), 1);
}

TEST(Transcript, EmptyTranscriptsAreIndistinguishable) {
  Transcript a;
  Transcript b;
  EXPECT_TRUE(a.indistinguishable_from(b));
  EXPECT_EQ(a.first_divergence(b), -1);
}

TEST(Transcript, EmptyVersusNonEmptyDivergesAtZero) {
  Transcript a;
  Transcript b;
  b.record_message(1, 0, bytes_of("m"));
  EXPECT_FALSE(a.indistinguishable_from(b));
  EXPECT_EQ(a.first_divergence(b), 0);
  EXPECT_EQ(b.first_divergence(a), 0);  // symmetric
}

TEST(Transcript, DivergenceAtZeroOnEventKind) {
  // Same position, same payload — but one saw a message and the other
  // produced an output. Kind alone must distinguish them.
  Transcript a;
  Transcript b;
  a.record_message(1, 0, bytes_of("m"));
  b.record_output("deliver", bytes_of("m"));
  EXPECT_FALSE(a.indistinguishable_from(b));
  EXPECT_EQ(a.first_divergence(b), 0);
}

TEST(Transcript, TagOnlyDifferenceDistinguishes) {
  Transcript a;
  Transcript b;
  a.record_output("deliver", bytes_of("v"));
  b.record_output("commit", bytes_of("v"));
  EXPECT_FALSE(a.indistinguishable_from(b));
  EXPECT_EQ(a.first_divergence(b), 0);
}

TEST(Transcript, DescribeIsHumanReadable) {
  Transcript t;
  t.record_message(3, 9, bytes_of("hello"));
  t.record_output("deliver", bytes_of("v"));
  EXPECT_NE(t.events()[0].describe().find("recv"), std::string::npos);
  EXPECT_NE(t.events()[1].describe().find("deliver"), std::string::npos);
}

// End-to-end: identical worlds produce identical transcripts; a world where
// an extra message is delivered produces a distinguishable transcript.
constexpr Channel kData = 1;

class Sink final : public Process {
 protected:
  void on_message(ProcessId, Channel, const Bytes& payload) override {
    output("got", payload);
  }
};

class Pusher final : public Process {
 public:
  explicit Pusher(int count) : count_(count) {}

 protected:
  void on_start() override {
    for (int i = 0; i < count_; ++i)
      send(1, kData, bytes_of(testutil::numbered("m", i)));
  }

 private:
  int count_;
};

TEST(Transcript, IdenticalExecutionsIndistinguishable) {
  auto run = [](int count) {
    auto w = std::make_unique<World>(5, std::make_unique<ImmediateAdversary>());
    w->spawn<Pusher>(count);
    w->spawn<Sink>();
    w->start();
    w->run_to_quiescence();
    return w;
  };
  auto w1 = run(3);
  auto w2 = run(3);
  auto w3 = run(4);
  EXPECT_TRUE(w1->transcript(1).indistinguishable_from(w2->transcript(1)));
  EXPECT_FALSE(w1->transcript(1).indistinguishable_from(w3->transcript(1)));
}

}  // namespace
}  // namespace unidir::sim
