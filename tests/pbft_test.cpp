#include <gtest/gtest.h>

#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "sim/adversaries.h"
#include "test_util.h"

namespace unidir::agreement {
namespace {

struct Cluster {
  sim::World world;
  std::vector<PbftReplica*> replicas;
  std::vector<SmrClient*> clients;
  std::size_t n;
  std::size_t f;

  Cluster(std::size_t n_, std::size_t f_, std::size_t num_clients,
          std::uint64_t seed, Time max_delay = 10)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, max_delay)),
        n(n_),
        f(f_) {
    PbftReplica::Options options;
    options.f = f;
    for (ProcessId i = 0; i < n; ++i) options.replicas.push_back(i);
    for (std::size_t i = 0; i < n; ++i)
      replicas.push_back(&world.spawn<PbftReplica>(
          options, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = options.replicas;
    copt.f = f;
    for (std::size_t i = 0; i < num_clients; ++i)
      clients.push_back(&world.spawn<SmrClient>(copt));
  }

  void expect_consistent(const char* context) {
    std::vector<std::pair<ProcessId, const ExecutionLog*>>
        logs;
    for (auto* r : replicas)
      if (world.correct(r->id()))
        logs.emplace_back(r->id(), &r->execution_log());
    const auto divergence = check_execution_consistency(logs);
    EXPECT_FALSE(divergence.has_value()) << context << ": " << *divergence;
  }
};

TEST(Pbft, BasicKvOperations) {
  Cluster c(4, 1, 1, 42);
  Bytes got_back;
  c.clients[0]->submit(KvStateMachine::put_op("k", "v1"));
  c.clients[0]->submit(KvStateMachine::get_op("k"),
                       [&](const Bytes& r) { got_back = r; });
  c.world.start();
  c.world.run_to_quiescence();
  EXPECT_EQ(c.clients[0]->completed(), 2u);
  EXPECT_EQ(got_back, bytes_of("v1"));
  c.expect_consistent("basic");
  for (auto* r : c.replicas) {
    EXPECT_EQ(r->executed_count(), 2u);
    EXPECT_EQ(r->state_digest(), c.replicas[0]->state_digest());
  }
}

struct SweepCase {
  std::size_t n;
  std::size_t f;
  std::size_t clients;
  int ops_per_client;
  std::uint64_t seed;
};

class PbftSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PbftSweep, AllRequestsCompleteConsistently) {
  const auto& p = GetParam();
  Cluster c(p.n, p.f, p.clients, p.seed);
  for (std::size_t i = 0; i < p.clients; ++i)
    for (int k = 0; k < p.ops_per_client; ++k)
      c.clients[i]->submit(KvStateMachine::put_op(
          testutil::numbered("key", k), testutil::numbered("c", i)));
  c.world.start();
  c.world.run_to_quiescence();
  for (auto* cl : c.clients)
    EXPECT_EQ(cl->completed(), static_cast<std::uint64_t>(p.ops_per_client));
  c.expect_consistent("sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PbftSweep,
    ::testing::Values(SweepCase{4, 1, 1, 8, 1}, SweepCase{4, 1, 2, 5, 2},
                      SweepCase{7, 2, 2, 4, 3}, SweepCase{7, 2, 3, 3, 4},
                      SweepCase{10, 3, 2, 3, 5}, SweepCase{13, 4, 1, 4, 6}));

TEST(Pbft, ToleratesFCrashedBackups) {
  Cluster c(7, 2, 1, 9);
  c.world.crash(5);
  c.world.crash(6);
  for (int k = 0; k < 5; ++k)
    c.clients[0]->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  c.world.start();
  c.world.run_to_quiescence();
  EXPECT_EQ(c.clients[0]->completed(), 5u);
  c.expect_consistent("crashed backups");
  EXPECT_EQ(c.replicas[0]->view(), 0u);
}

TEST(Pbft, PrimaryCrashTriggersViewChangeAndRecovers) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cluster c(4, 1, 1, seed);
    for (int k = 0; k < 4; ++k)
      c.clients[0]->submit(
          KvStateMachine::put_op("k" + std::to_string(k), "v"));
    c.world.start();
    c.world.run_until([&] { return c.clients[0]->completed() >= 1; });
    c.world.crash(0);
    c.world.run_to_quiescence();
    EXPECT_EQ(c.clients[0]->completed(), 4u) << "seed " << seed;
    c.expect_consistent("primary crash");
    for (auto* r : c.replicas) {
      if (c.world.correct(r->id())) {
        EXPECT_GT(r->view(), 0u) << "seed " << seed;
      }
    }
  }
}

TEST(Pbft, PrimaryCrashBeforeAnyProposal) {
  Cluster c(4, 1, 1, 11);
  c.world.crash(0);
  c.clients[0]->submit(KvStateMachine::put_op("k", "v"));
  c.world.start();
  c.world.run_to_quiescence();
  EXPECT_EQ(c.clients[0]->completed(), 1u);
  c.expect_consistent("dead primary");
}

TEST(Pbft, ExactlyOnceUnderAggressiveResends) {
  Cluster c(4, 1, 0, 17, /*max_delay=*/30);
  SmrClient::Options copt;
  copt.replicas = {0, 1, 2, 3};
  copt.f = 1;
  copt.resend_timeout = 5;
  auto& eager = c.world.spawn<SmrClient>(copt);
  eager.submit(KvStateMachine::put_op("x", "1"));
  eager.submit(KvStateMachine::get_op("x"));
  c.world.start();
  c.world.run_to_quiescence();
  EXPECT_EQ(eager.completed(), 2u);
  for (auto* r : c.replicas) EXPECT_EQ(r->executed_count(), 2u);
  c.expect_consistent("resends");
}

TEST(Pbft, EquivocatingPrimaryCannotCommitConflictingCommands) {
  // The Byzantine primary pre-prepares DIFFERENT commands under the SAME
  // sequence number to the two halves of the backup set. Without a
  // non-equivocation device this is possible to *attempt* — PBFT's
  // prepare phase exists precisely to keep it from committing.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 8));
    PbftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2, 3};
    options.view_change_timeout = 150;

    class EquivocatingPrimary final : public sim::Process {
     public:
      void on_start() override {
        Command left;
        left.client = 77;
        left.request_id = 1;
        left.op = KvStateMachine::put_op("k", "left");
        Command right;
        right.client = 77;
        right.request_id = 1;  // SAME identity, conflicting content
        right.op = KvStateMachine::put_op("k", "right");
        send(1, kPbftCh,
             PbftReplica::encode_preprepare_for_test(signer(), 0, 1, left));
        send(2, kPbftCh,
             PbftReplica::encode_preprepare_for_test(signer(), 0, 1, left));
        send(3, kPbftCh,
             PbftReplica::encode_preprepare_for_test(signer(), 0, 1, right));
      }
    };

    auto& byz = world.spawn<EquivocatingPrimary>();
    world.mark_byzantine(byz.id());
    std::vector<PbftReplica*> backups;
    for (ProcessId i = 1; i <= 3; ++i)
      backups.push_back(&world.spawn<PbftReplica>(
          options, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    // Consistency must survive; in particular "left" and "right" must not
    // both appear at slot-1 positions of different replicas.
    std::vector<std::pair<ProcessId, const ExecutionLog*>>
        logs;
    for (auto* r : backups) logs.emplace_back(r->id(), &r->execution_log());
    const auto divergence = check_execution_consistency(logs);
    EXPECT_FALSE(divergence.has_value()) << *divergence << " seed " << seed;
  }
}

TEST(Pbft, CheckpointsStabilize) {
  Cluster c(4, 1, 1, 19);
  for (int k = 0; k < 20; ++k)
    c.clients[0]->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  c.world.start();
  c.world.run_to_quiescence();
  EXPECT_EQ(c.clients[0]->completed(), 20u);
  for (auto* r : c.replicas) EXPECT_GE(r->stable_checkpoint(), 16u);
}

TEST(Pbft, PipelinedClientCompletesAllRequestsConsistently) {
  Cluster c(4, 1, 0, 37);
  SmrClient::Options copt;
  copt.replicas = {0, 1, 2, 3};
  copt.f = 1;
  copt.max_outstanding = 8;
  auto& client = c.world.spawn<SmrClient>(copt);
  for (int k = 0; k < 24; ++k)
    client.submit(KvStateMachine::put_op("k" + std::to_string(k % 5),
                                         "v" + std::to_string(k)));
  c.world.start();
  c.world.run_to_quiescence();
  EXPECT_EQ(client.completed(), 24u);
  c.expect_consistent("pipelined");
  for (auto* r : c.replicas) EXPECT_EQ(r->executed_count(), 24u);
}

TEST(Pbft, SurvivesPartialSynchronyChaosBeforeGst) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::World world(seed, std::make_unique<sim::GstAdversary>(500, 5, 200));
    PbftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2, 3};
    options.view_change_timeout = 100;
    std::vector<PbftReplica*> replicas;
    for (int i = 0; i < 4; ++i)
      replicas.push_back(&world.spawn<PbftReplica>(
          options, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = options.replicas;
    copt.f = 1;
    copt.resend_timeout = 150;
    auto& client = world.spawn<SmrClient>(copt);
    for (int k = 0; k < 5; ++k)
      client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    world.start();
    world.run_to_quiescence();
    EXPECT_EQ(client.completed(), 5u) << "seed " << seed;
    std::vector<std::pair<ProcessId, const ExecutionLog*>>
        logs;
    for (auto* r : replicas) logs.emplace_back(r->id(), &r->execution_log());
    const auto divergence = check_execution_consistency(logs);
    EXPECT_FALSE(divergence.has_value()) << *divergence << " seed " << seed;
  }
}

TEST(Pbft, RejectsTooSmallReplicaGroups) {
  sim::World world(1, std::make_unique<sim::ImmediateAdversary>());
  PbftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};  // n=3 < 3f+1
  EXPECT_THROW(
      world.spawn<PbftReplica>(options, std::make_unique<KvStateMachine>()),
      std::invalid_argument);
}

}  // namespace
}  // namespace unidir::agreement
