// Batch-atomicity checker (ctest label: batch): synthetic-transcript
// negative tests prove the invariant catches split batches, reordered and
// double executions, and cross-replica membership disagreement; byzantine
// fake-primary runs prove the end-to-end retry-dedup fix — a request
// re-batched after its original batch committed is answered from the reply
// cache, never re-executed.
#include <gtest/gtest.h>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "explore/invariants.h"
#include "sim/adversaries.h"
#include "test_util.h"

namespace unidir::explore {
namespace {

using agreement::Command;
using agreement::KvStateMachine;

Command cmd_of(ProcessId client, std::uint64_t rid, const char* key = "k") {
  Command c;
  c.client = client;
  c.request_id = rid;
  c.op = KvStateMachine::put_op(key, testutil::numbered("v", rid));
  return c;
}

/// The "smr-batch" witness payload, exactly as the replicas emit it.
Bytes batch_marker(std::uint64_t view, std::uint64_t counter,
                   const std::vector<Command>& cmds) {
  serde::Writer w;
  w.uvarint(view);
  w.uvarint(counter);
  w.uvarint(cmds.size());
  for (const Command& c : cmds) {
    w.uvarint(c.client);
    w.uvarint(c.request_id);
  }
  return w.take();
}

/// The "smr-install" state-transfer witness payload.
Bytes install_marker(const std::vector<Command>& cmds) {
  serde::Writer w;
  w.uvarint(cmds.size());
  for (const Command& c : cmds) {
    w.uvarint(c.client);
    w.uvarint(c.request_id);
  }
  return w.take();
}

std::optional<std::string> check_transcripts(
    const std::vector<const sim::Transcript*>& transcripts) {
  ExplorationContext ctx;
  for (std::size_t i = 0; i < transcripts.size(); ++i)
    ctx.transcripts.emplace_back(static_cast<ProcessId>(i), transcripts[i]);
  return batch_atomicity().check(ctx);
}

TEST(BatchAtomicity, AcceptsFullyExecutedBatchesInOrder) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2), c = cmd_of(8, 1);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-exec", serde::encode(b));
  t.record_output("smr-batch", batch_marker(0, 2, {c}));
  t.record_output("smr-exec", serde::encode(c));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

TEST(BatchAtomicity, VacuousForUnbatchedTranscripts) {
  // Unbatched runs emit no "smr-batch" markers; only exactly-once applies.
  sim::Transcript t;
  t.record_output("smr-exec", serde::encode(cmd_of(9, 1)));
  t.record_output("smr-exec", serde::encode(cmd_of(9, 2)));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

TEST(BatchAtomicity, FlagsSplitBatch) {
  // A committed batch whose second member never executes — the planted
  // split batch the checker exists to catch.
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("split batch"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsSplitBatchClosedByNextMarker) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2), c = cmd_of(8, 1);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-batch", batch_marker(0, 2, {c}));
  t.record_output("smr-exec", serde::encode(c));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("split batch"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsOutOfOrderExecutionWithinBatch) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(b));
  t.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("outside its batch"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsDoubleExecution) {
  const Command a = cmd_of(9, 1);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("twice"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsCrossReplicaMembershipDisagreement) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t1, t2;
  t1.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t1.record_output("smr-exec", serde::encode(a));
  t1.record_output("smr-exec", serde::encode(b));
  // Same (view, counter) slot, different membership on the second replica.
  t2.record_output("smr-batch", batch_marker(0, 1, {a}));
  t2.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t1, &t2});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("disagree"), std::string::npos) << *v;
}

TEST(BatchAtomicity, AllowsRetryDedupAbsence) {
  // A member of a later batch already executed by an earlier one (client
  // retry landing in a second batch) is the legal absence.
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-batch", batch_marker(0, 2, {a, b}));
  t.record_output("smr-exec", serde::encode(b));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

TEST(BatchAtomicity, AllowsStateTransferInstallAbsence) {
  // Effects that arrived via state transfer (the "smr-install" witness)
  // never show up as executions; later batches may skip them.
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-install", install_marker({a}));
  t.record_output("smr-batch", batch_marker(1, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(b));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

// ---- end-to-end retry dedup ------------------------------------------------

TEST(RetryDedup, MinBftRetriedRequestInSecondBatchExecutesOnce) {
  // A byzantine primary batches request R alone, then — as a client retry
  // would cause — batches {R, S} again in the next slot. Both batches
  // commit. Each backup must execute R exactly once and answer its second
  // appearance from the reply cache: log = [R, S], and the transcripts
  // must satisfy batch atomicity.
  using agreement::MinBftReplica;
  using agreement::SgxUsigDirectory;
  using agreement::UsigDirectory;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6));
    SgxUsigDirectory usigs(world.keys());
    MinBftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2};
    options.view_change_timeout = 4000;  // keep view 0 alive for the test
    options.batch_size = 4;              // batched() on the backups
    options.pipeline_depth = 4;

    class RebatchingPrimary final : public sim::Process {
     public:
      UsigDirectory* usigs = nullptr;
      void on_start() override {
        Command r;
        r.client = 50;
        r.request_id = 1;
        r.op = KvStateMachine::put_op("k", "first");
        Command s;
        s.client = 50;
        s.request_id = 2;
        s.op = KvStateMachine::put_op("k2", "second");
        // Counter 1: batch {R}. Counter 2: batch {R, S} — R again.
        broadcast(agreement::kMinBftCh,
                  MinBftReplica::encode_batch_prepare_for_test(*usigs, id(),
                                                               0, {r}));
        broadcast(agreement::kMinBftCh,
                  MinBftReplica::encode_batch_prepare_for_test(*usigs, id(),
                                                               0, {r, s}));
      }
    };

    auto& byz = world.spawn<RebatchingPrimary>();
    byz.usigs = &usigs;
    world.mark_byzantine(byz.id());
    std::vector<MinBftReplica*> backups;
    for (ProcessId i = 1; i <= 2; ++i)
      backups.push_back(&world.spawn<MinBftReplica>(
          options, usigs, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    for (MinBftReplica* backup : backups) {
      ASSERT_EQ(backup->executed_count(), 2u) << "seed " << seed;
      const agreement::ExecutionLog& log = backup->execution_log();
      EXPECT_EQ(log.at(0).command.request_id, 1u);
      EXPECT_EQ(log.at(1).command.request_id, 2u);
    }
    ExplorationContext ctx;
    for (const MinBftReplica* backup : backups)
      ctx.transcripts.emplace_back(backup->id(),
                                   &world.transcript(backup->id()));
    const auto v = batch_atomicity().check(ctx);
    EXPECT_EQ(v, std::nullopt) << *v;
  }
}

TEST(RetryDedup, PbftRetriedRequestInSecondBatchExecutesOnce) {
  using agreement::PbftReplica;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6));
    PbftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2, 3};
    options.view_change_timeout = 4000;
    options.batch_size = 4;
    options.pipeline_depth = 4;

    class RebatchingPrimary final : public sim::Process {
     public:
      void on_start() override {
        Command r;
        r.client = 60;
        r.request_id = 1;
        r.op = KvStateMachine::put_op("k", "first");
        Command s;
        s.client = 60;
        s.request_id = 2;
        s.op = KvStateMachine::put_op("k2", "second");
        broadcast(agreement::kPbftCh,
                  PbftReplica::encode_batch_preprepare_for_test(signer(), 0,
                                                                1, {r}));
        broadcast(agreement::kPbftCh,
                  PbftReplica::encode_batch_preprepare_for_test(
                      signer(), 0, 2, {r, s}));
      }
    };

    auto& byz = world.spawn<RebatchingPrimary>();
    world.mark_byzantine(byz.id());
    std::vector<PbftReplica*> backups;
    for (ProcessId i = 1; i <= 3; ++i)
      backups.push_back(&world.spawn<PbftReplica>(
          options, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    for (PbftReplica* backup : backups) {
      ASSERT_EQ(backup->executed_count(), 2u) << "seed " << seed;
      const agreement::ExecutionLog& log = backup->execution_log();
      EXPECT_EQ(log.at(0).command.request_id, 1u);
      EXPECT_EQ(log.at(1).command.request_id, 2u);
    }
    ExplorationContext ctx;
    for (const PbftReplica* backup : backups)
      ctx.transcripts.emplace_back(backup->id(),
                                   &world.transcript(backup->id()));
    const auto v = batch_atomicity().check(ctx);
    EXPECT_EQ(v, std::nullopt) << *v;
  }
}

}  // namespace
}  // namespace unidir::explore
