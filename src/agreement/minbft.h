// MinBFT-style state machine replication on trusted counters (Veronese et
// al., "Efficient Byzantine Fault-Tolerance", IEEE TC 2012) — the flagship
// application of the paper's trusted-log class: with a USIG per replica,
// BFT SMR needs only n = 2f+1 replicas and two communication phases,
// versus PBFT's n = 3f+1 and three phases.
//
// Normal operation (view v, primary = replicas[v mod n]):
//
//   client   → all      : REQUEST(cmd)
//   primary  → all      : PREPARE(v, cmd, UI_p)      UI_p from its USIG
//   replica  → all      : COMMIT(v, cmd, UI_p, UI_i) on accepting PREPARE
//   everyone executes cmd once f+1 replicas (the primary's PREPARE counts
//   as its COMMIT) have committed it, in UI_p-counter order; replies to
//   the client, which waits for f+1 matching replies.
//
// The USIG is the non-equivocation mechanism: the primary cannot assign
// one counter value to two commands, so the order it proposes is unique
// by construction; counter gaps can only stall progress (answered by a
// view change), never fork it.
//
// Everything but that certificate — batching, execution, checkpoints, view
// change, persistence and state transfer — is the shared ReplicaCore
// (replica_core.h). The full protocol additionally UI-stamps view-change
// messages and audits counter continuity across views, which matters only
// for Byzantine behaviour *during* view changes; our fault-injection tests
// cover crash faults at arbitrary points plus Byzantine equivocation in
// normal operation.
//
// Crash recovery adds one MinBFT step (DESIGN.md §9): the image also holds
// this replica's record of every peer's UI stream position, and a recovered
// replica announces RECOVER — one fresh UI that tells peers where its own
// stream resumes, since counters consumed but never delivered before the
// crash would leave a permanent gap. The image only ever lags truth, which
// for the sequential-UI rule errs on the safe side: a stale window can
// stall (answered by state transfer and view changes), never skip a
// committed slot.
#pragma once

#include <set>

#include "agreement/replica_core.h"
#include "agreement/usig_directory.h"

namespace unidir::agreement {

/// MinBFT's typed wire messages; defined in minbft.cpp, routed by tag
/// through the replica's wire::Router.
namespace minbft_wire {
struct Prepare;
struct Commit;
struct Recover;
struct BatchPrepare;
struct BatchCommit;
}  // namespace minbft_wire

/// What MinBFT plugs into the replica core: a slot certified by the
/// primary's UI plus f+1 committers, and a view window anchored at the
/// primary's first UI counter of the view.
struct MinBftPolicy {
  struct Slot {
    std::vector<Command> cmds;  // the batch, in execution order (size 1 unbatched)
    trusted::UniqueIdentifier primary_ui;
    std::set<ProcessId> committers;  // includes the primary and self
    bool executed = false;
    Time accepted_at = 0;  // when this replica first saw the proposal
  };

  struct Position {
    ViewNum view = 0;
    SeqNum view_base = 0;  // first accepted counter this view (0 = unset)
    SeqNum next_exec = 0;  // next counter to execute (0 = unset)
    std::map<ProcessId, SeqNum> ui_high;  // processed UI frontier per peer

    void encode(serde::Writer& w) const;
    static Position decode(serde::Reader& r);
  };

  static constexpr std::size_t kQuorumPerFault = 1;  // f+1, n >= 2f+1
  static constexpr SeqNum kFirstSeq = 0;  // set by the view's first UI
  static constexpr const char* kSizeRule = "MinBFT requires n >= 2f+1";
  static constexpr Channel kChannel = kMinBftCh;
  static constexpr std::string_view kDurableKey = "minbft/state";
  static constexpr wire::MsgDesc kCheckpointMsg{3, "minbft-checkpoint"};
  static constexpr wire::MsgDesc kViewChangeMsg{4, "minbft-view-change"};
  static constexpr wire::MsgDesc kNewViewMsg{5, "minbft-new-view"};
  static constexpr wire::MsgDesc kStateRequestMsg{6, "minbft-state-request"};
  static constexpr wire::MsgDesc kStateReplyMsg{7, "minbft-state-reply"};
  static constexpr std::string_view kCheckpointBinding = "minbft-cp";
  static constexpr std::string_view kViewChangeBinding = "minbft-vc";
  static constexpr std::string_view kNewViewBinding = "minbft-nv";
  static constexpr std::string_view kStateBinding = "minbft-state";
};

extern template class ReplicaCore<MinBftPolicy>;

class MinBftReplica final : public ReplicaCore<MinBftPolicy> {
 public:
  struct Options : ReplicaOptions {
    /// Commit quorum size; 0 means the MinBFT default of f+1. Larger
    /// quorums (up to n) are the conservative-quorum ablation: more
    /// certainty per slot, more latency, and liveness only while that
    /// many replicas are responsive.
    std::size_t commit_quorum = 0;
  };

  MinBftReplica(Options options, UsigDirectory& usigs,
                std::unique_ptr<StateMachine> machine);

  /// Builds a signed PREPARE wire message outside any replica — exposed so
  /// adversarial tests can drive Byzantine primaries by hand.
  static Bytes encode_prepare_for_test(UsigDirectory& usigs, ProcessId as,
                                       ViewNum view, const Command& cmd);
  /// Batched analogue of encode_prepare_for_test: one UI over the batch
  /// digest, so tests can plant batches (including malformed ones).
  static Bytes encode_batch_prepare_for_test(UsigDirectory& usigs,
                                             ProcessId as, ViewNum view,
                                             const std::vector<Command>& cmds);

 private:
  // ReplicaCore hooks.
  void propose(const Command& cmd) override;
  void propose_batch(std::vector<Command> cmds) override;
  std::size_t inflight_slots() const override;
  bool committed(const Slot& slot) const override;
  void reset_view_window() override;
  Position position() const override;
  void adopt_position(const Position& b) override;
  void after_install(const Position& b) override;
  void recovered(sim::DurableStore& durable, const Position* image) override;

  void handle_prepare(ProcessId from, minbft_wire::Prepare p);
  void handle_commit(ProcessId from, minbft_wire::Commit c);
  void handle_batch_prepare(ProcessId from, minbft_wire::BatchPrepare p);
  void handle_batch_commit(ProcessId from, minbft_wire::BatchCommit c);
  void handle_recover(ProcessId from, minbft_wire::Recover rc);
  /// The part of PREPARE handling shared by both wire paths, once the
  /// primary's UI has verified.
  void on_prepare(ProcessId from, ViewNum view, std::vector<Command> cmds,
                  const trusted::UniqueIdentifier& ui);
  /// The part of COMMIT handling shared by both wire paths: verifies both
  /// attestations (the embedded PREPARE's and the sender's) as one batch,
  /// then records the sender's vote.
  void on_commit(ProcessId from, ViewNum view,
                 const std::vector<Command>& cmds,
                 const trusted::UniqueIdentifier& primary_ui,
                 const trusted::UniqueIdentifier& replica_ui,
                 const Bytes& prepare_bind, const Bytes& commit_bind);

  /// The sequential-UI rule of MinBFT: a receiver processes each sender's
  /// UI-stamped messages strictly in counter order. `action` runs when
  /// `counter` becomes due (immediately if already processed — handlers
  /// are idempotent); future counters buffer. Without this rule a
  /// Byzantine primary could fork the log by showing different counters
  /// to different backups.
  void sequenced(ProcessId sender, SeqNum counter,
                 std::function<void()> action);

  /// Forces `sender`'s processed-counter frontier up to `to` (from a
  /// RECOVER announcement or a state-transfer snapshot) and runs whatever
  /// buffered actions became due. Counters at or below the new frontier
  /// run through the idempotent already-due path when they arrive.
  void raise_ui_high(ProcessId sender, SeqNum to);
  void drain_ui(ProcessId sender);

  bool accept_slot(ViewNum view, const std::vector<Command>& cmds,
                   const trusted::UniqueIdentifier& primary_ui);
  /// Casts and broadcasts this replica's COMMIT for an accepted slot
  /// (no-op for the primary, whose PREPARE is its vote).
  void maybe_send_own_commit(SeqNum primary_counter);

  UsigDirectory& usigs_;
  std::size_t commit_quorum_;

  SeqNum view_base_counter_ = 0;  // first accepted counter this view

  // Sequential-UI tracking: highest processed counter per sender, and
  // actions waiting for the gap to close.
  std::map<ProcessId, SeqNum> ui_high_;
  std::map<ProcessId, std::map<SeqNum, std::vector<std::function<void()>>>>
      ui_waiting_;
};

}  // namespace unidir::agreement
