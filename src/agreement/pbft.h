// PBFT-style state machine replication (Castro & Liskov, OSDI'99) — the
// no-trusted-hardware baseline: n = 3f+1 replicas, three communication
// phases, quadratic message complexity.
//
// Normal operation (view v, primary = replicas[v mod n]):
//
//   client   → all : REQUEST(cmd)
//   primary  → all : PRE-PREPARE(v, s, cmd)            signed
//   replica  → all : PREPARE(v, s, digest)             signed, non-primary
//   *prepared* at 2f PREPAREs matching the PRE-PREPARE
//   replica  → all : COMMIT(v, s, digest)              signed
//   *committed* at 2f+1 COMMITs; execute in s order; reply; client waits
//   for f+1 matching replies.
//
// Compare MinBFT (minbft.h): the 2f+1 quorums and the extra PREPARE phase
// are exactly the cost of having no non-equivocation device — the primary
// could assign one sequence number to two commands, and the prepare phase
// exists to catch that. bench_minbft_vs_pbft measures the difference.
// Everything else — batching, execution, checkpoints, view change,
// persistence and state transfer — is the shared ReplicaCore
// (replica_core.h), run with PBFT's quorum of 2f+1.
//
// Crash recovery adds one PBFT step (DESIGN.md §9). With no trusted device
// there is no RECOVER announcement; instead an honest restarted *primary*
// must not reuse a sequence number it already assigned (that would be
// equivocation by amnesia — caught by the prepare phase, but a needless
// stall), so the primary journals (view, next sequence) durably on every
// propose.
#pragma once

#include <set>

#include "agreement/replica_core.h"

namespace unidir::agreement {

/// PBFT's typed wire messages; defined in pbft.cpp, routed by tag through
/// the replica's wire::Router.
namespace pbft_wire {
struct PrePrepare;
struct Prepare;
struct Commit;
struct BatchPrePrepare;
}  // namespace pbft_wire

/// What PBFT plugs into the replica core: a slot certified by a signed
/// pre-prepare, 2f prepares and 2f+1 commits on its digest, and a view
/// window numbered from sequence 1.
struct PbftPolicy {
  struct Slot {
    std::vector<Command> cmds;  // the batch, in execution order (size 1 unbatched)
    Bytes digest;  // digest of the command (or batch), as voted on
    bool have_preprepare = false;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool executed = false;
    Time accepted_at = 0;  // when this replica first saw the pre-prepare
    // digest -> voters
    std::map<Bytes, std::set<ProcessId>, BytesLess> prepares;
    std::map<Bytes, std::set<ProcessId>, BytesLess> commits;
  };

  struct Position {
    ViewNum view = 0;
    SeqNum next_exec = 0;

    void encode(serde::Writer& w) const;
    static Position decode(serde::Reader& r);
  };

  static constexpr std::size_t kQuorumPerFault = 2;  // 2f+1, n >= 3f+1
  static constexpr SeqNum kFirstSeq = 1;
  static constexpr const char* kSizeRule = "PBFT requires n >= 3f+1";
  static constexpr Channel kChannel = kPbftCh;
  static constexpr std::string_view kDurableKey = "pbft/state";
  static constexpr wire::MsgDesc kCheckpointMsg{4, "pbft-checkpoint"};
  static constexpr wire::MsgDesc kViewChangeMsg{5, "pbft-view-change"};
  static constexpr wire::MsgDesc kNewViewMsg{6, "pbft-new-view"};
  static constexpr wire::MsgDesc kStateRequestMsg{7, "pbft-state-request"};
  static constexpr wire::MsgDesc kStateReplyMsg{8, "pbft-state-reply"};
  static constexpr std::string_view kCheckpointBinding = "pbft-cp";
  static constexpr std::string_view kViewChangeBinding = "pbft-vc";
  static constexpr std::string_view kNewViewBinding = "pbft-nv";
  static constexpr std::string_view kStateBinding = "pbft-state";
};

extern template class ReplicaCore<PbftPolicy>;

class PbftReplica final : public ReplicaCore<PbftPolicy> {
 public:
  using Options = ReplicaOptions;

  PbftReplica(Options options, std::unique_ptr<StateMachine> machine);

  /// Builds a signed PRE-PREPARE wire message outside any replica —
  /// exposed so adversarial tests can drive Byzantine primaries by hand.
  static Bytes encode_preprepare_for_test(const crypto::Signer& signer,
                                          ViewNum view, SeqNum seq,
                                          const Command& cmd);
  /// Batched analogue: one signature over the batch digest, so tests can
  /// plant batches (including malformed ones).
  static Bytes encode_batch_preprepare_for_test(
      const crypto::Signer& signer, ViewNum view, SeqNum seq,
      const std::vector<Command>& cmds);

 private:
  // ReplicaCore hooks.
  void propose(const Command& cmd) override;
  void propose_batch(std::vector<Command> cmds) override;
  std::size_t inflight_slots() const override {
    return next_propose_seq_ > next_exec_
               ? static_cast<std::size_t>(next_propose_seq_ - next_exec_)
               : 0;
  }
  bool committed(const Slot& slot) const override;
  void reset_view_window() override { next_propose_seq_ = 1; }
  Position position() const override { return {view_, next_exec_}; }
  void recovered(sim::DurableStore& durable, const Position* image) override;

  void handle_preprepare(ProcessId from, pbft_wire::PrePrepare pp);
  void handle_batch_preprepare(ProcessId from,
                               pbft_wire::BatchPrePrepare pp);
  void handle_prepare(ProcessId from, pbft_wire::Prepare v);
  void handle_commit(ProcessId from, pbft_wire::Commit v);
  /// The part of PRE-PREPARE handling shared by both wire paths, once the
  /// primary's signature has verified.
  void on_preprepare(ProcessId from, ViewNum view, SeqNum seq,
                     std::vector<Command> cmds, bool batch);
  /// Opens this primary's own slot for a just-broadcast proposal.
  void open_own_slot(SeqNum seq, const std::vector<Command>& cmds,
                     Bytes digest);
  /// Journals (view, next sequence) on every propose, so a restarted
  /// honest primary never reassigns a used sequence number.
  void persist_journal();
  void step(SeqNum seq);

  SeqNum next_propose_seq_ = 1;  // primary's next sequence number
};

}  // namespace unidir::agreement
