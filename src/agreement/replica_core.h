// The replica machinery MinBFT and PBFT share (DESIGN.md §16).
//
// The paper sorts trusted hardware by what it adds to a BFT protocol. Here
// the two SMR protocols differ only in how a slot's order is certified and
// in the quorum that follows from it: one USIG UI per proposal (MinBFT,
// n = 2f+1, quorum f+1) versus signed PRE-PREPARE/PREPARE/COMMIT votes
// (PBFT, n = 3f+1, quorum 2f+1). Everything else lives here, once:
//
//   - request admission, the batch queue, flush policy and pipeline window;
//   - exactly-once execution (per-client dedup) and client replies;
//   - checkpoint votes, stability and pruning;
//   - request timers, view-change start/escalate/abandon with backoff, and
//     the new-view merge and agenda ranking;
//   - when_in_view buffering;
//   - persistence at durability boundaries, and on_recover;
//   - checkpoint state transfer (STATE-REQUEST, STATE-REPLY, install).
//
// View change (simplified relative to the papers; see DESIGN.md): replicas
// that time out on a pending request broadcast VIEW-CHANGE(v+1) carrying
// every slot they accepted above their stable checkpoint plus requests
// never slotted; the new primary merges n-f reports (at least a quorum),
// announces NEW-VIEW with its execution count, and re-proposes the union
// in the order ranked by maybe_assume_primacy. Exactly-once execution is
// kept by per-client deduplication.
//
// Crash recovery (DESIGN.md §9): a replica persists its image — position,
// stable checkpoint, execution floor, log, machine snapshot, reply cache —
// at checkpoint boundaries, view entries and state installs. on_recover
// reloads it and catches up past it by state transfer with bounded
// timeout-driven retransmission. The image only ever lags truth.
//
// ReplicaCore<P> is a class template over a policy traits struct P,
// explicitly instantiated for MinBftPolicy and PbftPolicy in
// replica_core.cpp. P supplies:
//   Slot            per-slot certificate state; has `cmds`, `executed`,
//                   `accepted_at`
//   Position        the view-window cursor as persisted and transferred;
//                   has `view`, `next_exec`, encode/decode
//   kQuorumPerFault quorum = kQuorumPerFault * f + 1, and n >= quorum + f
//   kFirstSeq       the execution cursor of a fresh view
//   kChannel, kDurableKey, kSizeRule, and the descriptors and signature
//   binding strings of the shared messages (each protocol keeps its tags)
// The protocol class derived from ReplicaCore<P> overrides the hooks.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "agreement/client.h"
#include "agreement/smr.h"
#include "sim/world.h"
#include "wire/router.h"

namespace unidir::agreement {

/// Knobs every protocol on the core takes.
struct ReplicaOptions {
  std::vector<ProcessId> replicas;  // ids, in rank order; includes self
  std::size_t f = 0;
  Time view_change_timeout = 300;
  SeqNum checkpoint_interval = 16;
  /// Max client requests amortized into one ordered slot. With the
  /// defaults (batch_size = 1, pipeline_depth = 1) the replica runs its
  /// protocol's original one-command-per-slot wire messages bit-for-bit;
  /// any other setting switches proposals to the BATCH-* messages, whose
  /// certificate covers the digest of the whole batch.
  std::size_t batch_size = 1;
  /// How long (ticks) a non-empty partial batch may wait for more
  /// requests before the primary flushes it anyway. 0 = never hold.
  Time batch_timeout = 4;
  /// Max proposed-but-unexecuted slots the primary keeps in flight.
  std::size_t pipeline_depth = 1;
};

/// An accepted slot's command as archived for (and reported in) view
/// changes: (view, seq) preserves the original proposal order. Batch
/// members share their slot's (view, seq), in batch order.
struct VcEntry {
  ViewNum view = 0;
  SeqNum seq = 0;
  Command cmd;

  void encode(serde::Writer& w) const;
  static VcEntry decode(serde::Reader& r);
};

/// Digest of a whole batch: what a batched slot's certificate covers.
/// Hashing the serialized command vector (length included) makes batch
/// boundaries part of it — a batch cannot be split or merged without
/// invalidating the certificate.
Bytes batch_digest(const std::vector<Command>& cmds);

/// A message its sender signs: the body, then a signature over (Tag,
/// body) — one statement of the field order for both the wire and the
/// signature.
template <class Body, const wire::MsgDesc& Desc, const std::string_view& Tag>
struct Signed : Body {
  static constexpr wire::MsgDesc kDesc = Desc;

  crypto::Signature sig;

  Bytes binding() const {
    serde::Writer w;
    w.str(Tag);
    Body::encode(w);
    return w.take();
  }
  void encode(serde::Writer& w) const {
    Body::encode(w);
    sig.encode(w);
  }
  static Signed decode(serde::Reader& r) {
    Signed m;
    static_cast<Body&>(m) = Body::decode(r);
    m.sig = crypto::Signature::decode(r);
    return m;
  }
};

/// The shared messages, under each protocol's tags and binding strings;
/// bodies defined in replica_core.cpp.
namespace core_wire {
struct CheckpointBody;
struct ViewChangeBody;
struct NewViewBody;
template <class P> struct Image;
template <class P> struct StateRequest;
template <class P>
using Checkpoint =
    Signed<CheckpointBody, P::kCheckpointMsg, P::kCheckpointBinding>;
template <class P>
using ViewChange =
    Signed<ViewChangeBody, P::kViewChangeMsg, P::kViewChangeBinding>;
template <class P>
using NewView = Signed<NewViewBody, P::kNewViewMsg, P::kNewViewBinding>;
template <class P>
using StateReply = Signed<Image<P>, P::kStateReplyMsg, P::kStateBinding>;
}  // namespace core_wire

template <class P>
class ReplicaCore : public sim::Process {
 public:
  using Slot = typename P::Slot;
  using Position = typename P::Position;

  // -- introspection ---------------------------------------------------------
  ViewNum view() const { return view_; }
  bool is_primary() const { return primary_of(view_) == id(); }
  const ExecutionLog& execution_log() const { return log_; }
  std::uint64_t executed_count() const { return log_.size(); }
  crypto::Digest state_digest() const { return machine_->digest(); }
  /// Highest execution count agreed stable via checkpoints.
  std::uint64_t stable_checkpoint() const { return stable_checkpoint_; }
  std::uint64_t view_changes_seen() const { return view_changes_; }
  /// Times this replica came back from a crash.
  std::uint64_t recoveries() const { return recoveries_; }
  /// Slots retained for view-change reports (pruned below stable).
  std::size_t vc_archive_size() const { return vc_archive_.size(); }

 protected:
  ReplicaCore(ReplicaOptions options, std::unique_ptr<StateMachine> machine);

  void on_start() override;
  void on_recover(sim::DurableStore& durable) override;

  // -- protocol hooks --------------------------------------------------------
  /// Proposes one command on the unbatched wire path.
  virtual void propose(const Command& cmd) = 0;
  /// Proposes one batch on the batched wire path.
  virtual void propose_batch(std::vector<Command> cmds) = 0;
  /// Proposed-but-unexecuted slots (the primary's in-flight window).
  virtual std::size_t inflight_slots() const = 0;
  /// Whether the slot's order is certified: it may execute.
  virtual bool committed(const Slot& slot) const = 0;
  /// Resets the protocol's own per-view window state (on view entry,
  /// recovery, and a state install that moves to a newer view); the core
  /// has just cleared slots_.
  virtual void reset_view_window() = 0;
  /// The position this replica persists and ships in STATE-REPLY.
  virtual Position position() const = 0;
  /// Adopts the rest of a state-transfer responder's position b. The core
  /// has moved next_exec_ up to b.next_exec within b.view — after
  /// resetting the view window, if b.view is newer.
  virtual void adopt_position(const Position& b) { (void)b; }
  /// Runs after an installed bundle's view adoption and before execution
  /// resumes.
  virtual void after_install(const Position& b) { (void)b; }
  /// Completes on_recover once the core state is rebuilt: `image` is the
  /// reloaded position, or nullptr when the replica crashed before its
  /// first durable image.
  virtual void recovered(sim::DurableStore& durable,
                         const Position* image) = 0;

  // -- helpers for the protocols ---------------------------------------------
  bool batched() const {
    return options_.batch_size > 1 || options_.pipeline_depth > 1;
  }
  ProcessId primary_of(ViewNum v) const {
    return options_.replicas[static_cast<std::size_t>(v) %
                             options_.replicas.size()];
  }
  std::size_t n() const { return options_.replicas.size(); }
  /// The protocol's quorum: checkpoint stability, and the floor of the
  /// new-view merge.
  std::size_t quorum() const { return P::kQuorumPerFault * options_.f + 1; }
  /// Whether `m` carries a valid signature by `from`.
  template <class M>
  bool signed_by(ProcessId from, const M& m) const {
    return m.sig.key == world().key_of(from) &&
           world().keys().verify(m.sig, m.binding());
  }
  /// Whether the command already occupies a slot of this view.
  bool occupies_slot(const Command& cmd) const;

  /// Runs `action` now if `view` is current and stable; buffers it until
  /// enter_view(view) if the view is in the future (or being changed to);
  /// drops it if the view is past. NEW-VIEW and the first proposals of a
  /// view race on an asynchronous network; without this, a replica that
  /// sees a proposal first would silently lose it.
  void when_in_view(ViewNum view, std::function<void()> action);
  /// Records an accepted slot's commands in the view-change archive.
  void archive(ViewNum view, SeqNum seq, const std::vector<Command>& cmds);
  /// Guards a command now in flight under this view with a request timer,
  /// even if the client's REQUEST never reached this replica directly.
  void track(const Command& cmd);
  /// Executes every committed slot from next_exec_ on, in order.
  void try_execute();

  ReplicaOptions options_;
  /// Replica-to-replica decode boundary (replicas-only admission filter).
  wire::Router protocol_router_;

  ViewNum view_ = 0;
  bool in_view_change_ = false;

  // Current-view ordering state.
  std::map<SeqNum, Slot> slots_;
  SeqNum next_exec_ = P::kFirstSeq;  // next slot to execute

 private:
  bool is_replica(ProcessId p) const;
  void on_request(ProcessId from, Command cmd);
  void reply_to(const Command& cmd, const Bytes& result);
  void execute(Slot& slot, SeqNum seq);

  // batched proposals: queue admission, flush policy (full batch, ripe
  // timeout, pipeline room)
  void enqueue_batch(const Command& cmd);
  void maybe_flush_batch();

  // checkpoints
  void maybe_checkpoint();
  void handle_checkpoint(ProcessId from, core_wire::Checkpoint<P> cp);
  void note_checkpoint_vote(std::uint64_t executed, const Bytes& digest,
                            ProcessId voter);
  /// Prunes the execution-log prefix, the view-change archive, and dead
  /// checkpoint votes below the stable checkpoint.
  void prune_stable();

  // view change
  void arm_request_timer(const Command& cmd);
  void start_view_change(ViewNum target);
  /// Gives up an unsupported view-change attempt and rejoins the current
  /// view (replaying the messages buffered during the attempt).
  void abandon_view_change();
  void handle_view_change(ProcessId from, core_wire::ViewChange<P> vc);
  void maybe_assume_primacy(ViewNum target);
  void handle_new_view(ProcessId from, core_wire::NewView<P> nv);
  void enter_view(ViewNum v);
  /// Runs the actions buffered for the current view; drops older ones.
  void replay_view_waiting();

  // crash recovery and state transfer (DESIGN.md §9)
  /// What persist() writes and a STATE-REPLY carries.
  core_wire::Image<P> image() const;
  void persist();
  bool needs_state() const;
  void begin_state_sync();
  void send_state_request();
  void arm_state_retry();
  void handle_state_request(ProcessId from, core_wire::StateRequest<P> req);
  void handle_state_reply(ProcessId from, core_wire::StateReply<P> rep);

  std::unique_ptr<StateMachine> machine_;
  Bytes initial_snapshot_;  // pristine machine state, for blank recoveries
  wire::Router request_router_;  // client requests

  // Client-facing state.
  std::map<std::pair<ProcessId, std::uint64_t>, Command> pending_;
  ExecutionDeduper dedup_;
  ExecutionLog log_;

  ViewNum vc_target_ = 0;
  // Consecutive failed view-change attempts (escalations + abandonments)
  // since the last successful view entry. Doubles the view-change timers
  // up to 64x so repeated failed views probe ever more patiently instead
  // of re-firing at a fixed period into a cluster that needs longer to
  // heal (e.g. a partitioned or restarting quorum).
  std::uint32_t vc_backoff_ = 0;
  Time vc_timeout() const {
    return options_.view_change_timeout
           << std::min<std::uint32_t>(vc_backoff_, 6);
  }

  // Actions waiting for a future view to start.
  std::map<ViewNum, std::vector<std::function<void()>>> view_waiting_;

  // Batched-mode primary state: admitted-but-unproposed requests in
  // arrival order, with key sets for O(log n) duplicate admission checks.
  std::deque<Command> batch_queue_;
  std::set<std::pair<ProcessId, std::uint64_t>> queued_keys_;
  std::set<std::pair<ProcessId, std::uint64_t>> slotted_keys_;
  bool batch_ripe_ = false;         // queue head has waited batch_timeout
  bool batch_timer_armed_ = false;
  bool batch_flushing_ = false;     // re-entrancy guard for the flush loop

  // Checkpoints.
  std::uint64_t stable_checkpoint_ = 0;
  std::map<std::uint64_t, std::map<Bytes, std::set<ProcessId>, BytesLess>>
      cp_votes_;

  // View-change bookkeeping.
  struct VcReport {
    std::vector<VcEntry> entries;
    std::vector<Command> pending;
    std::uint64_t stable = 0;  // reporter's stable checkpoint
  };
  /// Every accepted slot not yet covered by a stable checkpoint.
  std::vector<VcEntry> vc_archive_;
  std::map<ViewNum, std::map<ProcessId, VcReport>> vc_msgs_;
  std::uint64_t view_changes_ = 0;

  // Crash-recovery state.
  std::uint64_t recoveries_ = 0;
  /// Replicas below a NEW-VIEW's announced execution count must not
  /// execute *fresh* commands (which would append to the log at the wrong
  /// index) until state transfer raises the log to the floor; dedup'd
  /// re-executions stay allowed.
  std::uint64_t exec_floor_ = 0;
  /// Target view whose primacy we postponed until state transfer brings us
  /// to the reported stable frontier (archives are pruned below it).
  std::optional<ViewNum> deferred_primacy_;
  bool state_probe_ = false;       // a state-transfer round is in flight
  unsigned state_attempts_ = 0;    // retransmissions used this round

  // Observability anchors: virtual-time starts for in-progress episodes,
  // recorded into World::metrics() when the episode ends.
  Time vc_started_at_ = 0;          // first start_view_change of an episode
  Time state_sync_started_at_ = 0;  // begin_state_sync of the current round
  Time last_checkpoint_at_ = 0;     // previous stable-checkpoint instant
};

}  // namespace unidir::agreement
