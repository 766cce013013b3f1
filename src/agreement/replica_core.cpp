#include "agreement/replica_core.h"

#include <algorithm>
#include <tuple>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "common/check.h"

namespace unidir::agreement {

void VcEntry::encode(serde::Writer& w) const {
  w.uvarint(view);
  w.uvarint(seq);
  cmd.encode(w);
}

VcEntry VcEntry::decode(serde::Reader& r) {
  VcEntry e;
  e.view = r.uvarint();
  e.seq = r.uvarint();
  e.cmd = Command::decode(r);
  return e;
}

Bytes batch_digest(const std::vector<Command>& cmds) {
  serde::Writer w;
  serde::write(w, cmds);
  return crypto::digest_bytes(crypto::Sha256::hash(w.take()));
}

namespace core_wire {

struct CheckpointBody {
  std::uint64_t executed = 0;
  Bytes digest;  // of the state machine after `executed` commands

  void encode(serde::Writer& w) const {
    w.uvarint(executed);
    w.bytes(digest);
  }
  static CheckpointBody decode(serde::Reader& r) {
    CheckpointBody c;
    c.executed = r.uvarint();
    c.digest = r.bytes();
    return c;
  }
};

struct ViewChangeBody {
  ViewNum target = 0;
  std::uint64_t stable = 0;        // reporter's stable checkpoint
  std::vector<VcEntry> entries;    // accepted slots, with order info
  std::vector<Command> pending;    // buffered requests never slotted

  void encode(serde::Writer& w) const {
    w.uvarint(target);
    w.uvarint(stable);
    serde::write(w, entries);
    serde::write(w, pending);
  }
  static ViewChangeBody decode(serde::Reader& r) {
    ViewChangeBody v;
    v.target = r.uvarint();
    v.stable = r.uvarint();
    v.entries = serde::read<std::vector<VcEntry>>(r);
    v.pending = serde::read<std::vector<Command>>(r);
    return v;
  }
};

struct NewViewBody {
  ViewNum target = 0;
  std::uint64_t executed = 0;  // the new primary's execution count

  void encode(serde::Writer& w) const {
    w.uvarint(target);
    w.uvarint(executed);
  }
  static NewViewBody decode(serde::Reader& r) {
    NewViewBody v;
    v.target = r.uvarint();
    v.executed = r.uvarint();
    return v;
  }
};

template <class P>
struct StateRequest {
  static constexpr wire::MsgDesc kDesc = P::kStateRequestMsg;

  std::uint64_t have = 0;  // requester's execution count

  void encode(serde::Writer& w) const { w.uvarint(have); }
  static StateRequest decode(serde::Reader& r) {
    StateRequest req;
    req.have = r.uvarint();
    return req;
  }
};

/// What a replica writes to its DurableStore, and the body of a
/// STATE-REPLY: everything needed to resume from it.
template <class P>
struct Image {
  typename P::Position pos;
  std::uint64_t stable = 0;
  std::uint64_t exec_floor = 0;
  StateBundle core;

  void encode(serde::Writer& w) const {
    pos.encode(w);
    w.uvarint(stable);
    w.uvarint(exec_floor);
    core.encode(w);
  }
  static Image decode(serde::Reader& r) {
    Image img;
    img.pos = P::Position::decode(r);
    img.stable = r.uvarint();
    img.exec_floor = r.uvarint();
    img.core = StateBundle::decode(r);
    return img;
  }
};

}  // namespace core_wire

namespace {
constexpr unsigned kMaxStateAttempts = 4;
}  // namespace

template <class P>
ReplicaCore<P>::ReplicaCore(ReplicaOptions options,
                            std::unique_ptr<StateMachine> machine)
    : options_(std::move(options)),
      protocol_router_(*this, P::kChannel),
      machine_(std::move(machine)),
      request_router_(*this, kClientRequestCh) {
  UNIDIR_REQUIRE(machine_ != nullptr);
  UNIDIR_REQUIRE_MSG(options_.replicas.size() >= quorum() + options_.f,
                     P::kSizeRule);
  request_router_.on<Command>([this](ProcessId from, Command cmd) {
    on_request(from, std::move(cmd));
  });
  protocol_router_.set_peer_filter(
      [this](ProcessId p) { return is_replica(p); });
  using namespace core_wire;
  protocol_router_.on<Checkpoint<P>>(
      [this](ProcessId from, Checkpoint<P> cp) {
        handle_checkpoint(from, std::move(cp));
      });
  protocol_router_.on<ViewChange<P>>(
      [this](ProcessId from, ViewChange<P> vc) {
        handle_view_change(from, std::move(vc));
      });
  protocol_router_.on<NewView<P>>([this](ProcessId from, NewView<P> nv) {
    handle_new_view(from, std::move(nv));
  });
  protocol_router_.on<StateRequest<P>>(
      [this](ProcessId from, StateRequest<P> req) {
        handle_state_request(from, std::move(req));
      });
  protocol_router_.on<StateReply<P>>(
      [this](ProcessId from, StateReply<P> rep) {
        handle_state_reply(from, std::move(rep));
      });
  initial_snapshot_ = machine_->snapshot();
}

template <class P>
void ReplicaCore<P>::on_start() {
  UNIDIR_CHECK_MSG(is_replica(id()),
                   "replica id must appear in Options::replicas");
}

template <class P>
bool ReplicaCore<P>::is_replica(ProcessId p) const {
  return std::find(options_.replicas.begin(), options_.replicas.end(), p) !=
         options_.replicas.end();
}

// ---- client requests ----------------------------------------------------------

template <class P>
void ReplicaCore<P>::on_request(ProcessId from, Command cmd) {
  if (cmd.client != from) return;  // clients speak only for themselves

  if (const auto cached = dedup_.lookup(cmd)) {
    reply_to(cmd, *cached);
    return;
  }
  const bool fresh = pending_.emplace(cmd.key(), cmd).second;
  if (fresh) arm_request_timer(cmd);
  if (!in_view_change_ && is_primary()) {
    if (batched()) {
      enqueue_batch(cmd);
      maybe_flush_batch();
    } else {
      propose(cmd);
    }
  }
}

template <class P>
bool ReplicaCore<P>::occupies_slot(const Command& cmd) const {
  for (const auto& [seq, slot] : slots_)
    for (const Command& slotted : slot.cmds)
      if (slotted.key() == cmd.key()) return true;
  return false;
}

template <class P>
void ReplicaCore<P>::enqueue_batch(const Command& cmd) {
  // Admission, not dedup-against-execution: view-change re-proposals must
  // re-batch even already-executed commands (see maybe_assume_primacy).
  if (slotted_keys_.contains(cmd.key())) return;
  if (!queued_keys_.insert(cmd.key()).second) return;
  batch_queue_.push_back(cmd);
}

template <class P>
void ReplicaCore<P>::maybe_flush_batch() {
  if (!batched() || batch_flushing_) return;
  if (in_view_change_ || !is_primary()) return;
  batch_flushing_ = true;
  while (!batch_queue_.empty() &&
         inflight_slots() < options_.pipeline_depth &&
         (batch_queue_.size() >= options_.batch_size ||
          options_.batch_timeout == 0 || batch_ripe_)) {
    std::vector<Command> cmds;
    const std::size_t take =
        std::min<std::size_t>(options_.batch_size, batch_queue_.size());
    cmds.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      queued_keys_.erase(batch_queue_.front().key());
      cmds.push_back(std::move(batch_queue_.front()));
      batch_queue_.pop_front();
    }
    propose_batch(std::move(cmds));
  }
  batch_flushing_ = false;
  if (batch_queue_.empty()) {
    batch_ripe_ = false;
    return;
  }
  // A partial batch waits for batch_timeout before going out underfull;
  // once ripe it (and anything queued behind a full pipeline) flushes at
  // the next opportunity.
  if (!batch_ripe_ && !batch_timer_armed_) {
    batch_timer_armed_ = true;
    set_timer(options_.batch_timeout, [this] {
      batch_timer_armed_ = false;
      if (batch_queue_.empty()) return;
      batch_ripe_ = true;
      maybe_flush_batch();
    });
  }
}

// ---- ordering support -----------------------------------------------------------

template <class P>
void ReplicaCore<P>::when_in_view(ViewNum view, std::function<void()> action) {
  if (view < view_) return;  // stale
  if (view == view_ && !in_view_change_) {
    action();
    return;
  }
  view_waiting_[view].push_back(std::move(action));
}

template <class P>
void ReplicaCore<P>::archive(ViewNum view, SeqNum seq,
                             const std::vector<Command>& cmds) {
  // One entry per command: batch members share (view, seq) in batch
  // order, so a new primary can rebuild proposal order command by command
  // even if it only ever saw parts of the history.
  for (const Command& cmd : cmds) {
    vc_archive_.push_back({view, seq, cmd});
    if (batched()) slotted_keys_.insert(cmd.key());
  }
}

template <class P>
void ReplicaCore<P>::track(const Command& cmd) {
  if (!dedup_.lookup(cmd) && pending_.emplace(cmd.key(), cmd).second)
    arm_request_timer(cmd);
}

// ---- execution ------------------------------------------------------------------

template <class P>
void ReplicaCore<P>::try_execute() {
  while (next_exec_ != 0) {
    auto it = slots_.find(next_exec_);
    if (it == slots_.end()) break;
    Slot& slot = it->second;
    if (slot.executed) {
      ++next_exec_;
      continue;
    }
    if (!committed(slot)) break;
    // Below a NEW-VIEW's execution floor, a fresh command would land at
    // the wrong log index; wait for state transfer. Dedup'd re-executions
    // never append, so they stay allowed (and keep clients served). A
    // batch executes only once *every* member is settled or executable.
    if (log_.size() < exec_floor_) {
      const bool all_deduped =
          std::all_of(slot.cmds.begin(), slot.cmds.end(),
                      [this](const Command& cmd) {
                        return dedup_.lookup(cmd).has_value();
                      });
      if (!all_deduped) break;
    }
    // Advance the cursor before executing: execute() may hit a checkpoint
    // boundary and persist(), and the durable image must record the
    // *post*-execution cursor. An image saying "log holds k entries, next
    // slot to execute = the one producing entry k" re-executes that slot
    // after recovery — harmless stall with durable devices, but a
    // self-inflicted equivocation slot once MinBFT's counters are volatile.
    const SeqNum seq = next_exec_++;
    execute(slot, seq);
  }
  // Executions free pipeline room; admit whatever is queued behind it.
  if (batched()) maybe_flush_batch();
}

template <class P>
void ReplicaCore<P>::execute(Slot& slot, SeqNum seq) {
  slot.executed = true;
  if (batched()) {
    // Atomicity witness for the explorer: which requests this slot
    // committed as one batch, in execution order (see the batch-atomicity
    // invariant). Only emitted in batched mode, so unbatched transcripts —
    // and hence fingerprints — are unchanged.
    serde::Writer w;
    w.uvarint(view_);
    w.uvarint(seq);
    w.uvarint(slot.cmds.size());
    for (const Command& cmd : slot.cmds) {
      w.uvarint(cmd.client);
      w.uvarint(cmd.request_id);
    }
    output("smr-batch", w.take());
  }
  for (const Command& cmd : slot.cmds) {
    Bytes result;
    if (const auto cached = dedup_.lookup(cmd)) {
      // Exactly-once: re-proposed after a view change, or a retry that
      // landed in a later batch than its first commit.
      result = *cached;
    } else {
      result = machine_->apply(cmd.op);
      dedup_.record(cmd, result);
      log_.append({cmd, result});
      const Time latency = world().now() - slot.accepted_at;
      world().metrics().histogram("smr.commit_latency_ticks").record(latency);
      world().tracer().complete("commit", "smr", id(), slot.accepted_at,
                                latency, "log_index", log_.size());
      output("smr-exec", serde::encode(cmd));
      maybe_checkpoint();
    }
    pending_.erase(cmd.key());
    reply_to(cmd, result);
  }
}

template <class P>
void ReplicaCore<P>::reply_to(const Command& cmd, const Bytes& result) {
  Reply reply;
  reply.request_id = cmd.request_id;
  reply.result = result;
  wire::send(*this, cmd.client, kClientReplyCh, reply);
}

// ---- checkpoints ----------------------------------------------------------------

template <class P>
void ReplicaCore<P>::maybe_checkpoint() {
  if (options_.checkpoint_interval == 0) return;
  if (log_.size() % options_.checkpoint_interval != 0) return;
  core_wire::Checkpoint<P> cp;
  cp.executed = log_.size();
  cp.digest = crypto::digest_bytes(machine_->digest());
  cp.sig = signer().sign(cp.binding());
  protocol_router_.broadcast(cp);
  // A checkpoint boundary is also the durability boundary: crash recovery
  // resumes from the image written here (see DESIGN.md §9).
  persist();
  note_checkpoint_vote(cp.executed, cp.digest, id());
}

template <class P>
void ReplicaCore<P>::handle_checkpoint(ProcessId from,
                                       core_wire::Checkpoint<P> cp) {
  if (!signed_by(from, cp)) return;
  note_checkpoint_vote(cp.executed, cp.digest, from);
}

template <class P>
void ReplicaCore<P>::note_checkpoint_vote(std::uint64_t executed,
                                          const Bytes& digest,
                                          ProcessId voter) {
  if (executed <= stable_checkpoint_) return;  // already stable
  auto& voters = cp_votes_[executed][digest];
  voters.insert(voter);
  if (voters.size() < quorum()) return;
  stable_checkpoint_ = executed;
  world().metrics()
      .histogram("smr.checkpoint_gap_ticks")
      .record(world().now() - last_checkpoint_at_);
  last_checkpoint_at_ = world().now();
  world().tracer().instant("checkpoint-stable", "smr", id(), world().now(),
                           "executed", executed);
  prune_stable();
  persist();
}

template <class P>
void ReplicaCore<P>::prune_stable() {
  cp_votes_.erase(cp_votes_.begin(),
                  cp_votes_.upper_bound(stable_checkpoint_));
  // The archive exists to realign peers during view changes; below the
  // stable checkpoint a quorum holds the history durably, and laggards
  // are realigned by state transfer instead — so both the executed prefix
  // and the matching archive entries can go.
  const std::uint64_t upto =
      std::min<std::uint64_t>(stable_checkpoint_, log_.size());
  if (upto <= log_.base()) return;
  std::set<std::pair<ProcessId, std::uint64_t>> settled;
  for (std::uint64_t k = log_.base(); k < upto; ++k)
    settled.insert(log_.at(k).command.key());
  std::erase_if(vc_archive_, [&](const VcEntry& e) {
    return settled.contains(e.cmd.key());
  });
  log_.prune_to(upto);
}

// ---- view change ----------------------------------------------------------------

template <class P>
void ReplicaCore<P>::arm_request_timer(const Command& cmd) {
  const auto key = cmd.key();
  const ViewNum armed_view = view_;
  set_timer(vc_timeout(), [this, key, armed_view] {
    if (!pending_.contains(key)) return;  // executed meanwhile
    if (in_view_change_) return;          // one attempt at a time
    // Still pending after a full timeout in the same view: the primary is
    // not making progress for us.
    if (view_ == armed_view) start_view_change(view_ + 1);
  });
}

template <class P>
void ReplicaCore<P>::start_view_change(ViewNum target) {
  if (target <= view_) return;
  if (!in_view_change_) {
    // Escalations re-enter here with the flag already set; the episode's
    // duration is measured from its first attempt.
    vc_started_at_ = world().now();
    world().tracer().instant("view-change-start", "smr", id(), world().now(),
                             "target", target);
  }
  in_view_change_ = true;
  vc_target_ = target;
  ++view_changes_;

  core_wire::ViewChange<P> vc;
  vc.target = target;
  vc.stable = stable_checkpoint_;
  // Report every accepted slot not yet settled by a stable checkpoint
  // (with its original order) plus any buffered client requests that never
  // made it into a slot.
  vc.entries = vc_archive_;
  for (const auto& [key, cmd] : pending_) vc.pending.push_back(cmd);
  vc.sig = signer().sign(vc.binding());
  protocol_router_.broadcast(vc);
  vc_msgs_[target][id()] = VcReport{vc.entries, vc.pending, vc.stable};
  maybe_assume_primacy(target);

  // If this attempt stalls, either escalate (when f+1 replicas agree the
  // view is broken — the next primary may be dead too) or abandon and
  // rejoin the current view (when we are alone: a spurious timeout, e.g.
  // pre-GST straggling, must not strand us outside a healthy view).
  // The attempt timer backs off with every consecutive failure: repeated
  // failed views mean the cluster needs longer to heal (restarting quorum,
  // partition epoch), and re-firing at a fixed period just burns messages.
  set_timer(vc_timeout(), [this, target] {
    if (!in_view_change_ || vc_target_ != target) return;
    ++vc_backoff_;
    if (vc_msgs_[target].size() >= options_.f + 1) {
      start_view_change(target + 1);
    } else {
      abandon_view_change();
    }
  });
}

template <class P>
void ReplicaCore<P>::abandon_view_change() {
  in_view_change_ = false;
  world().metrics().add("smr.view_changes_abandoned");
  // Replay whatever the attempt made us buffer for the view we never left.
  replay_view_waiting();
  // Anything still unserved gets a fresh clock (and hence a fresh chance
  // to demand a view change, now or under a later, supported attempt).
  for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
}

template <class P>
void ReplicaCore<P>::handle_view_change(ProcessId from,
                                        core_wire::ViewChange<P> vc) {
  if (vc.target <= view_) return;
  if (!signed_by(from, vc)) return;
  vc_msgs_[vc.target][from] =
      VcReport{std::move(vc.entries), std::move(vc.pending), vc.stable};

  // Join: f+1 replicas want a higher view, so at least one correct one
  // does; we follow even if our own timer has not fired.
  if (vc_msgs_[vc.target].size() >= options_.f + 1 &&
      (!in_view_change_ || vc_target_ < vc.target))
    start_view_change(vc.target);
  maybe_assume_primacy(vc.target);
}

template <class P>
void ReplicaCore<P>::maybe_assume_primacy(ViewNum target) {
  if (primary_of(target) != id()) return;
  if (target <= view_) return;
  // Merge quorum: n - f reports, and never fewer than a quorum (at each
  // protocol's native n — 2f+1 for MinBFT, 3f+1 for PBFT — the two are
  // equal). The count must intersect every commit quorum, or a slot
  // committed at replicas outside the reports vanishes from the new view's
  // re-proposals and the logs fork. MinBFT at n = 4, f = 1 shows why
  // n - f is needed: f+1 reports do not intersect a commit quorum of f+1,
  // and pipelined slots keep enough proposals in flight at view-change
  // time to hit that hole constantly.
  const std::size_t merge_quorum =
      std::max<std::size_t>(quorum(), n() - options_.f);
  auto it = vc_msgs_.find(target);
  if (it == vc_msgs_.end() || it->second.size() < merge_quorum) return;

  // Archives are pruned below stable checkpoints, so re-proposals can only
  // realign peers above the reported stable frontier. A primary still
  // below it (it just recovered, or simply lagged) must state-transfer up
  // to the frontier before taking over.
  std::uint64_t frontier = stable_checkpoint_;
  for (const auto& [reporter, report] : it->second)
    frontier = std::max(frontier, report.stable);
  if (log_.size() < frontier) {
    deferred_primacy_ = target;
    begin_state_sync();
    return;
  }
  deferred_primacy_.reset();

  // Announce and take over. The announced execution count becomes every
  // entering replica's execution floor (see exec_floor_).
  core_wire::NewView<P> nv;
  nv.target = target;
  nv.executed = log_.size();
  nv.sig = signer().sign(nv.binding());
  protocol_router_.broadcast(nv);
  enter_view(target);

  // Re-propose in a consistent order: every reported slot, ranked by its
  // most RECENT reported (view, seq) — newest view first, seq order
  // within a view — then never-slotted requests in deterministic key
  // order. Exactly-once is preserved by per-client deduplication at
  // execution time.
  //
  // Why newest view first: the order must extend every correct replica's
  // execution order above the stable frontier. If some replica executed A
  // before B there, B's commit quorum intersects this merge quorum, so a
  // reporter accepted B's latest slot — and per-primary USIG sequencing
  // makes MinBFT's within-view accepts prefixes of the proposal stream, so
  // that reporter accepted A's slot in the same view too (agendas
  // re-propose A before B inductively). Hence A's newest reported view >=
  // B's, and ranking views downward never inverts an executed pair. PBFT
  // runs the same ranking over its 2f+1 quorums. Ascending original (view,
  // seq) — the obvious order — is WRONG: a stale slot from an old view
  // that never committed (so was never executed, never pruned) sorts ahead
  // of newer slots, and a replica that executed one of those newer slots
  // pre-view-change holds its command at an earlier log position than
  // peers replaying the agenda — divergent logs (found by the batching
  // sweep under pipelined view changes).
  //
  // Batch members share their slot's (view, seq); stable sort keeps their
  // first-reported (= batch) order.
  struct Ranked {
    ViewNum view;
    SeqNum seq;
    Command cmd;
  };
  std::map<std::pair<ProcessId, std::uint64_t>, std::size_t> index;
  std::vector<Ranked> ranked;
  std::map<std::pair<ProcessId, std::uint64_t>, Command> loose;
  for (const auto& [reporter, report] : it->second) {
    for (const VcEntry& e : report.entries) {
      auto [pos, fresh] = index.emplace(e.cmd.key(), ranked.size());
      if (fresh) {
        ranked.push_back({e.view, e.seq, e.cmd});
      } else {
        Ranked& r = ranked[pos->second];
        if (std::tie(e.view, e.seq) > std::tie(r.view, r.seq)) {
          r.view = e.view;
          r.seq = e.seq;
        }
      }
    }
    for (const Command& cmd : report.pending) loose.emplace(cmd.key(), cmd);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.view != b.view) return a.view > b.view;
                     return a.seq < b.seq;
                   });
  std::set<std::pair<ProcessId, std::uint64_t>> seen;
  auto consider = [&](const Command& cmd) {
    if (!seen.insert(cmd.key()).second) return;
    // Re-propose even commands this replica has already executed: a
    // correct replica may enter this view having committed less than the
    // primary did (enter_view drops per-view slot progress), and only the
    // full archive in its original order realigns it. Skipping executed
    // commands would hand laggards a residual sequence whose positions
    // depend on the primary's own execution history — divergent logs
    // (found by the byte-mutation fuzz sweep). Exactly-once is preserved
    // by dedup at execution time.
    track(cmd);
    if (batched())
      enqueue_batch(cmd);
    else
      propose(cmd);
  };
  for (const Ranked& r : ranked) consider(r.cmd);
  for (const auto& [key, cmd] : loose) consider(cmd);
  // Batched mode re-proposes through the same queue/flush machinery, so
  // re-proposals regroup into fresh batches under the new view's keys.
  if (batched()) maybe_flush_batch();
}

template <class P>
void ReplicaCore<P>::handle_new_view(ProcessId from,
                                     core_wire::NewView<P> nv) {
  if (nv.target <= view_) return;
  if (from != primary_of(nv.target)) return;
  if (!signed_by(from, nv)) return;
  exec_floor_ = std::max(exec_floor_, nv.executed);
  enter_view(nv.target);
  // Pending requests restart their clocks under the new primary.
  for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
  // Below the floor the primary's re-proposals cannot realign us (they sit
  // above its stable checkpoint); fetch the missing prefix explicitly.
  if (log_.size() < exec_floor_) begin_state_sync();
}

template <class P>
void ReplicaCore<P>::enter_view(ViewNum v) {
  if (in_view_change_) {
    const Time dur = world().now() - vc_started_at_;
    world().metrics().histogram("smr.view_change_ticks").record(dur);
    world().tracer().complete("view-change", "smr", id(), vc_started_at_, dur,
                              "view", v);
  }
  view_ = v;
  in_view_change_ = false;
  vc_backoff_ = 0;  // a view actually entered resets the failure streak
  slots_.clear();
  next_exec_ = P::kFirstSeq;
  reset_view_window();
  // Per-view batching state dies with the view: queued commands stay in
  // pending_ (and in peers' view-change reports), so the new primary —
  // whoever it is — re-admits them.
  batch_queue_.clear();
  queued_keys_.clear();
  slotted_keys_.clear();
  batch_ripe_ = false;
  if (deferred_primacy_ && *deferred_primacy_ <= v) deferred_primacy_.reset();
  persist();  // view entry is a durability boundary (see DESIGN.md §9)
  replay_view_waiting();
}

template <class P>
void ReplicaCore<P>::replay_view_waiting() {
  // Replay protocol messages that arrived for this view before we entered
  // it, and drop anything for views that can no longer happen.
  view_waiting_.erase(view_waiting_.begin(),
                      view_waiting_.lower_bound(view_));
  auto it = view_waiting_.find(view_);
  if (it == view_waiting_.end()) return;
  std::vector<std::function<void()>> actions = std::move(it->second);
  view_waiting_.erase(it);
  for (auto& fn : actions) fn();
}

// ---- crash recovery and state transfer (DESIGN.md §9) ---------------------------

template <class P>
core_wire::Image<P> ReplicaCore<P>::image() const {
  core_wire::Image<P> img;
  img.pos = position();
  img.stable = stable_checkpoint_;
  img.exec_floor = exec_floor_;
  img.core.log = log_;
  img.core.machine_snapshot = machine_->snapshot();
  img.core.dedup = dedup_;
  return img;
}

template <class P>
void ReplicaCore<P>::persist() {
  world().durable(id()).put_value(std::string(P::kDurableKey), image());
}

template <class P>
void ReplicaCore<P>::on_recover(sim::DurableStore& durable) {
  // Everything volatile is gone; rebuild from the durable image (or from
  // scratch when we crashed before the first checkpoint).
  view_ = 0;
  in_view_change_ = false;
  vc_target_ = 0;
  vc_backoff_ = 0;
  slots_.clear();
  next_exec_ = P::kFirstSeq;
  reset_view_window();
  view_waiting_.clear();
  pending_.clear();
  dedup_ = {};
  log_ = {};
  stable_checkpoint_ = 0;
  cp_votes_.clear();
  vc_archive_.clear();
  vc_msgs_.clear();
  exec_floor_ = 0;
  deferred_primacy_.reset();
  state_probe_ = false;
  state_attempts_ = 0;
  batch_queue_.clear();
  queued_keys_.clear();
  slotted_keys_.clear();
  batch_ripe_ = false;
  batch_timer_armed_ = false;
  batch_flushing_ = false;
  machine_->restore(initial_snapshot_);
  const auto img = durable.get_value<core_wire::Image<P>>(
      std::string(P::kDurableKey));
  if (img) {
    view_ = img->pos.view;
    next_exec_ = img->pos.next_exec;
    stable_checkpoint_ = img->stable;
    exec_floor_ = img->exec_floor;
    log_ = img->core.log;
    machine_->restore(img->core.machine_snapshot);
    dedup_ = img->core.dedup;
  }
  ++recoveries_;
  world().metrics().add("smr.recoveries");
  vc_started_at_ = 0;
  state_sync_started_at_ = 0;
  last_checkpoint_at_ = world().now();
  recovered(durable, img ? &img->pos : nullptr);

  // Catch up past the image: peers may have executed (and pruned) far
  // beyond our last durable checkpoint.
  begin_state_sync();
}

template <class P>
bool ReplicaCore<P>::needs_state() const {
  return log_.size() < exec_floor_ || deferred_primacy_.has_value();
}

template <class P>
void ReplicaCore<P>::begin_state_sync() {
  if (!state_probe_) state_sync_started_at_ = world().now();
  state_probe_ = true;
  state_attempts_ = 0;
  send_state_request();
  arm_state_retry();
}

template <class P>
void ReplicaCore<P>::send_state_request() {
  core_wire::StateRequest<P> req;
  req.have = log_.size();
  protocol_router_.broadcast(req);
}

template <class P>
void ReplicaCore<P>::arm_state_retry() {
  // Bounded exponential backoff: replies can be lost (in-flight drops when
  // we crash again, crashed responders), but retransmission must not keep
  // the world from quiescing, so give up after a few rounds — the next
  // view change or checkpoint restarts the hunt if we still lag.
  if (state_attempts_ >= kMaxStateAttempts) {
    state_probe_ = false;
    world().metrics().add("smr.state_sync_abandoned");
    return;
  }
  const Time delay = (options_.view_change_timeout / 2 + 1)
                     << state_attempts_;
  set_timer(delay, [this] {
    if (!state_probe_) return;
    ++state_attempts_;
    send_state_request();
    arm_state_retry();
  });
}

template <class P>
void ReplicaCore<P>::handle_state_request(ProcessId from,
                                          core_wire::StateRequest<P> req) {
  if (from == id()) return;
  if (log_.size() <= req.have) return;  // nothing the requester lacks
  core_wire::StateReply<P> rep{image(), {}};
  rep.sig = signer().sign(rep.binding());
  protocol_router_.send(from, rep);
}

template <class P>
void ReplicaCore<P>::handle_state_reply(ProcessId from,
                                        core_wire::StateReply<P> rep) {
  if (from == id()) return;
  // Signed by the responding replica: a Byzantine network cannot forge a
  // bundle, only replay one — and stale bundles are ignored below.
  if (!signed_by(from, rep)) return;
  const core_wire::Image<P>& b = rep;

  const ViewNum was_view = view_;
  if (b.core.log.size() > log_.size()) {
    log_ = b.core.log;
    machine_->restore(b.core.machine_snapshot);
    dedup_ = b.core.dedup;
    if (batched()) {
      // Witness for the batch-atomicity checker: these commands' effects
      // arrived via state transfer, so no "smr-exec" output will ever
      // record them. Batched mode only — unbatched transcripts (and their
      // golden fingerprints) must not change.
      serde::Writer iw;
      const auto installed = dedup_.keys();
      iw.uvarint(installed.size());
      for (const auto& [client, rid] : installed) {
        iw.uvarint(client);
        iw.uvarint(rid);
      }
      output("smr-install", iw.take());
    }
  }
  if (b.stable > stable_checkpoint_) stable_checkpoint_ = b.stable;
  exec_floor_ = std::max(exec_floor_, b.exec_floor);
  if (b.pos.view > view_) {
    // Adopt the responder's view wholesale: our per-view window is void.
    view_ = b.pos.view;
    in_view_change_ = false;
    slots_.clear();
    reset_view_window();
    next_exec_ = b.pos.next_exec;
    adopt_position(b.pos);
  } else if (b.pos.view == view_ && !in_view_change_) {
    // The responder executed further into this view than we did; every
    // slot it passed is in the installed log (or dedup'd), so resuming
    // from its cursor skips nothing uncommitted.
    if (b.pos.next_exec > next_exec_) next_exec_ = b.pos.next_exec;
    adopt_position(b.pos);
  }
  prune_stable();
  persist();
  if (view_ > was_view) {
    if (deferred_primacy_ && *deferred_primacy_ <= view_)
      deferred_primacy_.reset();
    replay_view_waiting();
    for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
  }
  after_install(b.pos);
  try_execute();
  // Requests that arrived before the install but were executed elsewhere
  // are settled by the bundle; drop them, or their timers would hunt for a
  // view change nothing needs, forever.
  for (auto it = pending_.begin(); it != pending_.end();)
    it = dedup_.lookup(it->second) ? pending_.erase(it) : ++it;
  if (!needs_state() && state_probe_) {
    state_probe_ = false;
    const Time dur = world().now() - state_sync_started_at_;
    world().metrics().histogram("smr.state_sync_ticks").record(dur);
    world().tracer().complete("state-sync", "smr", id(),
                              state_sync_started_at_, dur, "have",
                              log_.size());
  }
  if (deferred_primacy_) maybe_assume_primacy(*deferred_primacy_);
}

template class ReplicaCore<MinBftPolicy>;
template class ReplicaCore<PbftPolicy>;

}  // namespace unidir::agreement
