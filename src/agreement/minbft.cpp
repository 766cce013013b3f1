#include "agreement/minbft.h"

#include "common/check.h"

namespace unidir::agreement {

namespace {

Bytes prepare_binding(ViewNum view, const Command& cmd) {
  serde::Writer w;
  w.str("minbft-prep");
  w.uvarint(view);
  cmd.encode(w);
  return w.take();
}

Bytes commit_binding(ViewNum view, SeqNum primary_counter,
                     const Command& cmd) {
  serde::Writer w;
  w.str("minbft-comm");
  w.uvarint(view);
  w.uvarint(primary_counter);
  cmd.encode(w);
  return w.take();
}

Bytes batch_prepare_binding(ViewNum view, const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("minbft-bprep");
  w.uvarint(view);
  w.bytes(batch_digest(cmds));
  return w.take();
}

Bytes batch_commit_binding(ViewNum view, SeqNum primary_counter,
                           const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("minbft-bcomm");
  w.uvarint(view);
  w.uvarint(primary_counter);
  w.bytes(batch_digest(cmds));
  return w.take();
}

Bytes recover_binding() {
  serde::Writer w;
  w.str("minbft-recover");
  return w.take();
}

}  // namespace

namespace minbft_wire {

struct Prepare {
  static constexpr wire::MsgDesc kDesc{1, "minbft-prepare"};

  ViewNum view = 0;
  Command cmd;
  trusted::UniqueIdentifier ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    cmd.encode(w);
    ui.encode(w);
  }
  static Prepare decode(serde::Reader& r) {
    Prepare p;
    p.view = r.uvarint();
    p.cmd = Command::decode(r);
    p.ui = trusted::UniqueIdentifier::decode(r);
    return p;
  }
};

struct Commit {
  static constexpr wire::MsgDesc kDesc{2, "minbft-commit"};

  ViewNum view = 0;
  Command cmd;
  trusted::UniqueIdentifier primary_ui;
  trusted::UniqueIdentifier replica_ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    cmd.encode(w);
    primary_ui.encode(w);
    replica_ui.encode(w);
  }
  static Commit decode(serde::Reader& r) {
    Commit c;
    c.view = r.uvarint();
    c.cmd = Command::decode(r);
    c.primary_ui = trusted::UniqueIdentifier::decode(r);
    c.replica_ui = trusted::UniqueIdentifier::decode(r);
    return c;
  }
};

struct Recover {
  static constexpr wire::MsgDesc kDesc{8, "minbft-recover"};

  trusted::UniqueIdentifier ui;  // one fresh UI: where the stream resumes

  void encode(serde::Writer& w) const { ui.encode(w); }
  static Recover decode(serde::Reader& r) {
    Recover rc;
    rc.ui = trusted::UniqueIdentifier::decode(r);
    return rc;
  }
};

/// Batched-mode PREPARE: one UI attests the digest of the whole command
/// vector, amortizing the trusted-counter step across the batch (the
/// paper's per-attestation cost argument; dsnet's MinBFT does the same).
struct BatchPrepare {
  static constexpr wire::MsgDesc kDesc{9, "minbft-batch-prepare"};

  ViewNum view = 0;
  std::vector<Command> cmds;
  trusted::UniqueIdentifier ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    serde::write(w, cmds);
    ui.encode(w);
  }
  static BatchPrepare decode(serde::Reader& r) {
    BatchPrepare p;
    p.view = r.uvarint();
    p.cmds = serde::read<std::vector<Command>>(r);
    p.ui = trusted::UniqueIdentifier::decode(r);
    return p;
  }
};

/// Batched-mode COMMIT. Like the singleton COMMIT it carries the full
/// PREPARE content, so it can open the slot at replicas the BATCH-PREPARE
/// never reached.
struct BatchCommit {
  static constexpr wire::MsgDesc kDesc{10, "minbft-batch-commit"};

  ViewNum view = 0;
  std::vector<Command> cmds;
  trusted::UniqueIdentifier primary_ui;
  trusted::UniqueIdentifier replica_ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    serde::write(w, cmds);
    primary_ui.encode(w);
    replica_ui.encode(w);
  }
  static BatchCommit decode(serde::Reader& r) {
    BatchCommit c;
    c.view = r.uvarint();
    c.cmds = serde::read<std::vector<Command>>(r);
    c.primary_ui = trusted::UniqueIdentifier::decode(r);
    c.replica_ui = trusted::UniqueIdentifier::decode(r);
    return c;
  }
};

}  // namespace minbft_wire

using namespace minbft_wire;

void MinBftPolicy::Position::encode(serde::Writer& w) const {
  w.uvarint(view);
  w.uvarint(view_base);
  w.uvarint(next_exec);
  serde::write(w, ui_high);
}

MinBftPolicy::Position MinBftPolicy::Position::decode(serde::Reader& r) {
  Position pos;
  pos.view = r.uvarint();
  pos.view_base = r.uvarint();
  pos.next_exec = r.uvarint();
  pos.ui_high = serde::read<std::map<ProcessId, SeqNum>>(r);
  return pos;
}

Bytes MinBftReplica::encode_prepare_for_test(UsigDirectory& usigs,
                                             ProcessId as, ViewNum view,
                                             const Command& cmd) {
  Prepare p;
  p.view = view;
  p.cmd = cmd;
  p.ui = usigs.create_ui(as, prepare_binding(view, cmd));
  return wire::encode_tagged(p);
}

Bytes MinBftReplica::encode_batch_prepare_for_test(
    UsigDirectory& usigs, ProcessId as, ViewNum view,
    const std::vector<Command>& cmds) {
  BatchPrepare p;
  p.view = view;
  p.cmds = cmds;
  p.ui = usigs.create_ui(as, batch_prepare_binding(view, cmds));
  return wire::encode_tagged(p);
}

MinBftReplica::MinBftReplica(Options options, UsigDirectory& usigs,
                             std::unique_ptr<StateMachine> machine)
    : ReplicaCore(options, std::move(machine)),
      usigs_(usigs),
      commit_quorum_(options.commit_quorum != 0 ? options.commit_quorum
                                                : options.f + 1) {
  UNIDIR_REQUIRE_MSG(commit_quorum_ >= options_.f + 1 && commit_quorum_ <= n(),
                     "commit quorum must be in [f+1, n]");
  protocol_router_.on<Prepare>([this](ProcessId from, Prepare p) {
    handle_prepare(from, std::move(p));
  });
  protocol_router_.on<Commit>([this](ProcessId from, Commit c) {
    handle_commit(from, std::move(c));
  });
  protocol_router_.on<Recover>([this](ProcessId from, Recover rc) {
    handle_recover(from, std::move(rc));
  });
  protocol_router_.on<BatchPrepare>([this](ProcessId from, BatchPrepare p) {
    handle_batch_prepare(from, std::move(p));
  });
  protocol_router_.on<BatchCommit>([this](ProcessId from, BatchCommit c) {
    handle_batch_commit(from, std::move(c));
  });
}

// ---- proposals ------------------------------------------------------------------

void MinBftReplica::propose(const Command& cmd) {
  // A command may only occupy one slot per view.
  if (occupies_slot(cmd)) return;

  Prepare p;
  p.view = view_;
  p.cmd = cmd;
  p.ui = usigs_.create_ui(id(), prepare_binding(view_, cmd));
  // Our own UI consumption advances our own stream: messages from peers
  // embedding this UI must not wait for us to "receive" it.
  ui_high_[id()] = p.ui.counter;
  protocol_router_.broadcast(p);
  // Our own PREPARE is our commit vote.
  accept_slot(p.view, {p.cmd}, p.ui);
  try_execute();
}

void MinBftReplica::propose_batch(std::vector<Command> cmds) {
  BatchPrepare p;
  p.view = view_;
  p.cmds = std::move(cmds);
  p.ui = usigs_.create_ui(id(), batch_prepare_binding(view_, p.cmds));
  ui_high_[id()] = p.ui.counter;  // see propose()
  protocol_router_.broadcast(p);
  accept_slot(p.view, p.cmds, p.ui);
  try_execute();
}

std::size_t MinBftReplica::inflight_slots() const {
  if (next_exec_ == 0) return slots_.size();
  return static_cast<std::size_t>(
      std::distance(slots_.lower_bound(next_exec_), slots_.end()));
}

bool MinBftReplica::committed(const Slot& slot) const {
  return slot.committers.size() >= commit_quorum_;
}

// ---- protocol messages ----------------------------------------------------------

bool MinBftReplica::accept_slot(ViewNum view,
                                const std::vector<Command>& cmds,
                                const trusted::UniqueIdentifier& primary_ui) {
  if (view != view_ || in_view_change_) return false;
  auto it = slots_.find(primary_ui.counter);
  if (it != slots_.end()) {
    // USIG uniqueness: a second, different batch under the same counter
    // cannot verify; matching content just merges.
    return it->second.cmds == cmds;
  }
  if (view_base_counter_ == 0) {
    view_base_counter_ = primary_ui.counter;
    next_exec_ = primary_ui.counter;
  } else if (primary_ui.counter < view_base_counter_) {
    return false;  // before this view's window
  }
  Slot slot;
  slot.cmds = cmds;
  slot.primary_ui = primary_ui;
  slot.committers.insert(primary_of(view_));
  slot.accepted_at = world().now();
  slots_.emplace(primary_ui.counter, std::move(slot));
  archive(view, primary_ui.counter, cmds);
  return true;
}

void MinBftReplica::sequenced(ProcessId sender, SeqNum counter,
                              std::function<void()> action) {
  SeqNum& high = ui_high_[sender];
  if (counter <= high) {
    action();  // already due; handlers are idempotent
    return;
  }
  if (counter > high + 1) {
    ui_waiting_[sender][counter].push_back(std::move(action));
    return;
  }
  high = counter;
  action();
  drain_ui(sender);  // the gap closure may have unblocked buffered actions
}

void MinBftReplica::drain_ui(ProcessId sender) {
  auto& waiting = ui_waiting_[sender];
  while (!waiting.empty()) {
    SeqNum& high = ui_high_[sender];  // re-fetch: actions can move it
    auto it = waiting.begin();
    if (it->first > high + 1) return;
    if (it->first == high + 1) high = it->first;
    std::vector<std::function<void()>> actions = std::move(it->second);
    waiting.erase(it);
    for (auto& fn : actions) fn();
  }
}

void MinBftReplica::raise_ui_high(ProcessId sender, SeqNum to) {
  SeqNum& high = ui_high_[sender];
  if (to > high) high = to;
  drain_ui(sender);
}

void MinBftReplica::handle_prepare(ProcessId from, Prepare p) {
  if (from == id()) return;
  // UI validity is checked at arrival (a forged UI must not advance the
  // sender's stream); all protocol-state checks wait until the counter is
  // due, so that semantically stale-but-genuine UIs still advance it.
  if (!usigs_.verify(from, p.ui, prepare_binding(p.view, p.cmd))) return;
  on_prepare(from, p.view, {p.cmd}, p.ui);
}

void MinBftReplica::handle_batch_prepare(ProcessId from, BatchPrepare p) {
  if (from == id()) return;
  if (p.cmds.empty()) return;  // an attested empty batch orders nothing
  if (!usigs_.verify(from, p.ui, batch_prepare_binding(p.view, p.cmds)))
    return;
  on_prepare(from, p.view, std::move(p.cmds), p.ui);
}

void MinBftReplica::on_prepare(ProcessId from, ViewNum view,
                               std::vector<Command> cmds,
                               const trusted::UniqueIdentifier& ui) {
  sequenced(from, ui.counter, [this, from, view, cmds = std::move(cmds), ui]() {
    when_in_view(view, [this, from, view, cmds, ui]() {
      if (from != primary_of(view_)) return;
      if (!accept_slot(view, cmds, ui)) return;
      maybe_send_own_commit(ui.counter);
      for (const Command& cmd : cmds) track(cmd);
      try_execute();
    });
  });
}

void MinBftReplica::handle_commit(ProcessId from, Commit c) {
  if (from == id()) return;
  on_commit(from, c.view, {c.cmd}, c.primary_ui, c.replica_ui,
            prepare_binding(c.view, c.cmd),
            commit_binding(c.view, c.primary_ui.counter, c.cmd));
}

void MinBftReplica::handle_batch_commit(ProcessId from, BatchCommit c) {
  if (from == id()) return;
  if (c.cmds.empty()) return;
  on_commit(from, c.view, c.cmds, c.primary_ui, c.replica_ui,
            batch_prepare_binding(c.view, c.cmds),
            batch_commit_binding(c.view, c.primary_ui.counter, c.cmds));
}

void MinBftReplica::on_commit(ProcessId from, ViewNum view,
                              const std::vector<Command>& cmds,
                              const trusted::UniqueIdentifier& primary_ui,
                              const trusted::UniqueIdentifier& replica_ui,
                              const Bytes& prepare_bind,
                              const Bytes& commit_bind) {
  const ProcessId prepare_author = primary_of(view);
  // Both attestations are always checked, even when the first fails.
  UsigVerifyJob vj[2] = {
      {prepare_author, &primary_ui, &prepare_bind, false},
      {from, &replica_ui, &commit_bind, false},
  };
  usigs_.verify_batch(vj, 2);
  if (!vj[0].ok || !vj[1].ok) return;
  // Double sequencing: the commit is ordered in the sender's UI stream,
  // and the embedded PREPARE in the primary's.
  sequenced(from, replica_ui.counter,
            [this, from, view, cmds, primary_ui, prepare_author]() {
    sequenced(prepare_author, primary_ui.counter,
              [this, from, view, cmds, primary_ui]() {
      when_in_view(view, [this, from, view, cmds, primary_ui]() {
        if (from == primary_of(view_)) return;  // its vote is its PREPARE
        // A COMMIT carries the full PREPARE, so it can open the slot (and
        // prompt our own vote) even if the PREPARE itself never reached us.
        if (!accept_slot(view, cmds, primary_ui)) return;
        slots_.at(primary_ui.counter).committers.insert(from);
        maybe_send_own_commit(primary_ui.counter);
        try_execute();
      });
    });
  });
}

void MinBftReplica::maybe_send_own_commit(SeqNum primary_counter) {
  if (is_primary()) return;
  Slot& slot = slots_.at(primary_counter);
  if (!slot.committers.insert(id()).second) return;
  if (batched()) {
    BatchCommit c;
    c.view = view_;
    c.cmds = slot.cmds;
    c.primary_ui = slot.primary_ui;
    c.replica_ui = usigs_.create_ui(
        id(), batch_commit_binding(view_, primary_counter, slot.cmds));
    ui_high_[id()] = c.replica_ui.counter;  // see propose()
    protocol_router_.broadcast(c);
    return;
  }
  Commit c;
  c.view = view_;
  c.cmd = slot.cmds.front();
  c.primary_ui = slot.primary_ui;
  c.replica_ui = usigs_.create_ui(
      id(), commit_binding(view_, primary_counter, slot.cmds.front()));
  ui_high_[id()] = c.replica_ui.counter;  // see propose()
  protocol_router_.broadcast(c);
}

// ---- view window, persistence and recovery ---------------------------------------

void MinBftReplica::reset_view_window() { view_base_counter_ = 0; }

MinBftPolicy::Position MinBftReplica::position() const {
  return {view_, view_base_counter_, next_exec_, ui_high_};
}

void MinBftReplica::adopt_position(const Position& b) {
  if (view_base_counter_ == 0) view_base_counter_ = b.view_base;
}

void MinBftReplica::after_install(const Position& b) {
  // Adopt the responder's record of every peer's stream position: it
  // processed those counters, so their effects are inside the installed
  // log; stragglers below the new frontier still run via the idempotent
  // already-due path when they arrive.
  for (const auto& [p, h] : b.ui_high)
    if (p != id()) raise_ui_high(p, h);
}

void MinBftReplica::recovered(sim::DurableStore&, const Position* image) {
  ui_high_.clear();
  ui_waiting_.clear();
  if (image) {
    view_base_counter_ = image->view_base;
    ui_high_ = image->ui_high;
  }
  // Burn one fresh UI to announce where our stream resumes. Counters we
  // consumed before the crash but never delivered would otherwise leave a
  // permanent gap in every peer's sequential-UI tracking; the attested
  // counter lets them skip it. (With a *volatile* trusted counter this UI
  // reuses old values — the announcement raises nothing at peers, our
  // stale counters collide with already-processed ones, and equivocation
  // becomes possible: the negative experiment in the recovery sweeps.)
  Recover rc;
  rc.ui = usigs_.create_ui(id(), recover_binding());
  ui_high_[id()] = rc.ui.counter;
  protocol_router_.broadcast(rc);
}

void MinBftReplica::handle_recover(ProcessId from, Recover rc) {
  if (from == id()) return;
  if (!usigs_.verify(from, rc.ui, recover_binding())) return;
  raise_ui_high(from, rc.ui.counter);
}

}  // namespace unidir::agreement
