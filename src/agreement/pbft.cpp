#include "agreement/pbft.h"

#include "common/check.h"

namespace unidir::agreement {

namespace {

Bytes command_digest(const Command& cmd) {
  const crypto::Digest d = crypto::Sha256::hash(serde::encode(cmd));
  return crypto::digest_bytes(d);
}

Bytes batch_preprepare_binding(ViewNum view, SeqNum seq,
                               const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("pbft-bpp");
  w.uvarint(view);
  w.uvarint(seq);
  w.bytes(batch_digest(cmds));
  return w.take();
}

constexpr wire::MsgDesc kPrePrepareMsg{1, "pbft-pre-prepare"};
constexpr wire::MsgDesc kPrepareMsg{2, "pbft-prepare"};
constexpr wire::MsgDesc kCommitMsg{3, "pbft-commit"};
constexpr std::string_view kPrePrepareBinding = "pbft-pp";
constexpr std::string_view kPrepareBinding = "pbft-prepare";
constexpr std::string_view kCommitBinding = "pbft-commit";
constexpr std::string_view kJournalKey = "pbft/journal";

}  // namespace

namespace pbft_wire {

struct PrePrepareBody {
  ViewNum view = 0;
  SeqNum seq = 0;
  Command cmd;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(seq);
    cmd.encode(w);
  }
  static PrePrepareBody decode(serde::Reader& r) {
    PrePrepareBody p;
    p.view = r.uvarint();
    p.seq = r.uvarint();
    p.cmd = Command::decode(r);
    return p;
  }
};

struct PrePrepare
    : Signed<PrePrepareBody, kPrePrepareMsg, kPrePrepareBinding> {
  static PrePrepare decode(serde::Reader& r) { return {Signed::decode(r)}; }
};

/// PREPARE and COMMIT share a shape; each phase is its own tagged type
/// over the common body.
struct VoteBody {
  ViewNum view = 0;
  SeqNum seq = 0;
  Bytes digest;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(seq);
    w.bytes(digest);
  }
  static VoteBody decode(serde::Reader& r) {
    VoteBody v;
    v.view = r.uvarint();
    v.seq = r.uvarint();
    v.digest = r.bytes();
    return v;
  }
};

struct Prepare : Signed<VoteBody, kPrepareMsg, kPrepareBinding> {
  static Prepare decode(serde::Reader& r) { return {Signed::decode(r)}; }
};

struct Commit : Signed<VoteBody, kCommitMsg, kCommitBinding> {
  static Commit decode(serde::Reader& r) { return {Signed::decode(r)}; }
};

/// Batched-mode PRE-PREPARE: one signed proposal covers the whole command
/// vector; the quorum's PREPARE/COMMIT votes then carry the batch digest.
struct BatchPrePrepare {
  static constexpr wire::MsgDesc kDesc{9, "pbft-batch-pre-prepare"};

  ViewNum view = 0;
  SeqNum seq = 0;
  std::vector<Command> cmds;
  crypto::Signature sig;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(seq);
    serde::write(w, cmds);
    sig.encode(w);
  }
  static BatchPrePrepare decode(serde::Reader& r) {
    BatchPrePrepare p;
    p.view = r.uvarint();
    p.seq = r.uvarint();
    p.cmds = serde::read<std::vector<Command>>(r);
    p.sig = crypto::Signature::decode(r);
    return p;
  }
};

}  // namespace pbft_wire

using namespace pbft_wire;

void PbftPolicy::Position::encode(serde::Writer& w) const {
  w.uvarint(view);
  w.uvarint(next_exec);
}

PbftPolicy::Position PbftPolicy::Position::decode(serde::Reader& r) {
  Position pos;
  pos.view = r.uvarint();
  pos.next_exec = r.uvarint();
  return pos;
}

Bytes PbftReplica::encode_preprepare_for_test(const crypto::Signer& signer,
                                              ViewNum view, SeqNum seq,
                                              const Command& cmd) {
  PrePrepare pp;
  pp.view = view;
  pp.seq = seq;
  pp.cmd = cmd;
  pp.sig = signer.sign(pp.binding());
  return wire::encode_tagged(pp);
}

Bytes PbftReplica::encode_batch_preprepare_for_test(
    const crypto::Signer& signer, ViewNum view, SeqNum seq,
    const std::vector<Command>& cmds) {
  BatchPrePrepare pp;
  pp.view = view;
  pp.seq = seq;
  pp.cmds = cmds;
  pp.sig = signer.sign(batch_preprepare_binding(view, seq, cmds));
  return wire::encode_tagged(pp);
}

PbftReplica::PbftReplica(Options options,
                         std::unique_ptr<StateMachine> machine)
    : ReplicaCore(std::move(options), std::move(machine)) {
  protocol_router_.on<PrePrepare>([this](ProcessId from, PrePrepare pp) {
    handle_preprepare(from, std::move(pp));
  });
  protocol_router_.on<Prepare>([this](ProcessId from, Prepare v) {
    handle_prepare(from, std::move(v));
  });
  protocol_router_.on<Commit>([this](ProcessId from, Commit v) {
    handle_commit(from, std::move(v));
  });
  protocol_router_.on<BatchPrePrepare>(
      [this](ProcessId from, BatchPrePrepare pp) {
        handle_batch_preprepare(from, std::move(pp));
      });
}

// ---- proposals ------------------------------------------------------------------

void PbftReplica::propose(const Command& cmd) {
  // A command may only occupy one slot per view.
  if (occupies_slot(cmd)) return;

  PrePrepare pp;
  pp.view = view_;
  pp.seq = next_propose_seq_++;
  pp.cmd = cmd;
  pp.sig = signer().sign(pp.binding());
  // Journal before the broadcast can take effect: once any replica saw
  // this sequence number, we must never assign it again, restart or not.
  persist_journal();
  protocol_router_.broadcast(pp);
  open_own_slot(pp.seq, {cmd}, command_digest(cmd));
}

void PbftReplica::propose_batch(std::vector<Command> cmds) {
  BatchPrePrepare pp;
  pp.view = view_;
  pp.seq = next_propose_seq_++;
  pp.cmds = std::move(cmds);
  pp.sig = signer().sign(batch_preprepare_binding(pp.view, pp.seq, pp.cmds));
  persist_journal();  // before the broadcast, as in propose()
  protocol_router_.broadcast(pp);
  open_own_slot(pp.seq, pp.cmds, batch_digest(pp.cmds));
}

void PbftReplica::open_own_slot(SeqNum seq, const std::vector<Command>& cmds,
                                Bytes digest) {
  Slot& slot = slots_[seq];
  slot.cmds = cmds;
  slot.digest = std::move(digest);
  slot.have_preprepare = true;
  slot.accepted_at = world().now();
  archive(view_, seq, cmds);
  step(seq);
}

// ---- protocol messages -----------------------------------------------------------

void PbftReplica::handle_preprepare(ProcessId from, PrePrepare pp) {
  if (from == id() || pp.seq == 0) return;
  if (!signed_by(from, pp)) return;
  on_preprepare(from, pp.view, pp.seq, {pp.cmd}, false);
}

void PbftReplica::handle_batch_preprepare(ProcessId from, BatchPrePrepare pp) {
  if (from == id() || pp.seq == 0) return;
  if (pp.cmds.empty()) return;  // an empty batch orders nothing
  if (pp.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          pp.sig, batch_preprepare_binding(pp.view, pp.seq, pp.cmds)))
    return;
  on_preprepare(from, pp.view, pp.seq, std::move(pp.cmds), true);
}

void PbftReplica::on_preprepare(ProcessId from, ViewNum view, SeqNum seq,
                                std::vector<Command> cmds, bool batch) {
  when_in_view(view, [this, from, seq, cmds = std::move(cmds), batch]() {
    if (from != primary_of(view_)) return;
    Slot& slot = slots_[seq];
    if (slot.have_preprepare) return;  // first pre-prepare per slot wins
    slot.cmds = cmds;
    slot.digest = batch ? batch_digest(cmds) : command_digest(cmds.front());
    slot.have_preprepare = true;
    slot.accepted_at = world().now();
    archive(view_, seq, cmds);
    for (const Command& cmd : cmds) track(cmd);

    if (!slot.sent_prepare) {
      slot.sent_prepare = true;
      slot.prepares[slot.digest].insert(id());
      Prepare v;
      v.view = view_;
      v.seq = seq;
      v.digest = slot.digest;
      v.sig = signer().sign(v.binding());
      protocol_router_.broadcast(v);
    }
    step(seq);
  });
}

void PbftReplica::handle_prepare(ProcessId from, Prepare v) {
  if (from == id()) return;
  if (!signed_by(from, v)) return;
  when_in_view(v.view, [this, from, v]() {
    if (from == primary_of(view_)) return;  // the primary never prepares
    slots_[v.seq].prepares[v.digest].insert(from);
    step(v.seq);
  });
}

void PbftReplica::handle_commit(ProcessId from, Commit v) {
  if (from == id()) return;
  if (!signed_by(from, v)) return;
  when_in_view(v.view, [this, from, v]() {
    slots_[v.seq].commits[v.digest].insert(from);
    step(v.seq);
  });
}

void PbftReplica::step(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.have_preprepare) return;

  // prepared: the pre-prepare plus 2f PREPAREs for the same digest
  // (the primary's pre-prepare stands in for its prepare).
  const bool prepared =
      slot.prepares[slot.digest].size() >= 2 * options_.f;
  if (prepared && !slot.sent_commit) {
    slot.sent_commit = true;
    slot.commits[slot.digest].insert(id());
    Commit v;
    v.view = view_;
    v.seq = seq;
    v.digest = slot.digest;
    v.sig = signer().sign(v.binding());
    protocol_router_.broadcast(v);
  }
  try_execute();
}

bool PbftReplica::committed(const Slot& slot) const {
  // committed: 2f+1 COMMITs for the pre-prepared digest, ours included.
  if (!slot.have_preprepare || !slot.sent_commit) return false;
  const auto it = slot.commits.find(slot.digest);
  return it != slot.commits.end() && it->second.size() >= quorum();
}

// ---- view window, persistence and recovery ---------------------------------------

void PbftReplica::persist_journal() {
  world().durable(id()).put_value(
      std::string(kJournalKey),
      std::make_pair(view_, next_propose_seq_));
}

void PbftReplica::recovered(sim::DurableStore& durable, const Position*) {
  // The propose journal outruns the image (it is written on every
  // propose): if it belongs to the restored view, resume above it so an
  // honest primary never reassigns a sequence number it already used.
  if (const auto journal =
          durable.get_value<std::pair<ViewNum, SeqNum>>(
              std::string(kJournalKey))) {
    if (journal->first == view_)
      next_propose_seq_ = std::max(next_propose_seq_, journal->second);
  }
}

}  // namespace unidir::agreement
