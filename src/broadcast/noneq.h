// Non-equivocating broadcast from unidirectional rounds (n ≥ f+1) — the
// paper's conjecture, implemented.
//
//   sender s:  send (v, σ_s) in its round message
//   process p: forward every validly signed sender value it has seen;
//              after two rounds, commit v if exactly one sender value was
//              observed, ⊥ otherwise.
//
// Agreement follows from unidirectionality: if correct p commits v ≠ ⊥, any
// correct q either received p's forward of v (and so cannot commit a
// different non-⊥ value) or p received q's message — in which case q's
// value was v, since p saw only v.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/bytes.h"
#include "crypto/signature.h"
#include "rounds/round_driver.h"
#include "sim/world.h"
#include "wire/channels.h"
#include "wire/router.h"

namespace unidir::broadcast {

class NonEqBroadcast {
 public:
  /// One instance per process per broadcast. `driver` must be a dedicated
  /// unidirectional round driver; `sender` is the designated sender.
  NonEqBroadcast(sim::Process& host, rounds::RoundDriver& driver,
                 ProcessId sender);

  using CommitFn = std::function<void(const std::optional<Bytes>&)>;

  /// Runs the two-round protocol. `input` must be set iff this process is
  /// the designated sender. `on_commit` receives the committed value, or
  /// nullopt for ⊥.
  void run(std::optional<Bytes> input, CommitFn on_commit);

  bool committed() const { return committed_; }
  /// Valid only after commit. nullopt = ⊥.
  const std::optional<Bytes>& value() const { return value_; }

 private:
  void absorb(const std::vector<rounds::Received>& received);
  Bytes payload() const;

  sim::Process& host_;
  rounds::RoundDriver& driver_;
  /// Hardened decode boundary for the (untrusted) forward lists arriving
  /// in round payloads; pseudo-channel, see wire/channels.h.
  wire::Router payload_router_;
  ProcessId sender_;
  /// Validly sender-signed values observed, with their signatures
  /// (≥2 entries means equivocation).
  std::map<Bytes, crypto::Signature, BytesLess> seen_;
  bool committed_ = false;
  std::optional<Bytes> value_;
};

}  // namespace unidir::broadcast
