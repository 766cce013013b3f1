// Dolev–Strong Byzantine broadcast (f+1 bidirectional rounds, any n > f),
// and strong-validity agreement built on it (n >= 2f+1) — the executable
// content of the paper's *bidirectional* power class: what lock-step
// synchrony with transferable signatures can do that unidirectionality
// provably cannot (strong agreement with n <= 3f is impossible under
// unidirectionality; under synchrony n >= 2f+1 suffices).
//
// Protocol (signature chains):
//   round 1:    the sender signs its value and sends ⟨v, σ_s⟩ to all.
//   round i<=f+1: a process that has accepted a value v with a chain of i−1
//               distinct signatures (starting with the sender's) appends
//               its own signature and relays the chain to all.
//   end of round f+1: each process commits the unique accepted value, or
//               ⊥ if it accepted none or more than one.
//
// Correctness anchor: a chain of f+1 signatures contains a correct
// process's, and a correct process relays to ALL; bidirectionality makes
// the relay land within the round, so by round f+1 every accepted value is
// accepted everywhere.
//
// StrongAgreement: every process Dolev–Strong-broadcasts its input in
// parallel; after all instances finish, commit the most frequent committed
// value (ties broken by byte order). With n >= 2f+1 this satisfies STRONG
// validity: if all correct processes share input v, v wins the count.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "crypto/signature.h"
#include "sim/world.h"
#include "wire/channels.h"
#include "wire/router.h"

namespace unidir::agreement {

/// One Dolev–Strong broadcast instance, identified by its designated
/// sender. All processes (including the sender) construct one per
/// instance; rounds are globally aligned lock-step windows of
/// `round_length` ticks, so many instances can share the network.
class DolevStrongBroadcast {
 public:
  struct Options {
    ProcessId sender = 0;
    std::size_t f = 0;
    Time round_length = 8;  // must exceed the network's delay bound
    sim::Channel channel = wire::kDolevStrongCh;
  };

  using CommitFn = std::function<void(const std::optional<Bytes>&)>;

  DolevStrongBroadcast(sim::Process& host, Options options);

  /// Starts the protocol (call from on_start, before virtual time
  /// advances past the first round). `input` must be set iff this process
  /// is the sender. nullopt commit = ⊥.
  void run(std::optional<Bytes> input, CommitFn on_commit);

  bool committed() const { return committed_; }
  const std::optional<Bytes>& value() const { return value_; }
  /// Rounds of the synchronous schedule used: f+1.
  std::size_t rounds() const { return options_.f + 1; }

 private:
  struct Chain {
    Bytes value;
    std::vector<std::pair<ProcessId, crypto::Signature>> signatures;
  };

  Bytes link_binding(const Bytes& value) const;
  bool valid_chain(const Chain& chain, std::size_t max_len) const;
  void on_chain(Chain chain);
  void relay(const Chain& chain);
  void end_of_round(std::size_t round);
  void finish();

  sim::Process& host_;
  Options options_;
  wire::Router router_;
  CommitFn on_commit_;
  std::set<Bytes, BytesLess> extracted_;  // accepted values
  std::vector<Chain> pending_relays_;     // chains to extend next round
  bool committed_ = false;
  std::optional<Bytes> value_;
};

/// Strong-validity agreement under synchrony, n >= 2f+1: parallel
/// Dolev–Strong instances + plurality vote.
class StrongAgreement {
 public:
  struct Options {
    std::size_t n = 0;
    std::size_t f = 0;
    Time round_length = 8;
    /// Channels [base, base+n) are used; the registry reserves
    /// [kStrongAgreementChBase, kStrongAgreementChMax] for this.
    sim::Channel channel_base = wire::kStrongAgreementChBase;
  };

  using CommitFn = std::function<void(const Bytes&)>;

  StrongAgreement(sim::Process& host, Options options);

  void run(Bytes input, CommitFn on_commit);

  bool committed() const { return committed_; }
  const Bytes& value() const { return value_; }

 private:
  void maybe_finish();

  sim::Process& host_;
  Options options_;
  CommitFn on_commit_;
  std::vector<std::unique_ptr<DolevStrongBroadcast>> instances_;
  std::size_t done_ = 0;
  std::map<Bytes, std::size_t, BytesLess> tally_;
  bool committed_ = false;
  Bytes value_;
};

}  // namespace unidir::agreement
