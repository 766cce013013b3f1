// Bracha reliable broadcast, sequenced — the classic asynchronous
// message-passing implementation of SRB, requiring n > 3f.
//
// This is the baseline the paper's trusted-hardware mechanisms are measured
// against: with no trusted component at all, SRB is achievable only below
// the one-third fault threshold, and at a cost of O(n²) messages per
// broadcast (INITIAL → ECHO → READY with double thresholds):
//
//   on INITIAL(m) from the sender      → send ECHO(m) to all (once)
//   on ⌈(n+f+1)/2⌉ ECHO(m)             → send READY(m) (once)
//   on f+1 READY(m)                    → send READY(m) (once, "amplify")
//   on 2f+1 READY(m)                   → accept m
//
// Accepted messages are buffered and handed to the application in
// per-sender sequence order (the "sequenced" part).
#pragma once

#include <map>
#include <set>

#include "broadcast/srb.h"
#include "sim/world.h"
#include "wire/router.h"

namespace unidir::broadcast {

class BrachaEndpoint final : public SrbEndpoint {
 public:
  /// n = group size, f = fault bound; requires n > 3f.
  BrachaEndpoint(sim::Process& host, sim::Channel channel, std::size_t n,
                 std::size_t f);

  void broadcast(Bytes message) override;

  /// Messages this endpoint has sent (for complexity accounting in benches).
  std::uint64_t protocol_messages_sent() const { return sent_; }

 private:
  enum class Type : std::uint8_t { Initial = 1, Echo = 2, Ready = 3 };

  /// Per (sender, seq) instance state.
  struct Instance {
    bool echoed = false;
    bool readied = false;
    bool accepted = false;
    std::optional<Bytes> initial;  // first INITIAL seen from the sender
    // votes: value -> set of processes that ECHOed / READIed it.
    std::map<Bytes, std::set<ProcessId>, BytesLess> echoes;
    std::map<Bytes, std::set<ProcessId>, BytesLess> readies;
  };

  void handle(ProcessId from, Type type, ProcessId sender, SeqNum seq,
              const Bytes& message);
  void send_to_all(Type type, ProcessId sender, SeqNum seq,
                   const Bytes& message);
  void step(ProcessId sender, SeqNum seq);
  void accept(ProcessId sender, SeqNum seq, const Bytes& message);
  void flush(ProcessId sender);

  std::size_t echo_quorum() const { return (n_ + f_) / 2 + 1; }

  sim::Process& host_;
  wire::Router router_;
  std::size_t n_;
  std::size_t f_;
  SeqNum my_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::map<std::pair<ProcessId, SeqNum>, Instance> instances_;
  std::map<ProcessId, std::map<SeqNum, Bytes>> accepted_buffer_;
};

}  // namespace unidir::broadcast
