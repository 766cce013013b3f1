#include "core/separation.h"

#include <memory>
#include <set>
#include <sstream>

#include "broadcast/srb_hub.h"
#include "common/serde.h"
#include "sim/adversaries.h"
#include "sim/world.h"
#include "wire/channels.h"

namespace unidir::core {

namespace {

constexpr sim::Channel kSrbCh = wire::kSeparationSrbCh;

/// A process attempting one "round" over SRB: broadcast a round message,
/// finish the round once round messages from n−f distinct processes
/// (counting itself) have been delivered. This is the canonical candidate
/// protocol — any protocol must release processes under the scenarios'
/// fault assumptions, and the argument shows no waiting rule can save
/// unidirectionality.
class SrbRoundProcess final : public sim::Process {
 public:
  std::size_t n = 0;
  std::size_t f = 0;
  broadcast::SrbHub* hub = nullptr;

  bool round_done = false;
  std::set<ProcessId> heard;  // distinct senders of round-1 messages

  void on_start() override {
    endpoint_ = hub->make_endpoint(*this);
    endpoint_->set_deliver([this](const broadcast::Delivery& d) {
      heard.insert(d.sender);
      if (!round_done && heard.size() >= n - f) {
        round_done = true;
        output("round-done", {});
      }
    });
    endpoint_->broadcast(serde::encode(std::string("round-1")));
  }

  bool received_from(ProcessId p) const { return heard.contains(p); }

 private:
  std::unique_ptr<broadcast::SrbHubEndpoint> endpoint_;
};

/// One scenario execution: which processes crash at time 0, and which
/// directed flows the adversary holds forever.
struct ScenarioSpec {
  std::set<ProcessId> crashed;
  std::vector<std::pair<std::set<ProcessId>, std::set<ProcessId>>> held;
};

struct ScenarioRun {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<broadcast::SrbHub> hub;
  std::vector<SrbRoundProcess*> procs;
};

ScenarioRun run_scenario(std::size_t n, std::size_t f, std::uint64_t seed,
                         const ScenarioSpec& spec) {
  // Delay fixed at 1 tick so that which-messages-are-held is the ONLY
  // difference between scenarios — required for the transcript equality
  // checks to reflect the proof's indistinguishability, not RNG noise.
  auto adversary = std::make_unique<sim::PartitionAdversary>(/*intra max=*/1);
  for (const auto& [from, to] : spec.held) adversary->block(from, to);

  ScenarioRun run;
  run.world = std::make_unique<sim::World>(seed, std::move(adversary));
  run.hub = std::make_unique<broadcast::SrbHub>(*run.world, kSrbCh);
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = run.world->spawn<SrbRoundProcess>();
    p.n = n;
    p.f = f;
    p.hub = run.hub.get();
    run.procs.push_back(&p);
  }
  for (ProcessId c : spec.crashed) run.world->crash(c);
  run.world->start();
  run.world->run_to_quiescence();
  return run;
}

}  // namespace

std::string SrbUniSeparation::describe() const {
  std::ostringstream os;
  os << "rounds_completed=" << rounds_completed
     << " q(1~3)=" << q_cannot_tell_1_from_3
     << " q(2~3)=" << q_cannot_tell_2_from_3
     << " c1(2~3)=" << c1_cannot_tell_2_from_3
     << " c2(1~3)=" << c2_cannot_tell_1_from_3
     << " violation=" << unidirectionality_violated;
  return os.str();
}

SrbUniSeparation run_srb_uni_separation(std::size_t n, std::size_t f,
                                        std::uint64_t seed) {
  UNIDIR_REQUIRE_MSG(n > 2 * f && f > 1,
                     "the separation needs n > 2f and f > 1");
  // Partition: Q = {0..n-f-1}, C1 = {n-f}, C2 = {n-f+1..n-1}.
  std::set<ProcessId> q_set;
  for (std::size_t i = 0; i < n - f; ++i)
    q_set.insert(static_cast<ProcessId>(i));
  const ProcessId c1 = static_cast<ProcessId>(n - f);
  std::set<ProcessId> c2_set;
  for (std::size_t i = n - f + 1; i < n; ++i)
    c2_set.insert(static_cast<ProcessId>(i));
  const ProcessId c2_witness = *c2_set.begin();

  // Scenario 1: C1 crashed; C2 → Q held.
  ScenarioSpec s1;
  s1.crashed = {c1};
  s1.held.push_back({c2_set, q_set});
  // The crashed C1's outgoing flow matches Scenario 3's held flow by
  // construction (it sends nothing at all).

  // Scenario 2: C2 crashed; C1 → Q held.
  ScenarioSpec s2;
  s2.crashed = c2_set;
  s2.held.push_back({{c1}, q_set});

  // Scenario 3: nobody faulty; everything out of C1 and C2 held.
  ScenarioSpec s3;
  s3.held.push_back({{c1}, q_set});
  s3.held.push_back({{c1}, c2_set});
  s3.held.push_back({c2_set, q_set});
  s3.held.push_back({c2_set, {c1}});

  ScenarioRun r1 = run_scenario(n, f, seed, s1);
  ScenarioRun r2 = run_scenario(n, f, seed, s2);
  ScenarioRun r3 = run_scenario(n, f, seed, s3);

  SrbUniSeparation out;

  // Progress: every correct process finished its round in every scenario.
  out.rounds_completed = true;
  auto check_done = [&](const ScenarioRun& r) {
    for (const SrbRoundProcess* p : r.procs)
      if (r.world->correct(p->id()) && !p->round_done)
        out.rounds_completed = false;
  };
  check_done(r1);
  check_done(r2);
  check_done(r3);

  // Indistinguishability via transcript equality.
  out.q_cannot_tell_1_from_3 = true;
  out.q_cannot_tell_2_from_3 = true;
  for (ProcessId q : q_set) {
    if (!r1.world->transcript(q).indistinguishable_from(
            r3.world->transcript(q)))
      out.q_cannot_tell_1_from_3 = false;
    if (!r2.world->transcript(q).indistinguishable_from(
            r3.world->transcript(q)))
      out.q_cannot_tell_2_from_3 = false;
  }
  out.c1_cannot_tell_2_from_3 =
      r2.world->transcript(c1).indistinguishable_from(
          r3.world->transcript(c1));
  out.c2_cannot_tell_1_from_3 = true;
  for (ProcessId c : c2_set)
    if (!r1.world->transcript(c).indistinguishable_from(
            r3.world->transcript(c)))
      out.c2_cannot_tell_1_from_3 = false;

  // The violation in Scenario 3.
  const SrbRoundProcess* p1 = r3.procs[c1];
  const SrbRoundProcess* p2 = r3.procs[c2_witness];
  out.unidirectionality_violated =
      p1->round_done && p2->round_done &&
      !p1->received_from(c2_witness) && !p2->received_from(c1);

  return out;
}

// ---- RB cannot solve very weak agreement (n <= 2f) ------------------------------

namespace {

/// The natural VWA-over-RB protocol: broadcast the input; once values from
/// n−f distinct processes (incl. self) are in, commit the common value if
/// they all agree, ⊥ otherwise.
class RbVwaProcess final : public sim::Process {
 public:
  std::size_t n = 0;
  std::size_t f = 0;
  Bytes input;
  broadcast::SrbHub* hub = nullptr;

  bool committed = false;
  std::optional<Bytes> value;

  void on_start() override {
    endpoint_ = hub->make_endpoint(*this);
    endpoint_->set_deliver([this](const broadcast::Delivery& d) {
      if (committed) return;
      senders_.insert(d.sender);
      values_.insert(d.message);
      if (senders_.size() >= n - f) {
        committed = true;
        value = (values_.size() == 1)
                    ? std::optional<Bytes>(*values_.begin())
                    : std::nullopt;
        output("vwa-commit", value ? *value : bytes_of("<bot>"));
      }
    });
    endpoint_->broadcast(input);
  }

 private:
  std::unique_ptr<broadcast::SrbHubEndpoint> endpoint_;
  std::set<ProcessId> senders_;
  std::set<Bytes, BytesLess> values_;
};

struct VwaRun {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<broadcast::SrbHub> hub;
  std::vector<RbVwaProcess*> procs;
};

VwaRun run_vwa_world(std::size_t n, std::uint64_t seed,
                     const std::set<ProcessId>& crashed, bool partitioned,
                     const std::vector<Bytes>& inputs) {
  auto adversary = std::make_unique<sim::PartitionAdversary>(1);
  if (partitioned) {
    std::set<ProcessId> p_half;
    std::set<ProcessId> q_half;
    for (std::size_t i = 0; i < n / 2; ++i)
      p_half.insert(static_cast<ProcessId>(i));
    for (std::size_t i = n / 2; i < n; ++i)
      q_half.insert(static_cast<ProcessId>(i));
    adversary->block_bidirectional(p_half, q_half);
  }
  VwaRun run;
  run.world = std::make_unique<sim::World>(seed, std::move(adversary));
  run.hub = std::make_unique<broadcast::SrbHub>(*run.world, kSrbCh);
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = run.world->spawn<RbVwaProcess>();
    p.n = n;
    p.f = n / 2;
    p.input = inputs[i];
    p.hub = run.hub.get();
    run.procs.push_back(&p);
  }
  for (ProcessId c : crashed) run.world->crash(c);
  run.world->start();
  run.world->run_to_quiescence();
  return run;
}

}  // namespace

std::string RbVwaImpossibility::describe() const {
  std::ostringstream os;
  os << "terminated=" << all_terminated
     << " p(1~2)=" << p_cannot_tell_1_from_2
     << " p(2~5)=" << p_cannot_tell_2_from_5
     << " q(3~4)=" << q_cannot_tell_3_from_4
     << " q(4~5)=" << q_cannot_tell_4_from_5
     << " violation=" << agreement_violated;
  return os.str();
}

RbVwaImpossibility run_rb_vwa_impossibility(std::size_t n,
                                            std::uint64_t seed) {
  UNIDIR_REQUIRE_MSG(n >= 2 && n % 2 == 0, "needs an even n (f = n/2)");
  std::set<ProcessId> p_half;
  std::set<ProcessId> q_half;
  for (std::size_t i = 0; i < n / 2; ++i)
    p_half.insert(static_cast<ProcessId>(i));
  for (std::size_t i = n / 2; i < n; ++i)
    q_half.insert(static_cast<ProcessId>(i));

  auto inputs = [&](std::string_view p_in, std::string_view q_in) {
    std::vector<Bytes> v;
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(bytes_of(i < n / 2 ? p_in : q_in));
    return v;
  };

  // World 1: Q crashed; all inputs 0.     World 2: all correct, inputs 0,
  // partitioned.                          World 3/4: symmetric with 1.
  // World 5: inputs 0|1, partitioned.
  VwaRun w1 = run_vwa_world(n, seed, q_half, false, inputs("0", "0"));
  VwaRun w2 = run_vwa_world(n, seed, {}, true, inputs("0", "0"));
  VwaRun w3 = run_vwa_world(n, seed, p_half, false, inputs("1", "1"));
  VwaRun w4 = run_vwa_world(n, seed, {}, true, inputs("1", "1"));
  VwaRun w5 = run_vwa_world(n, seed, {}, true, inputs("0", "1"));

  RbVwaImpossibility out;
  out.all_terminated = true;
  for (const VwaRun* w : {&w1, &w2, &w3, &w4, &w5})
    for (const RbVwaProcess* p : w->procs)
      if (w->world->correct(p->id()) && !p->committed)
        out.all_terminated = false;

  out.p_cannot_tell_1_from_2 = true;
  out.p_cannot_tell_2_from_5 = true;
  for (ProcessId p : p_half) {
    if (!w1.world->transcript(p).indistinguishable_from(
            w2.world->transcript(p)))
      out.p_cannot_tell_1_from_2 = false;
    if (!w2.world->transcript(p).indistinguishable_from(
            w5.world->transcript(p)))
      out.p_cannot_tell_2_from_5 = false;
  }
  out.q_cannot_tell_3_from_4 = true;
  out.q_cannot_tell_4_from_5 = true;
  for (ProcessId q : q_half) {
    if (!w3.world->transcript(q).indistinguishable_from(
            w4.world->transcript(q)))
      out.q_cannot_tell_3_from_4 = false;
    if (!w4.world->transcript(q).indistinguishable_from(
            w5.world->transcript(q)))
      out.q_cannot_tell_4_from_5 = false;
  }

  // World 5: P committed 0, Q committed 1 — two non-⊥ values.
  bool p_committed_zero = true;
  bool q_committed_one = true;
  for (ProcessId p : p_half)
    if (w5.procs[p]->value != std::optional<Bytes>(bytes_of("0")))
      p_committed_zero = false;
  for (ProcessId q : q_half)
    if (w5.procs[q]->value != std::optional<Bytes>(bytes_of("1")))
      q_committed_one = false;
  out.agreement_violated = p_committed_zero && q_committed_one;

  return out;
}

}  // namespace unidir::core
