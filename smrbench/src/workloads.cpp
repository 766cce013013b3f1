#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "agreement/client.h"
#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "agreement/usig_directory.h"
#include "decorators.h"
#include "runtime/sim_runtime.h"
#include "sim/adversaries.h"
#include "sim/workload.h"
#include "sim/world.h"
#include "trace.h"

namespace smrbench {

using namespace unidir;
using agreement::Command;
using agreement::ExecutionLog;
using agreement::KvStateMachine;
using agreement::MinBftReplica;
using agreement::PbftReplica;
using agreement::SmrClient;

namespace {

// ---- workload parameters -----------------------------------------------------
// Clusters commit a fixed count because per-commit cost grows with the
// history a cluster carries (checkpoint images hold the whole reply cache):
// a run measured in seconds would otherwise do different work on a faster
// or slower machine. See README.md for the measurements.

constexpr std::size_t kKeys = 64;
// MinBFT, batched, closed loop.
constexpr std::size_t kMinBftReplicas = 3;
constexpr std::size_t kClosedClients = 16;
constexpr std::size_t kClosedOutstanding = 16;
constexpr std::size_t kClosedPerClient = 64;  // 1024 commits per cluster
// PBFT failover: open-loop arrivals, the primary crashes at a fixed tick.
constexpr std::size_t kPbftReplicas = 4;
constexpr std::size_t kOpenClients = 16;
constexpr std::size_t kOpenPerClient = 192;  // 3072 commits per cluster
constexpr Time kOpenMeanGap = 16;            // per client: 1 request/tick total
constexpr Time kCrashTick = 1024;
// Clusters give up at these bounds; the requests left count as failed and
// fail the correctness check.
constexpr Time kMaxTicks = 1'000'000;
constexpr auto kClusterDeadline = std::chrono::seconds(60);

MinBftReplica::Options minbft_options() {
  MinBftReplica::Options o;
  o.f = 1;
  for (ProcessId p = 0; p < kMinBftReplicas; ++p) o.replicas.push_back(p);
  o.batch_size = 16;
  o.pipeline_depth = 4;
  // Well above commit latency under 256 outstanding requests, so no view
  // change fires in a fault-free run.
  o.view_change_timeout = 2500;
  return o;
}

SmrClient::Options client_options(const std::vector<ProcessId>& replicas,
                                  std::size_t max_outstanding) {
  SmrClient::Options o;
  o.replicas = replicas;
  o.f = 1;
  o.max_outstanding = max_outstanding;
  return o;  // max_attempts = 0: a request is retried until it commits
}

/// KV mix over kKeys keys, half puts and half gets, from the seed.
std::vector<Bytes> make_ops(const std::vector<sim::WorkloadSpec::Arrival>& plan,
                            std::uint64_t seed, std::size_t client) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + client + 1);
  std::vector<Bytes> ops;
  ops.reserve(plan.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    // Appended rather than "k" + to_string(...): GCC 12 reports a false
    // -Wrestrict on the latter once inlined.
    std::string key = "k";
    key += std::to_string(plan[k].key);
    std::string value = "c";
    value += std::to_string(client) + "." + std::to_string(k);
    ops.push_back(rng.chance(1, 2) ? KvStateMachine::get_op(key)
                                   : KvStateMachine::put_op(key, value));
  }
  return ops;
}

/// The workload's arrival plan (keys, and due ticks when open-loop) and
/// the operation of every request, per client.
struct Plan {
  std::vector<sim::WorkloadSpec::ClientPlan> clients;
  std::vector<std::vector<Bytes>> ops;
};

Plan plan(sim::WorkloadSpec spec, std::uint64_t seed) {
  spec.key_space = kKeys;
  spec.seed = seed + 1;
  Plan p;
  p.clients = spec.plan();
  for (std::size_t c = 0; c < p.clients.size(); ++c)
    p.ops.push_back(make_ops(p.clients[c].arrivals, seed, c));
  return p;
}

sim::WorkloadSpec closed_loop_spec() {
  sim::WorkloadSpec spec;
  spec.clients = kClosedClients;
  spec.requests_per_client = kClosedPerClient;
  spec.max_outstanding = kClosedOutstanding;
  return spec;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double seconds_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

// ---- the request ledger ------------------------------------------------------

/// Every request of one cluster: when it fell due, what came back, and how
/// often. The benchmark is the only caller of SmrClient::submit, so it
/// times each request from outside, from due to its done callback.
class Ledger {
 public:
  struct ClientLoad {
    SmrClient* client = nullptr;
    std::vector<Bytes> ops;
    std::vector<double> due_ticks;
    std::vector<std::uint64_t> due_ns;
    std::vector<double> done_ticks;
    std::vector<Bytes> results;
    std::vector<std::uint32_t> done;
    std::size_t next = 0;  // next request to submit (closed loop)
  };

  Ledger(sim::World& world, bool closed_loop)
      : world_(world), closed_(closed_loop) {}

  ClientLoad& add(SmrClient& client, std::vector<Bytes> ops) {
    ClientLoad& c = clients_.emplace_back();
    c.client = &client;
    const std::size_t n = ops.size();
    c.ops = std::move(ops);
    c.due_ticks.assign(n, 0);
    c.due_ns.assign(n, 0);
    c.done_ticks.assign(n, 0);
    c.results.assign(n, Bytes{});
    c.done.assign(n, 0);
    attempted_ += n;
    return c;
  }

  /// Closed loop: the first `window` requests of every client.
  void submit_initial(std::size_t window) {
    for (ClientLoad& c : clients_)
      while (c.next < std::min(window, c.ops.size())) submit(c, c.next++);
  }

  void submit(ClientLoad& c, std::size_t k) {
    c.due_ns[k] = now_ns();
    c.due_ticks[k] = static_cast<double>(world_.now());
    set_current_request(request_tag(c, k));
    c.client->submit(c.ops[k],
                     [this, &c, k](const Bytes& r) { on_done(c, k, r); });
    set_current_request(0);
  }

  /// Open loop: the client's request `k` falls due at virtual tick `at`.
  void arm_arrival(ClientLoad& c, std::size_t k, Time at) {
    world_.runtime().arm_for(c.client->id(), at,
                             [this, &c, k] { submit(c, k); });
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t completed() const { return completed_; }
  std::deque<ClientLoad>& clients() { return clients_; }

  void collect(ClusterResult& out, double fault_tick) const {
    out.attempted = attempted_;
    out.completed = completed_;
    if (completed_ < attempted_)
      out.errors.push_back(std::to_string(attempted_ - completed_) + " of " +
                           std::to_string(attempted_) +
                           " requests never completed");
    double first = -1;
    for (const ClientLoad& c : clients_)
      for (std::size_t k = 0; k < c.ops.size(); ++k) {
        if (c.done[k] > 1)
          out.errors.push_back("request completed " + std::to_string(c.done[k]) +
                               " times");
        if (c.done[k] == 0) continue;
        out.latency_ticks.push_back(c.done_ticks[k] - c.due_ticks[k]);
        if (c.due_ticks[k] >= fault_tick &&
            (first < 0 || c.done_ticks[k] < first))
          first = c.done_ticks[k];
      }
    out.unavailable_ticks = first < 0 ? 0 : first - fault_tick;
    std::uint64_t due_unavailable = 0;
    for (const ClientLoad& c : clients_)
      for (std::size_t k = 0; k < c.ops.size(); ++k)
        if (c.due_ticks[k] >= fault_tick && first >= 0 && c.due_ticks[k] < first)
          ++due_unavailable;
    out.layers.due_unavailable = due_unavailable;
  }

 private:
  std::uint64_t request_tag(const ClientLoad& c, std::size_t k) const {
    return (static_cast<std::uint64_t>(c.client->id()) << 32) | (k + 1);
  }

  void on_done(ClientLoad& c, std::size_t k, const Bytes& result) {
    const std::uint64_t end = now_ns();
    if (c.done[k]++ == 0) {
      c.results[k] = result;
      c.done_ticks[k] = static_cast<double>(world_.now());
      ++completed_;
    }
    record_async(Layer::Request, c.due_ns[k], end, request_tag(c, k));
    if (closed_ && c.next < c.ops.size()) {
      Span span(Layer::ClientDone);
      submit(c, c.next++);
    }
  }

  sim::World& world_;
  bool closed_;
  std::deque<ClientLoad> clients_;  // stable addresses: callbacks hold them
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
};

// ---- correctness -------------------------------------------------------------

struct ReplicaView {
  ProcessId id = kNoProcess;
  bool correct = true;
  const ExecutionLog* log = nullptr;
  const sim::Transcript* transcript = nullptr;
  const RecordingMachine* machine = nullptr;
};

/// The output checks every cluster ends with.
///
/// The committed history is rebuilt from every replica, crashed ones
/// included (a crash-stopped replica's executions were genuine): its
/// "smr-exec" outputs name the commands it executed, in order, and its
/// RecordingMachine says at which log index each ran. A state transfer
/// skips indices on one replica, so the union over replicas is needed; it
/// must agree wherever replicas overlap and cover every index. Replaying
/// it through a fresh KvStateMachine must then reproduce every retained
/// log record and every reply a client accepted. Correct replicas' logs
/// must also pass the library's prefix-consistency check.
void check_outputs(const std::vector<ReplicaView>& replicas, Ledger& ledger,
                   ClusterResult& out) {
  std::vector<std::pair<ProcessId, const ExecutionLog*>> logs;
  for (const ReplicaView& r : replicas)
    if (r.correct) logs.emplace_back(r.id, r.log);
  if (auto divergence = agreement::check_execution_consistency(logs))
    out.errors.push_back("execution logs diverge: " + *divergence);

  std::map<std::uint64_t, Command> history;  // by execution-log index
  std::size_t slots = 0;
  for (const ReplicaView& r : replicas) {
    const auto execs = r.transcript->outputs("smr-exec");
    const std::vector<std::uint64_t>& at = r.machine->positions();
    if (execs.size() != at.size()) {
      out.errors.push_back("replica " + std::to_string(r.id) +
                           " applied a command it did not report executing");
      return;
    }
    for (std::size_t j = 0; j < execs.size(); ++j) {
      Command cmd = serde::decode<Command>(execs[j].payload.bytes());
      auto [it, fresh] = history.emplace(at[j], cmd);
      if (!fresh && !(it->second == cmd))
        out.errors.push_back("replicas executed different commands at index " +
                             std::to_string(at[j]));
    }
    // Batched replicas witness each slot they execute; unbatched ones
    // order one command per slot.
    const std::size_t batches = r.transcript->outputs("smr-batch").size();
    slots = std::max(slots, batches > 0 ? batches : execs.size());
  }
  out.layers.slots = slots;
  if (!history.empty() && history.rbegin()->first + 1 != history.size()) {
    out.errors.push_back("no replica executed some committed log indices");
    return;
  }

  KvStateMachine replay;
  std::vector<Bytes> results;
  results.reserve(history.size());
  std::map<std::pair<ProcessId, std::uint64_t>, std::size_t> expected;
  for (const auto& [index, cmd] : history) {
    if (!expected.emplace(cmd.key(), results.size()).second)
      out.errors.push_back("a request executed twice");
    results.push_back(replay.apply(cmd.op));
  }
  for (const ReplicaView& r : replicas)
    for (std::uint64_t i = r.log->base(); i < r.log->size(); ++i) {
      const agreement::ExecutionRecord& rec = r.log->at(i);
      if (i >= results.size() || !(rec.command == history.at(i)) ||
          rec.result != results[i])
        out.errors.push_back("replica " + std::to_string(r.id) +
                             "'s log disagrees with the replayed history");
    }
  for (const Ledger::ClientLoad& c : ledger.clients())
    for (std::size_t k = 0; k < c.ops.size(); ++k) {
      if (c.done[k] == 0) continue;
      auto it = expected.find({c.client->id(), k + 1});
      if (it == expected.end())
        out.errors.push_back("a reply for a request no replica executed");
      else if (results[it->second] != c.results[k])
        out.errors.push_back("a reply differs from the replayed result");
    }
}

void read_world(sim::World& w, LayerCounts& lc) {
  lc.run_wall_ns += w.runtime().stats().run_wall_ns;
  lc.wire_dropped += w.wire_stats().total_dropped();
  const crypto::VerifyStats& vs = w.keys().verify_stats();
  lc.verifies += vs.verifies;
  lc.memo_hits += vs.memo_hits;
  lc.macs += vs.macs;
}

void read_traced(const TracedRuntime* t, LayerCounts& lc) {
  if (t == nullptr) return;
  lc.send_bytes += t->counts().send_bytes;
  lc.client_request_sends += t->counts().client_request_sends;
}

// ---- simulated clusters ------------------------------------------------------

/// One sim World, optionally behind TracedRuntime. The wrapper hides the
/// SimRuntime from World (it finds the backend with a dynamic_cast), so the
/// network's crash filter is reinstalled here: without it, frames a crashed
/// primary had in flight would still land and the traced run would do
/// different work from the untraced one.
struct SimWorld {
  rt::SimRuntime* sim = nullptr;
  TracedRuntime* traced = nullptr;
  std::unique_ptr<sim::World> world;

  SimWorld(std::uint64_t seed, bool trace) {
    auto backend = std::make_unique<rt::SimRuntime>(
        seed, std::make_unique<sim::RandomDelayAdversary>(1, 5));
    sim = backend.get();
    std::unique_ptr<rt::Runtime> top = std::move(backend);
    if (trace) {
      auto wrapped = std::make_unique<TracedRuntime>(std::move(top));
      traced = wrapped.get();
      top = std::move(wrapped);
    }
    world = std::make_unique<sim::World>(seed, std::move(top));
    if (trace) {
      sim::World* w = world.get();
      sim->network().set_crashed(
          [w](ProcessId p) { return p < w->size() && w->crashed(p); });
    }
  }
};

/// A sim cluster's replicas, each with the RecordingMachine and
/// CountingStore the checks read.
template <typename Replica>
struct SimReplicas {
  std::vector<Replica*> replicas;
  std::vector<RecordingMachine*> machines;
  std::vector<CountingStore*> stores;

  /// Spawns the next replica as Replica(args..., machine).
  template <typename... Args>
  void spawn(sim::World& w, Args&... args) {
    auto m = std::make_unique<RecordingMachine>();
    RecordingMachine& machine = *m;
    Replica& r = w.spawn<Replica>(args..., std::move(m));
    machine.bind([&r] { return r.executed_count(); });
    auto store = std::make_unique<CountingStore>();
    stores.push_back(store.get());
    w.install_durable(r.id(), std::move(store));
    replicas.push_back(&r);
    machines.push_back(&machine);
  }
};

template <typename Replica>
void finish_sim(SimWorld& sw, Ledger& ledger, const SimReplicas<Replica>& rs,
                double fault_tick, ClusterResult& out) {
  sim::World& w = *sw.world;
  ledger.collect(out, fault_tick);
  std::vector<ReplicaView> views;
  for (std::size_t i = 0; i < rs.replicas.size(); ++i) {
    const ProcessId id = rs.replicas[i]->id();
    views.push_back({id, w.correct(id), &rs.replicas[i]->execution_log(),
                     &w.transcript(id), rs.machines[i]});
  }
  check_outputs(views, ledger, out);

  LayerCounts& lc = out.layers;
  lc.commits = out.completed;
  lc.clusters = 1;
  lc.replicas = rs.replicas.size();
  read_world(w, lc);
  read_traced(sw.traced, lc);
  const sim::SimulatorStats& ss = sw.sim->simulator().stats();
  lc.sim_executed = ss.executed;
  lc.sim_scheduled = ss.scheduled;
  lc.ring_fast_path = ss.ring_fast_path;
  lc.peak_pending = ss.peak_pending;
  for (const CountingStore* s : rs.stores) {
    lc.persist_puts += s->puts();
    lc.persist_bytes += s->bytes();
  }
  for (const Replica* r : rs.replicas)
    lc.view_changes = std::max(lc.view_changes, r->view_changes_seen());
  if (lc.wire_dropped != 0)
    out.errors.push_back("wire layer dropped " +
                         std::to_string(lc.wire_dropped) + " messages");

  out.work.commits = out.completed;
  out.work.final_tick = w.now();
  out.work.messages = sw.sim->network().stats().messages_sent;
  out.work.persist_puts = lc.persist_puts;
  out.work.persist_bytes = lc.persist_bytes;
}

/// Runs the world until every request completed, or a bound is hit.
void run_sim(sim::World& w, Ledger& ledger, ClusterResult& out) {
  const auto deadline = std::chrono::steady_clock::now() + kClusterDeadline;
  std::uint64_t polls = 0;
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  w.run_until(
      [&] {
        if (ledger.completed() == ledger.attempted()) return true;
        if (w.now() > kMaxTicks) return true;
        return (++polls & 0xFFF) == 0 &&
               std::chrono::steady_clock::now() > deadline;
      },
      SIZE_MAX);
  out.run_s = seconds_between(t0, now_ns());
  out.cpu_s = cpu_seconds() - cpu0;
}

ClusterResult sim_minbft_batch(std::uint64_t seed, bool traced) {
  ClusterResult out;
  Plan load = plan(closed_loop_spec(), seed);

  const std::uint64_t t0 = now_ns();
  SimWorld sw(seed, traced);
  sim::World& w = *sw.world;
  agreement::SgxUsigDirectory usigs(w.keys());
  TracedUsig tusigs(usigs);
  agreement::UsigDirectory& dir =
      traced ? static_cast<agreement::UsigDirectory&>(tusigs) : usigs;
  MinBftReplica::Options opt = minbft_options();
  SimReplicas<MinBftReplica> replicas;
  for (std::size_t i = 0; i < kMinBftReplicas; ++i) replicas.spawn(w, opt, dir);
  Ledger ledger(w, /*closed_loop=*/true);
  const SmrClient::Options copt =
      client_options(opt.replicas, kClosedOutstanding);
  for (std::size_t c = 0; c < kClosedClients; ++c)
    ledger.add(w.spawn<SmrClient>(copt), std::move(load.ops[c]));
  out.setup_s = seconds_between(t0, now_ns());

  w.start();
  ledger.submit_initial(kClosedOutstanding);
  run_sim(w, ledger, out);
  out.layers.usig_creates = tusigs.creates();
  out.layers.usig_verifies = tusigs.verifies();
  finish_sim(sw, ledger, replicas, 0, out);
  return out;
}

ClusterResult sim_pbft_failover(std::uint64_t seed, bool traced) {
  ClusterResult out;
  sim::WorkloadSpec spec;
  spec.clients = kOpenClients;
  spec.requests_per_client = kOpenPerClient;
  spec.open_loop = true;
  spec.mean_interarrival = kOpenMeanGap;
  Plan load = plan(spec, seed);

  const std::uint64_t t0 = now_ns();
  SimWorld sw(seed, traced);
  sim::World& w = *sw.world;
  PbftReplica::Options opt;
  opt.f = 1;
  for (ProcessId p = 0; p < kPbftReplicas; ++p) opt.replicas.push_back(p);
  SimReplicas<PbftReplica> replicas;
  for (std::size_t i = 0; i < kPbftReplicas; ++i) replicas.spawn(w, opt);
  Ledger ledger(w, /*closed_loop=*/false);
  // Open loop: arrivals must not wait on completions, so the pipeline
  // window is the client's whole schedule.
  const SmrClient::Options copt = client_options(opt.replicas, kOpenPerClient);
  for (std::size_t c = 0; c < kOpenClients; ++c) {
    Ledger::ClientLoad& cl =
        ledger.add(w.spawn<SmrClient>(copt), std::move(load.ops[c]));
    for (std::size_t k = 0; k < load.clients[c].arrivals.size(); ++k)
      ledger.arm_arrival(cl, k, load.clients[c].arrivals[k].at);
  }
  const ProcessId primary = opt.replicas[0];
  w.runtime().clock().arm(kCrashTick, [&w, primary] { w.crash(primary); });
  out.setup_s = seconds_between(t0, now_ns());

  w.start();
  run_sim(w, ledger, out);
  finish_sim(sw, ledger, replicas, static_cast<double>(kCrashTick), out);
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::SimMinBftBatch, Workload::SimPbftFailover})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::SimMinBftBatch: return "sim-minbft-batch";
    case Workload::SimPbftFailover: return "sim-pbft-failover";
  }
  return "?";
}

void LayerCounts::add(const LayerCounts& o) {
  commits += o.commits;
  clusters += o.clusters;
  run_wall_ns += o.run_wall_ns;
  send_bytes += o.send_bytes;
  client_request_sends += o.client_request_sends;
  sim_executed += o.sim_executed;
  sim_scheduled += o.sim_scheduled;
  ring_fast_path += o.ring_fast_path;
  peak_pending = std::max(peak_pending, o.peak_pending);
  wire_dropped += o.wire_dropped;
  verifies += o.verifies;
  memo_hits += o.memo_hits;
  macs += o.macs;
  usig_creates += o.usig_creates;
  usig_verifies += o.usig_verifies;
  persist_puts += o.persist_puts;
  persist_bytes += o.persist_bytes;
  slots += o.slots;
  view_changes += o.view_changes;
  due_unavailable += o.due_unavailable;
  replicas = std::max(replicas, o.replicas);
}

std::string Work::describe() const {
  return "commits=" + std::to_string(commits) + " final_tick=" +
         std::to_string(final_tick) + " messages=" + std::to_string(messages) +
         " persist_puts=" + std::to_string(persist_puts) +
         " persist_bytes=" + std::to_string(persist_bytes);
}

ClusterResult run_cluster(Workload w, std::uint64_t seed, bool traced) {
  set_tracing(traced);
  ClusterResult r;
  switch (w) {
    case Workload::SimMinBftBatch: r = sim_minbft_batch(seed, traced); break;
    case Workload::SimPbftFailover: r = sim_pbft_failover(seed, traced); break;
  }
  set_tracing(false);
  return r;
}

}  // namespace smrbench
