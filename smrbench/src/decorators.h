// Decorators over the public interfaces the benchmark hands to the library.
//
// Each one forwards to the real implementation and records a span
// (trace.h) plus counts at the boundary, so every layer is measured from
// outside the program. TracedRuntime and TracedUsig are installed only in traced
// clusters. RecordingMachine and CountingStore are installed in every
// cluster, because the correctness check and the traced-run equivalence
// check need what they record; their spans are no-ops while tracing is off.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "agreement/client.h"
#include "agreement/smr.h"
#include "agreement/state_machines.h"
#include "agreement/usig_directory.h"
#include "runtime/runtime.h"
#include "sim/durable.h"
#include "trace.h"

namespace smrbench {

namespace rt = unidir::runtime;

/// Runtime whose Clock wraps every timer callback in a Timer span and whose
/// Transport wraps every send in a Send span and every delivery in a
/// Deliver span. Everything else forwards to the wrapped backend.
class TracedRuntime final : public rt::Runtime {
 public:
  struct Counts {
    std::uint64_t send_bytes = 0;
    std::uint64_t client_request_sends = 0;
  };

  explicit TracedRuntime(std::unique_ptr<rt::Runtime> inner)
      : inner_(std::move(inner)), clock_(*this), transport_(*this) {}

  rt::Clock& clock() override { return clock_; }
  rt::Transport& transport() override { return transport_; }
  std::size_t run(std::size_t max_events) override {
    return inner_->run(max_events);
  }
  bool run_until(const std::function<bool()>& pred,
                 std::size_t max_events) override {
    return inner_->run_until(pred, max_events);
  }
  rt::RuntimeStats stats() const override { return inner_->stats(); }
  std::size_t execution_shards() const override {
    return inner_->execution_shards();
  }
  std::size_t calling_shard() const override { return inner_->calling_shard(); }
  rt::TimerId arm_for(unidir::ProcessId owner, unidir::Time delay,
                      std::function<void()> fn) override {
    return inner_->arm_for(owner, delay, timed(std::move(fn)));
  }
  rt::RuntimeStats shard_stats(std::size_t shard) const override {
    return inner_->shard_stats(shard);
  }
  bool real_time() const override { return inner_->real_time(); }

  const Counts& counts() const { return counts_; }

 private:
  static std::function<void()> timed(std::function<void()> fn) {
    return [fn = std::move(fn)] {
      Span span(Layer::Timer);
      fn();
    };
  }

  class TracedClock final : public rt::Clock {
   public:
    explicit TracedClock(TracedRuntime& owner) : owner_(owner) {}
    unidir::Time now() const override { return owner_.inner_->clock().now(); }
    rt::TimerId arm(unidir::Time delay, std::function<void()> fn) override {
      return owner_.inner_->clock().arm(delay, owner_.timed(std::move(fn)));
    }
    void cancel(rt::TimerId id) override { owner_.inner_->clock().cancel(id); }

   private:
    TracedRuntime& owner_;
  };

  class TracedTransport final : public rt::Transport {
   public:
    explicit TracedTransport(TracedRuntime& owner) : owner_(owner) {}
    void send(unidir::ProcessId from, unidir::ProcessId to,
              unidir::Channel channel, unidir::Payload payload) override {
      Counts& c = owner_.counts_;
      c.send_bytes += payload.size();
      if (channel == unidir::agreement::kClientRequestCh)
        ++c.client_request_sends;
      Span span(Layer::Send);
      owner_.inner_->transport().send(from, to, channel, std::move(payload));
    }
    void set_deliver(DeliverFn fn) override {
      owner_.inner_->transport().set_deliver(
          [fn = std::move(fn)](unidir::ProcessId from, unidir::ProcessId to,
                               unidir::Channel channel,
                               const unidir::Payload& payload) {
            Span span(Layer::Deliver);
            fn(from, to, channel, payload);
          });
    }
    void set_local(std::function<bool(unidir::ProcessId)> is_local) override {
      owner_.inner_->transport().set_local(std::move(is_local));
    }
    std::size_t peer_count() const override {
      return owner_.inner_->transport().peer_count();
    }

   private:
    TracedRuntime& owner_;
  };

  std::unique_ptr<rt::Runtime> inner_;
  TracedClock clock_;
  TracedTransport transport_;
  Counts counts_;
};

/// USIG directory that spans and counts every create and verify.
class TracedUsig final : public unidir::agreement::UsigDirectory {
 public:
  explicit TracedUsig(unidir::agreement::UsigDirectory& inner)
      : inner_(inner) {}

  unidir::trusted::UniqueIdentifier create_ui(
      unidir::ProcessId p, const unidir::Bytes& message) override {
    ++creates_;
    Span span(Layer::UsigCreate);
    return inner_.create_ui(p, message);
  }
  bool verify(unidir::ProcessId p, const unidir::trusted::UniqueIdentifier& ui,
              const unidir::Bytes& message) const override {
    ++verifies_;
    Span span(Layer::UsigVerify);
    return inner_.verify(p, ui, message);
  }
  void verify_batch(unidir::agreement::UsigVerifyJob* jobs,
                    std::size_t n) const override {
    verifies_ += n;
    Span span(Layer::UsigVerify);
    inner_.verify_batch(jobs, n);
  }
  void restart_device(unidir::ProcessId p, bool durable_state) override {
    inner_.restart_device(p, durable_state);
  }

  std::uint64_t creates() const { return creates_; }
  std::uint64_t verifies() const { return verifies_; }

 private:
  unidir::agreement::UsigDirectory& inner_;
  std::uint64_t creates_ = 0;
  mutable std::uint64_t verifies_ = 0;
};

/// The replicated KV store. Records the execution-log index each apply ran
/// at (the correctness check pairs these with the replica's "smr-exec"
/// outputs to rebuild the committed history across state transfers), and
/// spans every call while tracing is on.
class RecordingMachine final : public unidir::agreement::StateMachine {
 public:
  /// `index` reports the owning replica's execution count; bind it once
  /// the replica exists, before the first apply.
  void bind(std::function<std::uint64_t()> index) { index_ = std::move(index); }

  unidir::Bytes apply(const unidir::Bytes& op) override {
    positions_.push_back(index_());
    Span span(Layer::StateMachine);
    return kv_.apply(op);
  }
  unidir::crypto::Digest digest() const override {
    Span span(Layer::StateMachine);
    return kv_.digest();
  }
  unidir::Bytes snapshot() const override {
    Span span(Layer::StateMachine);
    return kv_.snapshot();
  }
  void restore(const unidir::Bytes& snap) override {
    Span span(Layer::StateMachine);
    kv_.restore(snap);
  }

  const std::vector<std::uint64_t>& positions() const { return positions_; }

 private:
  unidir::agreement::KvStateMachine kv_;
  std::function<std::uint64_t()> index_;
  std::vector<std::uint64_t> positions_;
};

/// The in-memory durable store, counting what replicas persist.
class CountingStore final : public unidir::sim::DurableStore {
 public:
  void put(std::string key, unidir::Bytes value) override {
    ++puts_;
    bytes_ += value.size();
    Span span(Layer::Persist);
    DurableStore::put(std::move(key), std::move(value));
  }

  std::uint64_t puts() const { return puts_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t puts_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace smrbench
