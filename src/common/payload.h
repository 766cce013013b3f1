// Refcounted immutable message payload (copy-on-write view over Bytes).
//
// Every message the network carries used to be a plain Bytes value, deep-
// copied on duplication, on hold, on transcript recording and on replay
// bookkeeping. A Payload shares one immutable buffer between all of those
// consumers: copying a Payload bumps a refcount; the bytes themselves are
// copied only when someone actually mutates them (mutate()). The content
// hash used by the explorer's schedule keys is computed once per buffer and
// cached alongside it.
//
// Thread-safety: the refcount is atomic (shared_ptr), so Payloads may be
// *owned* by different threads — the ParallelRunner relies on this only in
// the trivial sense that each simulated world is confined to one thread,
// and RealRuntime's receiver thread hands each payload it decodes to the
// event loop through the inbox mutex, after which only the loop touches it.
// The lazy hash cache is NOT synchronized; two threads must not race fnv()
// on Payloads sharing one buffer. World-confined payloads never do.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.h"

namespace unidir {

class Payload {
 public:
  Payload() = default;

  /// Wraps (by value + move — the canonical Bytes sink). Implicit, so call
  /// sites that used to hand a Bytes to the network/transcript still work.
  Payload(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.empty() ? nullptr
                            : std::make_shared<Shared>(std::move(bytes))) {}

  /// Copies `data` into a fresh buffer. Built in place rather than through
  /// the Bytes constructor: once inlined into a caller, GCC 12's flow
  /// analysis of that form reports a spurious -Wfree-nonheap-object.
  static Payload copy_of(ByteSpan data) {
    Payload p;
    if (!data.empty())
      p.data_ = std::make_shared<Shared>(Bytes(data.begin(), data.end()));
    return p;
  }

  const Bytes& bytes() const { return data_ ? data_->bytes : empty_bytes(); }
  ByteSpan span() const { return bytes(); }
  operator ByteSpan() const { return bytes(); }  // NOLINT: payloads are bytes

  std::size_t size() const { return data_ ? data_->bytes.size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* data() const { return bytes().data(); }
  std::uint8_t operator[](std::size_t i) const { return data_->bytes[i]; }

  /// Content hash (FNV-1a 64), computed once per buffer and cached.
  std::uint64_t fnv() const {
    if (!data_) return kFnvEmpty;
    if (!data_->fnv_cached) {
      data_->fnv = fnv1a64(data_->bytes);
      data_->fnv_cached = true;
    }
    return data_->fnv;
  }

  /// Copy-on-write access: returns mutable bytes, detaching from any other
  /// Payload sharing this buffer first. Invalidates the cached hash.
  Bytes& mutate() {
    if (!data_) {
      data_ = std::make_shared<Shared>(Bytes{});
    } else if (data_.use_count() > 1) {
      data_ = std::make_shared<Shared>(Bytes(data_->bytes));
    }
    data_->fnv_cached = false;
    return data_->bytes;
  }

  // -- diagnostics (tests, benchmarks) --------------------------------------
  /// Number of Payloads sharing this buffer (0 for the empty payload).
  long use_count() const { return data_ ? data_.use_count() : 0; }
  bool shares_buffer_with(const Payload& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Content equality; identical buffers compare without touching bytes.
  friend bool operator==(const Payload& a, const Payload& b) {
    return a.data_ == b.data_ || a.bytes() == b.bytes();
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return a.bytes() == b;
  }

 private:
  struct Shared {
    explicit Shared(Bytes b) : bytes(std::move(b)) {}
    Bytes bytes;
    std::uint64_t fnv = 0;
    bool fnv_cached = false;
  };

  static const Bytes& empty_bytes();
  static const std::uint64_t kFnvEmpty;

  std::shared_ptr<Shared> data_;
};

}  // namespace unidir
