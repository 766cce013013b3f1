// Shared helpers for protocol tests.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "sim/world.h"

namespace unidir::testutil {

/// A generic host process whose start behaviour is assigned per test.
class Node final : public sim::Process {
 public:
  std::function<void()> on_start_fn;

 protected:
  void on_start() override {
    if (on_start_fn) on_start_fn();
  }
};

/// `prefix` followed by the decimal digits of `n` ("k", 3 -> "k3"). Built
/// by appending: at -O2, GCC 12 misreports `"k" + std::to_string(n)` — a
/// literal plus a temporary string — as an overlapping memcpy (-Wrestrict).
template <typename Int>
std::string numbered(std::string_view prefix, Int n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace unidir::testutil
