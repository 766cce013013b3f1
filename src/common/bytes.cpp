#include "common/bytes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace unidir {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex digit");
}

}  // namespace

std::string to_hex(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("from_hex: odd-length input");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_value(hex[i]) * 16 +
                                            hex_value(hex[i + 1])));
  }
  return out;
}

Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string string_of(ByteSpan data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, ByteSpan src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

std::uint64_t fnv1a64(ByteSpan data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool BytesLess::operator()(const Bytes& a, const Bytes& b) const {
  const std::size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  return c != 0 ? c < 0 : a.size() < b.size();
}

std::uint64_t fingerprint64(ByteSpan data) {
  // Seed with the length so a short input and its zero-padded extension
  // differ even before the avalanche.
  std::uint64_t h =
      0xCBF29CE484222325ULL ^ (data.size() * 0x9E3779B97F4A7C15ULL);
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    // The multiply only carries information upward; fold the high bits back
    // so low-bit slot indices see the whole word.
    h ^= h >> 29;
  }
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < n; ++i) w |= std::uint64_t{p[i]} << (8 * i);
  h = (h ^ w) * 0x100000001B3ULL;
  // splitmix64 finalizer.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

bool constant_time_equal(ByteSpan a, ByteSpan b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

}  // namespace unidir
