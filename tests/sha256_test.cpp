#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"
#include "crypto/sha256.h"
#include "sim/rng.h"

namespace unidir::crypto {
namespace {

std::string hash_hex(std::string_view msg) {
  const Digest d = Sha256::hash(bytes_of(msg));
  return to_hex(ByteSpan(d.data(), d.size()));
}

// NIST FIPS 180-4 / well-known test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(hash_hex("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const Digest d = h.finish();
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "incremental hashing must match one-shot hashing regardless of "
      "chunk boundaries, including boundaries at 64-byte block edges";
  const Digest whole = Sha256::hash(bytes_of(msg));
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(bytes_of(msg.substr(0, split)));
    h.update(bytes_of(msg.substr(split)));
    EXPECT_EQ(h.finish(), whole) << "split at " << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding at lengths around the 56-byte and 64-byte boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x42);
    const Digest a = Sha256::hash(msg);
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i)
      h.update(ByteSpan(&msg[i], 1));
    EXPECT_EQ(h.finish(), a) << "len " << len;
  }
}

TEST(Sha256, ReuseAfterFinishRejected) {
  Sha256 h;
  h.update(bytes_of("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(bytes_of("y")), InternalError);
  EXPECT_THROW((void)h.finish(), InternalError);
}

TEST(Sha256, DigestBytesRoundTrip) {
  const Digest d = Sha256::hash(bytes_of("round trip"));
  EXPECT_EQ(digest_from_bytes(digest_bytes(d)), d);
}

TEST(Sha256, DigestFromBytesRejectsWrongSize) {
  EXPECT_THROW(digest_from_bytes(Bytes(31, 0)), std::invalid_argument);
  EXPECT_THROW(digest_from_bytes(Bytes(33, 0)), std::invalid_argument);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  // Not a security proof, just a smoke test over many short inputs.
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const Digest d = Sha256::hash(bytes_of("input-" + std::to_string(i)));
    seen.insert(to_hex(ByteSpan(d.data(), d.size())));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

Bytes random_bytes(sim::Rng& rng, std::size_t len) {
  Bytes b(len);
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

TEST(Sha256, SeamSizesAndRandomSpreadMatchAcrossChunkings) {
  // Padding-seam and block-boundary sizes, then a randomized spread, each
  // fed in random-sized chunks: every chunking exercises a different mix
  // of the buffered path and the multi-block fast path.
  sim::Rng rng(42);
  std::vector<Bytes> msgs;
  for (std::size_t len : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u,
                          127u, 128u, 129u, 200u, 1000u})
    msgs.push_back(random_bytes(rng, len));
  for (int rep = 0; rep < 50; ++rep)
    msgs.push_back(random_bytes(rng, rng.below(300)));

  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const Bytes& m = msgs[i];
    const Digest whole = Sha256::hash(m);
    for (int chunking = 0; chunking < 4; ++chunking) {
      Sha256 h;
      std::size_t at = 0;
      while (at < m.size()) {
        const std::size_t take =
            std::min<std::size_t>(m.size() - at, 1 + rng.below(150));
        h.update(ByteSpan(m.data() + at, take));
        at += take;
      }
      EXPECT_EQ(h.finish(), whole)
          << "message " << i << " (len " << m.size() << "), chunking "
          << chunking;
    }
  }
}

TEST(Sha256, CopyResumesFromTheSameMidstate) {
  // HmacKey caches block-aligned midstates and copies them per MAC; a copy
  // taken at any point (aligned or mid-block) must continue exactly as the
  // original would, and hashing on one copy must not disturb the other.
  sim::Rng rng(7);
  for (std::size_t prefix_len : {0u, 1u, 63u, 64u, 65u, 128u, 200u}) {
    const Bytes prefix = random_bytes(rng, prefix_len);
    Sha256 base;
    base.update(prefix);
    for (int rep = 0; rep < 5; ++rep) {
      const Bytes suffix = random_bytes(rng, rng.below(150));
      Sha256 resumed = base;
      resumed.update(suffix);
      Bytes joined = prefix;
      joined.insert(joined.end(), suffix.begin(), suffix.end());
      EXPECT_EQ(resumed.finish(), Sha256::hash(joined))
          << "prefix " << prefix_len << ", suffix " << suffix.size();
    }
    EXPECT_EQ(base.finish(), Sha256::hash(prefix)) << "prefix " << prefix_len;
  }
}

}  // namespace
}  // namespace unidir::crypto
