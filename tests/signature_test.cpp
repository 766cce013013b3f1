#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "crypto/signature.h"
#include "sim/rng.h"

namespace unidir::crypto {
namespace {

TEST(Signature, SignVerifyRoundTrip) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("broadcast (1, m)");
  const Signature sig = signer.sign(msg);
  EXPECT_TRUE(registry.verify(sig, msg));
}

TEST(Signature, RejectsTamperedMessage) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Signature sig = signer.sign(bytes_of("value v"));
  EXPECT_FALSE(registry.verify(sig, bytes_of("value w")));
}

TEST(Signature, RejectsTamperedMac) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("value v");
  Signature sig = signer.sign(msg);
  sig.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, RejectsWrongKeyClaim) {
  // A Byzantine process relabelling its signature as another's must fail:
  // the mac was computed under a different secret.
  KeyRegistry registry;
  const Signer alice = registry.generate_key();
  const Signer bob = registry.generate_key();
  const Bytes msg = bytes_of("equivocation attempt");
  Signature sig = alice.sign(msg);
  sig.key = bob.key();
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, RejectsUnknownKey) {
  KeyRegistry registry;
  Signature sig;
  sig.key = 999;
  sig.mac = Bytes(32, 0);
  EXPECT_FALSE(registry.verify(sig, bytes_of("m")));
}

TEST(Signature, DistinctKeysProduceDistinctSignatures) {
  KeyRegistry registry;
  const Signer a = registry.generate_key();
  const Signer b = registry.generate_key();
  EXPECT_NE(a.key(), b.key());
  const Bytes msg = bytes_of("m");
  EXPECT_NE(a.sign(msg).mac, b.sign(msg).mac);
}

TEST(Signature, TransferableAcrossVerifiers) {
  // Anyone holding the registry can verify — the "transferable" property.
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("forwarded proof");
  const Signature sig = signer.sign(msg);
  // Simulate a chain of forwards: serialize, parse, verify.
  const Bytes wire = serde::encode(sig);
  const auto parsed = serde::decode<Signature>(wire);
  EXPECT_EQ(parsed, sig);
  EXPECT_TRUE(registry.verify(parsed, msg));
}

TEST(Signature, NullSignerThrows) {
  const Signer s;
  EXPECT_FALSE(s.valid());
  EXPECT_THROW((void)s.sign(bytes_of("m")), std::invalid_argument);
}

TEST(Signature, SerdeRoundTrip) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Signature sig = signer.sign(bytes_of("x"));
  EXPECT_EQ(serde::decode<Signature>(serde::encode(sig)), sig);
}

TEST(Signature, DeterministicAcrossRegistriesWithSameHistory) {
  // Whole-world reproducibility: two registries that generate keys in the
  // same order produce identical signatures.
  KeyRegistry r1;
  KeyRegistry r2;
  const Signer s1 = r1.generate_key();
  const Signer s2 = r2.generate_key();
  const Bytes msg = bytes_of("replay");
  EXPECT_EQ(s1.sign(msg), s2.sign(msg));
}

TEST(Signature, MemoAnswersRepeatVerifiesWithoutNewMacs) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("the same message, many times");
  const Signature sig = signer.sign(msg);

  // Signing already computed (and memoized) one MAC.
  const std::uint64_t macs_after_sign = registry.verify_stats().macs;

  constexpr std::uint64_t kRepeats = 8;
  for (std::uint64_t i = 0; i < kRepeats; ++i)
    EXPECT_TRUE(registry.verify(sig, msg));
  // Every verify hit the memo entry installed by sign(): zero new MACs.
  EXPECT_EQ(registry.verify_stats().verifies, kRepeats);
  EXPECT_EQ(registry.verify_stats().macs, macs_after_sign);
  EXPECT_EQ(registry.verify_stats().memo_hits, kRepeats);

  // A forged MAC over the same message is still answered from the memo,
  // and still rejected.
  Signature forged = sig;
  forged.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(forged, msg));
  EXPECT_EQ(registry.verify_stats().macs, macs_after_sign);
  EXPECT_EQ(registry.verify_stats().memo_hits, kRepeats + 1);
}

TEST(Signature, FirstVerifyOfAnUnseenMessageComputesTheMacOnce) {
  // Key material derives deterministically from the registry's seed
  // stream, so a twin registry produces signatures this one can verify
  // without sign() having planted a memo entry here.
  KeyRegistry verifier;
  KeyRegistry twin;
  (void)verifier.generate_key();
  const Signer signer = twin.generate_key();
  const Bytes msg = bytes_of("fresh message");
  const Signature sig = signer.sign(msg);

  const std::uint64_t macs_before = verifier.verify_stats().macs;
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(verifier.verify(sig, msg));
  EXPECT_EQ(verifier.verify_stats().macs, macs_before + 1);
  EXPECT_EQ(verifier.verify_stats().memo_hits, 5u);
}

TEST(Signature, ForgeriesRejectedAmongValidSignatures) {
  KeyRegistry registry;
  const Signer s1 = registry.generate_key();
  const Signer s2 = registry.generate_key();
  sim::Rng rng(3);

  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 24; ++i) {
    Bytes m(40 + rng.below(60));
    for (auto& c : m) c = static_cast<std::uint8_t>(rng.below(256));
    msgs.push_back(std::move(m));
    sigs.push_back((i % 2 ? s2 : s1).sign(msgs.back()));
  }
  sigs[3].key = 999;            // unknown key
  sigs[5].mac[0] ^= 0x01;       // corrupted mac
  std::swap(sigs[7], sigs[8]);  // right keys, each on the other's message

  // Ask twice: the second pass is answered from the memo, and the memo
  // holds true MACs only, so it must not turn any verdict around.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const bool forged = i == 3 || i == 5 || i == 7 || i == 8;
      EXPECT_EQ(registry.verify(sigs[i], msgs[i]), !forged)
          << "pass " << pass << ", signature " << i;
    }
  }
}

TEST(Signature, EvictedMemoEntriesRecomputeTheSameVerdict) {
  // Sign far more messages than the memo has slots, so later signatures
  // evict earlier entries; every one must still verify, and each verify
  // is accounted as exactly one memo hit or one fresh MAC.
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  constexpr int kMessages = 4096;
  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < kMessages; ++i) {
    msgs.push_back(bytes_of("message " + std::to_string(i)));
    sigs.push_back(signer.sign(msgs.back()));
  }
  const VerifyStats before = registry.verify_stats();
  for (int i = 0; i < kMessages; ++i)
    EXPECT_TRUE(registry.verify(sigs[static_cast<std::size_t>(i)],
                                msgs[static_cast<std::size_t>(i)]))
        << "message " << i;
  const VerifyStats& after = registry.verify_stats();
  const std::uint64_t hits = after.memo_hits - before.memo_hits;
  const std::uint64_t macs = after.macs - before.macs;
  EXPECT_EQ(after.verifies - before.verifies,
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(hits + macs, static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(macs, 0u);  // the memo is bounded: something was evicted
  EXPECT_GT(hits, 0u);  // and something survived
}

TEST(Signature, UnknownKeyCountsAVerifyButNoMacOrMemoHit) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("claimed by a key nobody issued");
  Signature sig = signer.sign(msg);
  sig.key = 777;
  const VerifyStats before = registry.verify_stats();
  EXPECT_FALSE(registry.verify(sig, msg));
  EXPECT_FALSE(registry.verify(sig, msg));
  const VerifyStats& after = registry.verify_stats();
  EXPECT_EQ(after.verifies, before.verifies + 2);
  EXPECT_EQ(after.macs, before.macs);
  EXPECT_EQ(after.memo_hits, before.memo_hits);
}

}  // namespace
}  // namespace unidir::crypto
