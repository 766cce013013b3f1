#include <gtest/gtest.h>

#include <vector>

#include "crypto/hmac.h"
#include "sim/rng.h"

namespace unidir::crypto {
namespace {

std::string hmac_hex(const Bytes& key, const Bytes& msg) {
  const Digest d = hmac_sha256(key, msg);
  return to_hex(ByteSpan(d.data(), d.size()));
}

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_hex(key, bytes_of("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_hex(bytes_of("Jefe"), bytes_of("what do ya want for nothing?")),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hmac_hex(key, msg),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_hex(key, bytes_of("Test Using Larger Than Block-Size Key - "
                                   "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("same message");
  EXPECT_NE(hmac_sha256(bytes_of("key-a"), msg),
            hmac_sha256(bytes_of("key-b"), msg));
}

TEST(Hmac, MessageSensitivity) {
  const Bytes key = bytes_of("same key");
  EXPECT_NE(hmac_sha256(key, bytes_of("message a")),
            hmac_sha256(key, bytes_of("message b")));
}

TEST(Hmac, EmptyKeyAndMessageAccepted) {
  const Digest d = hmac_sha256({}, {});
  EXPECT_EQ(d.size(), kSha256DigestSize);
}

Bytes random_bytes(sim::Rng& rng, std::size_t len) {
  Bytes b(len);
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

// RFC 2104 spelled out on plain SHA-256, with no cached midstates:
// H((K ^ opad) || H((K ^ ipad) || m)), K zero-padded (hashed if > 64 bytes).
Digest reference_hmac(const Bytes& key, const Bytes& msg) {
  Bytes k = key;
  if (k.size() > 64) {
    const Digest kd = Sha256::hash(k);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(64, 0);
  Bytes inner;
  Bytes outer;
  for (std::uint8_t b : k) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Digest inner_digest = Sha256::hash(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::hash(outer);
}

TEST(Hmac, KeyScheduleMatchesTheRfc2104Construction) {
  sim::Rng rng(11);
  for (std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 100u, 200u}) {
    const Bytes key = random_bytes(rng, key_len);
    for (std::size_t msg_len : {0u, 1u, 55u, 64u, 119u, 300u}) {
      const Bytes msg = random_bytes(rng, msg_len);
      EXPECT_EQ(hmac_sha256(key, msg), reference_hmac(key, msg))
          << "key " << key_len << ", message " << msg_len;
    }
  }
}

TEST(Hmac, OneKeyScheduleServesManyMessages) {
  // The KeyRegistry keeps one HmacKey per key for its whole life: mac()
  // must resume the cached midstates without consuming them, so results
  // do not depend on how many MACs came before or in what order.
  sim::Rng rng(7);
  const Bytes key = random_bytes(rng, 32);
  const HmacKey schedule{key};
  std::vector<Bytes> msgs;
  for (int rep = 0; rep < 40; ++rep)
    msgs.push_back(random_bytes(rng, rng.below(200)));

  std::vector<Digest> first;
  for (const Bytes& m : msgs) first.push_back(schedule.mac(m));
  for (std::size_t i = msgs.size(); i-- > 0;) {
    EXPECT_EQ(schedule.mac(msgs[i]), first[i]) << "message " << i;
    EXPECT_EQ(first[i], reference_hmac(key, msgs[i])) << "message " << i;
  }
}

}  // namespace
}  // namespace unidir::crypto
