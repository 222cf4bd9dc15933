#include "core/chacha20.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace ros2::core {
namespace {

void XorInPlace(const ChaChaKey& key, std::uint64_t nonce,
                std::uint64_t stream_offset, std::span<std::byte> data) {
  ChaCha20XorCopy(key, nonce, stream_offset, data, data);
}

ChaChaKey TestKey() {
  ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = std::uint8_t(i);
  return key;
}

// RFC 8439 §A.1 test vectors #1 and #2: all-zero key and nonce, keystream
// blocks 0 and 1. The 64-bit counter / 64-bit nonce layout used here puts
// the same words in the state for a zero nonce, so the blocks match.
// 128 bytes run through the scalar kernel, 512 through the vector one.
TEST(ChaCha20Test, KnownAnswerRfc8439ZeroKeyBlocks0And1) {
  const ChaChaKey key{};
  const std::uint8_t block0[64] = {
      0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a,
      0xe5, 0x53, 0x86, 0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d,
      0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc, 0x8b, 0x77, 0x0d, 0xc7, 0xda,
      0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24, 0xe0, 0x3f,
      0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1,
      0x1c, 0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86};
  const std::uint8_t block1[64] = {
      0x9f, 0x07, 0xe7, 0xbe, 0x55, 0x51, 0x38, 0x7a, 0x98, 0xba, 0x97,
      0x7c, 0x73, 0x2d, 0x08, 0x0d, 0xcb, 0x0f, 0x29, 0xa0, 0x48, 0xe3,
      0x65, 0x69, 0x12, 0xc6, 0x53, 0x3e, 0x32, 0xee, 0x7a, 0xed, 0x29,
      0xb7, 0x21, 0x76, 0x9c, 0xe6, 0x4e, 0x43, 0xd5, 0x71, 0x33, 0xb0,
      0x74, 0xd8, 0x39, 0xd5, 0x31, 0xed, 0x1f, 0x28, 0x51, 0x0a, 0xfb,
      0x45, 0xac, 0xe1, 0x0a, 0x1f, 0x4b, 0x79, 0x4d, 0x6f};
  for (const std::size_t size : {128, 512}) {
    Buffer data(size, std::byte(0));  // ciphertext of zeros = keystream
    XorInPlace(key, 0, 0, data);
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(std::uint8_t(data[i]), block0[i])
          << size << " B, block 0 byte " << i;
      EXPECT_EQ(std::uint8_t(data[64 + i]), block1[i])
          << size << " B, block 1 byte " << i;
    }
  }
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  const ChaChaKey key = TestKey();
  Buffer data = MakePatternBuffer(10000, 1);
  Buffer original = data;
  XorInPlace(key, 42, 0, data);
  EXPECT_NE(data, original);
  XorInPlace(key, 42, 0, data);  // XOR stream is its own inverse
  EXPECT_EQ(data, original);
}

TEST(ChaCha20Test, CiphertextLooksNothingLikePlaintext) {
  const ChaChaKey key = TestKey();
  Buffer data(1024, std::byte(0));  // all zeros: ciphertext = keystream
  XorInPlace(key, 1, 0, data);
  int zero_count = 0;
  for (std::byte b : data) {
    if (b == std::byte(0)) ++zero_count;
  }
  EXPECT_LT(zero_count, 32);  // keystream should have few zero bytes
}

TEST(ChaCha20Test, StreamOffsetSeekable) {
  // Encrypting [0, 1000) in one shot must equal encrypting [0, 300) and
  // [300, 1000) separately — the property chunk-split DFS writes rely on.
  const ChaChaKey key = TestKey();
  Buffer whole = MakePatternBuffer(1000, 2);
  Buffer split = whole;
  XorInPlace(key, 7, 0, whole);
  XorInPlace(key, 7, 0, std::span<std::byte>(split.data(), 300));
  XorInPlace(key, 7, 300, std::span<std::byte>(split.data() + 300, 700));
  EXPECT_EQ(whole, split);
}

TEST(ChaCha20Test, UnalignedOffsetsWithinBlock) {
  const ChaChaKey key = TestKey();
  Buffer whole = MakePatternBuffer(200, 3);
  Buffer split = whole;
  XorInPlace(key, 9, 0, whole);
  // Split at a non-64 boundary inside a keystream block.
  XorInPlace(key, 9, 0, std::span<std::byte>(split.data(), 37));
  XorInPlace(key, 9, 37, std::span<std::byte>(split.data() + 37, 163));
  EXPECT_EQ(whole, split);
}

TEST(ChaCha20Test, DifferentKeysDiffer) {
  Buffer a(256, std::byte(0));
  Buffer b(256, std::byte(0));
  ChaChaKey k1 = TestKey();
  ChaChaKey k2 = TestKey();
  k2[0] ^= 1;
  XorInPlace(k1, 1, 0, a);
  XorInPlace(k2, 1, 0, b);
  EXPECT_NE(a, b);
}

TEST(ChaCha20Test, DifferentNoncesDiffer) {
  Buffer a(256, std::byte(0));
  Buffer b(256, std::byte(0));
  const ChaChaKey key = TestKey();
  XorInPlace(key, 1, 0, a);
  XorInPlace(key, 2, 0, b);
  EXPECT_NE(a, b);
}

TEST(ChaCha20Test, EmptySpanIsNoop) {
  const ChaChaKey key = TestKey();
  XorInPlace(key, 1, 0, {});
}

// --- Differential fuzz: the dispatched kernel against the scalar oracle.

struct FuzzCase {
  ChaChaKey key;
  std::uint64_t nonce;
  std::uint64_t offset;
  std::size_t length;
};

/// Random keys, nonces, offsets (many inside a block) and lengths from 0
/// to 6 KiB, plus lengths straddling the 512-byte run size and offsets
/// whose block counter's low 32-bit word wraps inside one 8-block run.
std::vector<FuzzCase> FuzzCases() {
  Rng rng(0xC4AC4A20);
  std::vector<FuzzCase> cases;
  auto random_case = [&](std::uint64_t offset, std::size_t length) {
    FuzzCase c;
    for (auto& b : c.key) b = std::uint8_t(rng.Next());
    c.nonce = rng.Next();
    c.offset = offset;
    c.length = length;
    cases.push_back(c);
  };
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t offset =
        i % 3 == 0 ? rng.Below(1ull << 40) : rng.Below(8192);
    random_case(offset, std::size_t(rng.Below(6 * 1024 + 1)));
  }
  for (const std::size_t length :
       {511, 512, 513, 1023, 1024, 1025, 1536, 4096, 4097}) {
    for (const std::uint64_t offset : {0, 1, 63, 64, 448, 511, 512, 577}) {
      random_case(offset, length);
    }
  }
  constexpr std::uint64_t kLowWordWrap = 64ull << 32;  // block 2^32
  for (std::uint64_t blocks_before = 1; blocks_before <= 9; ++blocks_before) {
    for (const std::uint64_t within : {0, 5}) {
      random_case(kLowWordWrap - 64 * blocks_before + within,
                  1024 + std::size_t(rng.Below(1024)));
    }
  }
  return cases;
}

/// `check(c, src)` for every fuzz case, with `src` a random payload.
template <typename Check>
void ForEachFuzzCase(Check check) {
  std::uint64_t seed = 1;
  for (const FuzzCase& c : FuzzCases()) {
    const Buffer src = MakePatternBuffer(c.length, seed++);
    check(c, src);
  }
}

TEST(ChaCha20FuzzTest, ScalarCopyMatchesScalarInPlace) {
  ForEachFuzzCase([](const FuzzCase& c, const Buffer& src) {
    Buffer copy(src.size());
    detail::ChaCha20XorCopyScalar(c.key, c.nonce, c.offset, src, copy);
    Buffer in_place = src;
    detail::ChaCha20XorCopyScalar(c.key, c.nonce, c.offset, in_place,
                                  in_place);
    ASSERT_EQ(copy, in_place) << "offset " << c.offset << " length "
                              << c.length;
  });
}

TEST(ChaCha20FuzzTest, VectorMatchesScalarOracle) {
  if (!detail::ChaCha20HasVectorKernel()) {
    GTEST_SKIP() << "host CPU has no AVX2: ChaCha20XorCopy runs the scalar "
                    "kernel, so there is no vector kernel to compare";
  }
  ForEachFuzzCase([](const FuzzCase& c, const Buffer& src) {
    Buffer oracle(src.size());
    detail::ChaCha20XorCopyScalar(c.key, c.nonce, c.offset, src, oracle);
    Buffer copy(src.size());
    ChaCha20XorCopy(c.key, c.nonce, c.offset, src, copy);
    ASSERT_EQ(copy, oracle) << "copy: offset " << c.offset << " length "
                            << c.length;
    Buffer in_place = src;
    ChaCha20XorCopy(c.key, c.nonce, c.offset, in_place, in_place);
    ASSERT_EQ(in_place, oracle) << "in place: offset " << c.offset
                                << " length " << c.length;
  });
}

TEST(DeriveNonceTest, DeterministicAndSpread) {
  EXPECT_EQ(DeriveNonce(1, 2), DeriveNonce(1, 2));
  EXPECT_NE(DeriveNonce(1, 2), DeriveNonce(2, 1));
  EXPECT_NE(DeriveNonce(1, 2), DeriveNonce(1, 3));
}

class ChaChaOffsetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaChaOffsetTest, SeekEquivalenceAtOffset) {
  // Property: keystream position is absolute; any split point yields the
  // same ciphertext.
  const std::uint64_t offset = GetParam();
  const ChaChaKey key = TestKey();
  Buffer whole = MakePatternBuffer(512, offset);
  Buffer prefix_suffix = whole;
  XorInPlace(key, 5, offset, whole);
  const std::size_t cut = 129;
  XorInPlace(key, 5, offset,
              std::span<std::byte>(prefix_suffix.data(), cut));
  XorInPlace(key, 5, offset + cut,
              std::span<std::byte>(prefix_suffix.data() + cut, 512 - cut));
  EXPECT_EQ(whole, prefix_suffix);
}

INSTANTIATE_TEST_SUITE_P(Offsets, ChaChaOffsetTest,
                         ::testing::Values(0, 1, 63, 64, 65, 4096,
                                           (1ull << 20) + 17));

}  // namespace
}  // namespace ros2::core
