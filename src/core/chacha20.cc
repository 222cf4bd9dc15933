#include "core/chacha20.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ros2::core {
namespace {

constexpr std::size_t kBlockBytes = 64;

constexpr std::uint32_t Rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

void QuarterRound(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                  std::uint32_t& d) {
  a += b; d ^= a; d = Rotl(d, 16);
  c += d; b ^= c; b = Rotl(b, 12);
  a += b; d ^= a; d = Rotl(d, 8);
  c += d; b ^= c; b = Rotl(b, 7);
}

/// The input state for (key, nonce, counter).
void InitState(const ChaChaKey& key, std::uint64_t nonce,
               std::uint64_t counter, std::uint32_t state[16]) {
  // "expand 32-byte k"
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    std::memcpy(&state[4 + i], key.data() + 4 * i, 4);
  }
  // 64-bit counter + 64-bit nonce variant (original ChaCha layout).
  state[12] = std::uint32_t(counter);
  state[13] = std::uint32_t(counter >> 32);
  state[14] = std::uint32_t(nonce);
  state[15] = std::uint32_t(nonce >> 32);
}

/// One 64-byte ChaCha20 block for (key, nonce, counter).
void Block(const ChaChaKey& key, std::uint64_t nonce, std::uint64_t counter,
           std::uint8_t out[64]) {
  std::uint32_t state[16];
  InitState(key, nonce, counter, state);
  std::uint32_t working[16];
  std::memcpy(working, state, sizeof(state));
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = working[i] + state[i];
    std::memcpy(out + 4 * i, &v, 4);
  }
}

#if defined(__x86_64__)

// 8-block AVX2 kernel (Goll & Gueron, "Vectorization on ChaCha Stream
// Cipher", ITNG 2014): state word i of blocks counter..counter+7 lives in
// the eight 32-bit lanes of row v[i], so one pass of the rounds produces
// 512 bytes of keystream.
constexpr std::size_t kLanes = 8;
constexpr std::size_t kRunBytes = kLanes * kBlockBytes;

#define ROS2_AVX2 __attribute__((target("avx2")))

template <int N>
ROS2_AVX2 inline __m256i Rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
}

/// The quarter round on eight blocks at once. The byte-multiple rotations
/// (16 and 8) are one byte shuffle each.
ROS2_AVX2 inline void QuarterRound(__m256i& a, __m256i& b, __m256i& c,
                                   __m256i& d, __m256i rot16,
                                   __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d); b = Rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d); b = Rotl<7>(_mm256_xor_si256(b, c));
}

/// Transposes the 8x8 matrix of 32-bit words in r[0..7] in place: on
/// return r[j] holds lane j of every input row, in row order.
ROS2_AVX2 inline void Transpose8x8(__m256i r[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  // u_k: lanes k and k+4 of rows 0..3 (u0..u3) or rows 4..7 (u4..u7).
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// XORs `runs` whole 512-byte runs of `src` with keystream blocks
/// `counter`, `counter + 1`, ... into `dst`.
ROS2_AVX2 void XorCopyRunsAvx2(const ChaChaKey& key, std::uint64_t nonce,
                               std::uint64_t counter, const std::byte* src,
                               std::byte* dst, std::size_t runs) {
  std::uint32_t words[16];
  InitState(key, nonce, 0, words);
  __m256i input[16];
  for (int i = 0; i < 16; ++i) {
    input[i] = _mm256_set1_epi32(static_cast<int>(words[i]));
  }
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  for (std::size_t run = 0; run < runs; ++run, counter += kLanes) {
    // Lane j runs block counter + j; the 64-bit add carries from word 12
    // into word 13 per lane.
    alignas(32) std::uint32_t lo[kLanes];
    alignas(32) std::uint32_t hi[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      lo[j] = std::uint32_t(counter + j);
      hi[j] = std::uint32_t((counter + j) >> 32);
    }
    input[12] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lo));
    input[13] = _mm256_load_si256(reinterpret_cast<const __m256i*>(hi));

    __m256i v[16];
    for (int i = 0; i < 16; ++i) v[i] = input[i];
    for (int round = 0; round < 10; ++round) {
      QuarterRound(v[0], v[4], v[8], v[12], rot16, rot8);
      QuarterRound(v[1], v[5], v[9], v[13], rot16, rot8);
      QuarterRound(v[2], v[6], v[10], v[14], rot16, rot8);
      QuarterRound(v[3], v[7], v[11], v[15], rot16, rot8);
      QuarterRound(v[0], v[5], v[10], v[15], rot16, rot8);
      QuarterRound(v[1], v[6], v[11], v[12], rot16, rot8);
      QuarterRound(v[2], v[7], v[8], v[13], rot16, rot8);
      QuarterRound(v[3], v[4], v[9], v[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) v[i] = _mm256_add_epi32(v[i], input[i]);
    // After the transposes, v[j] is words 0..7 and v[8 + j] words 8..15
    // of block j: its first and second 32 bytes.
    Transpose8x8(v);
    Transpose8x8(v + 8);
    const std::size_t base = run * kRunBytes;
    for (std::size_t j = 0; j < kLanes; ++j) {
      for (std::size_t half = 0; half < 2; ++half) {
        const std::size_t at = base + j * kBlockBytes + half * 32;
        const __m256i in = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + at));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + at),
                            _mm256_xor_si256(in, v[half * 8 + j]));
      }
    }
  }
}

#undef ROS2_AVX2

#endif  // defined(__x86_64__)

}  // namespace

namespace detail {

void ChaCha20XorCopyScalar(const ChaChaKey& key, std::uint64_t nonce,
                           std::uint64_t stream_offset,
                           std::span<const std::byte> src,
                           std::span<std::byte> dst) {
  assert(dst.size() == src.size());
  std::uint8_t block[kBlockBytes];
  std::size_t done = 0;
  while (done < src.size()) {
    const std::uint64_t pos = stream_offset + done;
    const std::uint64_t within = pos % kBlockBytes;
    Block(key, nonce, pos / kBlockBytes, block);
    const std::size_t n =
        std::min<std::size_t>(src.size() - done, kBlockBytes - within);
    for (std::size_t i = 0; i < n; ++i) {
      dst[done + i] = src[done + i] ^ std::byte(block[within + i]);
    }
    done += n;
  }
}

bool ChaCha20HasVectorKernel() {
#if defined(__x86_64__)
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has_avx2;
#else
  return false;
#endif
}

}  // namespace detail

void ChaCha20XorCopy(const ChaChaKey& key, std::uint64_t nonce,
                     std::uint64_t stream_offset,
                     std::span<const std::byte> src,
                     std::span<std::byte> dst) {
  assert(dst.size() == src.size());
#if defined(__x86_64__)
  if (detail::ChaCha20HasVectorKernel()) {
    // Scalar head up to the next block boundary, whole 512-byte runs in
    // the vector kernel, scalar tail.
    const std::size_t head = std::min<std::size_t>(
        src.size(), (kBlockBytes - stream_offset % kBlockBytes) % kBlockBytes);
    detail::ChaCha20XorCopyScalar(key, nonce, stream_offset,
                                  src.first(head), dst.first(head));
    const std::size_t runs = (src.size() - head) / kRunBytes;
    XorCopyRunsAvx2(key, nonce, (stream_offset + head) / kBlockBytes,
                    src.data() + head, dst.data() + head, runs);
    const std::size_t done = head + runs * kRunBytes;
    detail::ChaCha20XorCopyScalar(key, nonce, stream_offset + done,
                                  src.subspan(done), dst.subspan(done));
    return;
  }
#endif
  detail::ChaCha20XorCopyScalar(key, nonce, stream_offset, src, dst);
}

std::uint64_t DeriveNonce(std::uint64_t hi, std::uint64_t lo) {
  std::uint64_t x = hi * 0x9E3779B97F4A7C15ull ^ (lo + 0xD1B54A32D192ED03ull);
  x ^= x >> 32;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return x;
}

}  // namespace ros2::core
