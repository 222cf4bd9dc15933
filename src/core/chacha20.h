// ChaCha20 stream cipher (RFC 8439 block function) for the DPU-resident
// inline encryption service (§1: "DPU-resident features such as ...
// inline services (e.g., encryption/decryption) close to the NIC").
//
// The keystream position is tied to the absolute file offset, so
// chunk-split and unaligned writes encrypt consistently: byte i of a file
// is always XORed with keystream byte i for that (key, nonce). Note the
// documented trade-off: rewriting a byte range reuses keystream (fine for
// a performance prototype; a production service would hash a version into
// the nonce).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ros2::core {

using ChaChaKey = std::array<std::uint8_t, 32>;

/// Writes `src` XORed with the ChaCha20 keystream for `key`/`nonce`,
/// starting at absolute keystream byte `stream_offset`, into `dst`.
/// Encryption and decryption are the same operation. `dst` must be as
/// long as `src`; the two are either the same buffer (in place) or do not
/// overlap. Whole 512-byte runs use an 8-block AVX2 kernel when the CPU
/// has one (checked once at run time); everything else, and every run on
/// other CPUs, goes through the scalar kernel.
void ChaCha20XorCopy(const ChaChaKey& key, std::uint64_t nonce,
                     std::uint64_t stream_offset,
                     std::span<const std::byte> src, std::span<std::byte> dst);

/// Deterministic per-object nonce derivation (object id halves mixed).
std::uint64_t DeriveNonce(std::uint64_t hi, std::uint64_t lo);

namespace detail {

/// The one scalar kernel: one 64-byte block at a time. It is the fallback
/// on CPUs without AVX2 and the oracle the vector kernel is tested
/// against. Same contract as ChaCha20XorCopy.
void ChaCha20XorCopyScalar(const ChaChaKey& key, std::uint64_t nonce,
                           std::uint64_t stream_offset,
                           std::span<const std::byte> src,
                           std::span<std::byte> dst);

/// True when ChaCha20XorCopy dispatches whole 512-byte runs to the 8-block
/// AVX2 kernel on this host.
bool ChaCha20HasVectorKernel();

}  // namespace detail

}  // namespace ros2::core
