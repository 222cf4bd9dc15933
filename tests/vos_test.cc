// Versioned-object-store tests: extent semantics, epochs, tiering,
// end-to-end checksums, punch, and aggregation (§2.4's object model).
#include "daos/vos.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/units.h"

namespace ros2::daos {
namespace {

class VosTest : public ::testing::Test {
 protected:
  VosTest() {
    storage::NvmeDeviceConfig config;
    config.capacity_bytes = 256 * kMiB;
    device_ = std::make_unique<storage::NvmeDevice>(config);
    bdev_ = std::make_unique<spdk::Bdev>(device_.get());
    scm_ = std::make_unique<scm::PmemPool>(32 * kMiB);
    vos_ = std::make_unique<Vos>(scm_.get(), bdev_.get());
  }

  const ObjectId oid_{1, 1};
  std::unique_ptr<storage::NvmeDevice> device_;
  std::unique_ptr<spdk::Bdev> bdev_;
  std::unique_ptr<scm::PmemPool> scm_;
  std::unique_ptr<Vos> vos_;
};

TEST_F(VosTest, ArrayUpdateFetchRoundTrip) {
  Buffer data = MakePatternBuffer(4096, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out(4096);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VosTest, HolesReadAsZeros) {
  Buffer data = MakePatternBuffer(100, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 1000, data).ok());
  Buffer out(2000);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(out[i], std::byte(0));
  EXPECT_EQ(VerifyPattern(
                std::span<const std::byte>(out.data() + 1000, 100), 1, 0),
            -1);
  for (int i = 1100; i < 2000; ++i) ASSERT_EQ(out[i], std::byte(0));
}

TEST_F(VosTest, MissingObjectReadsAsHoles) {
  Buffer out = MakePatternBuffer(128, 9);
  ASSERT_TRUE(
      vos_->FetchArray(ObjectId{9, 9}, "d", "a", kEpochHead, 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
}

TEST_F(VosTest, OverlappingWritesNewestWins) {
  Buffer first = MakePatternBuffer(1000, 1);
  Buffer second = MakePatternBuffer(500, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, first).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 2, 250, second).ok());
  Buffer out(1000);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(std::span<const std::byte>(out.data(), 250), 1, 0),
            -1);
  EXPECT_EQ(VerifyPattern(
                std::span<const std::byte>(out.data() + 250, 500), 2, 0),
            -1);
  EXPECT_EQ(VerifyPattern(
                std::span<const std::byte>(out.data() + 750, 250), 1, 750),
            -1);
}

TEST_F(VosTest, EpochSnapshotReads) {
  Buffer v1 = MakePatternBuffer(100, 1);
  Buffer v2 = MakePatternBuffer(100, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 5, 0, v1).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 9, 0, v2).ok());
  Buffer out(100);
  // As of epoch 5: v1 visible.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 5, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
  // As of epoch 8 (between updates): still v1.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 8, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
  // HEAD: v2.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 2, 0), -1);
  // Before any write: holes.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 4, 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
}

TEST_F(VosTest, EpochMonotonicityEnforced) {
  Buffer data(16);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 5, 0, data).ok());
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "ak", 4, 0, data).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VosTest, SmallRecordsLandInScm) {
  Buffer small = MakePatternBuffer(4096, 1);  // <= 64 KiB threshold
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, small).ok());
  EXPECT_EQ(vos_->stats().scm_records, 1u);
  EXPECT_EQ(vos_->stats().nvme_records, 0u);
}

TEST_F(VosTest, LargeRecordsLandOnNvme) {
  Buffer large = MakePatternBuffer(1 << 20, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, large).ok());
  EXPECT_EQ(vos_->stats().nvme_records, 1u);
  EXPECT_GT(device_->bytes_written(), 0u);
  Buffer out(1 << 20);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, large);
}

TEST_F(VosTest, UnalignedLargeRecordPaddedTransparently) {
  // An LBA-exact record (written straight from the caller's span) and one
  // whose partial tail block is staged and zero-padded.
  const std::uint64_t lba = bdev_->block_size();
  std::uint64_t padded = 0;
  for (const std::uint64_t size : {std::uint64_t{1} << 20,
                                   (std::uint64_t{1} << 20) + 777}) {
    const std::string dkey = "dk" + std::to_string(size);
    Buffer large = MakePatternBuffer(size, 3);
    ASSERT_TRUE(vos_->UpdateArray(oid_, dkey, "ak", 1, 0, large).ok());
    Buffer out(large.size());
    ASSERT_TRUE(vos_->FetchArray(oid_, dkey, "ak", kEpochHead, 0, out).ok());
    EXPECT_EQ(out, large) << size;
    padded += (size + lba - 1) / lba * lba;
    EXPECT_EQ(vos_->stats().bytes_in_nvme, padded) << size;
  }
  EXPECT_EQ(device_->bytes_written(), padded);
}

TEST_F(VosTest, ChecksumDetectsScmCorruption) {
  Buffer data = MakePatternBuffer(1024, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  // Corrupt the SCM arena behind the record (handle 1 is the first alloc).
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[100] ^= std::byte(0xFF);
  Buffer out(1024);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).code(),
            ErrorCode::kDataLoss);
}

TEST_F(VosTest, ChecksumDetectsNvmeCorruption) {
  Buffer data = MakePatternBuffer(256 * 1024, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  // Corrupt the device under the engine through a side-channel bdev.
  spdk::Bdev raw(device_.get());
  Buffer evil = MakePatternBuffer(4096, 0xEE);
  ASSERT_TRUE(raw.Write(0, evil).ok());
  Buffer out(256 * 1024);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).code(),
            ErrorCode::kDataLoss);
}

// The integrity contract is per checksum chunk: a fetch fails with
// DATA_LOSS exactly when a chunk it returns bytes from is corrupt.
TEST_F(VosTest, NvmeCorruptionFailsOnlyFetchesOfTheCorruptChunk) {
  Buffer data = MakePatternBuffer(1 << 20, 4);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  // One 4 KiB LBA inside checksum chunk 2 ([64 KiB, 96 KiB)).
  spdk::Bdev raw(device_.get());
  ASSERT_TRUE(raw.Write(68 * 1024, MakePatternBuffer(4096, 0xEE)).ok());

  Buffer out(4096);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 8 * 1024, out).ok());
  EXPECT_EQ(VerifyPattern(out, 4, 8 * 1024), -1);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 200 * 1024, out).ok());
  EXPECT_EQ(VerifyPattern(out, 4, 200 * 1024), -1);
  // Bytes outside the corrupt LBA but inside its chunk are unverifiable.
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 90 * 1024, out)
                .code(),
            ErrorCode::kDataLoss);
  // A window that only straddles into the corrupt chunk fails too.
  Buffer straddle(8192);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 60 * 1024,
                             straddle)
                .code(),
            ErrorCode::kDataLoss);
}

TEST_F(VosTest, ScmCorruptionFailsOnlyFetchesOfTheCorruptChunk) {
  Buffer data = MakePatternBuffer(64 * 1024, 5);  // two chunks, SCM tier
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_EQ(vos_->stats().scm_records, 1u);
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[40000] ^= std::byte(0xFF);  // checksum chunk 1

  Buffer out(4096);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 5, 0), -1);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 50000, out).code(),
            ErrorCode::kDataLoss);
}

TEST_F(VosTest, ShadowedCorruptionFailsOnlySnapshotReadsThatReturnIt) {
  Buffer old_bytes = MakePatternBuffer(4096, 6);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, old_bytes).ok());
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[10] ^= std::byte(0xFF);
  Buffer new_bytes = MakePatternBuffer(4096, 7);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 2, 0, new_bytes).ok());

  // HEAD returns only the newer record: the shadowed one is never loaded.
  Buffer out(4096);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, new_bytes);
  // The snapshot at epoch 1 returns the corrupt bytes.
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", 1, 0, out).code(),
            ErrorCode::kDataLoss);
}

TEST_F(VosTest, TailChunkOfPaddedRecordReadsBack) {
  const std::uint64_t size = (1 << 20) + 777;
  Buffer large = MakePatternBuffer(size, 3);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, large).ok());
  // The 777-byte tail chunk alone, then a window straddling into it.
  Buffer tail(777);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 1 << 20, tail).ok());
  EXPECT_EQ(VerifyPattern(tail, 3, 1 << 20), -1);
  Buffer straddle(5000);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, size - 4000,
                               straddle)
                  .ok());
  EXPECT_EQ(VerifyPattern(std::span<const std::byte>(straddle.data(), 4000),
                          3, size - 4000),
            -1);
  for (std::size_t i = 4000; i < straddle.size(); ++i) {
    ASSERT_EQ(straddle[i], std::byte(0)) << "byte " << i;
  }
}

TEST_F(VosTest, FetchLoadsOnlyTheCoveringChunks) {
  Buffer data = MakePatternBuffer(1 << 20, 8);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out(4096);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 100 * 1024, out).ok());
  EXPECT_EQ(VerifyPattern(out, 8, 100 * 1024), -1);
  EXPECT_EQ(vos_->stats().bytes_loaded.value(), Vos::kCsumChunk);
  EXPECT_EQ(vos_->stats().bytes_verified.value(), Vos::kCsumChunk);

  // A newer overwrite of that window shadows the NVMe record entirely.
  Buffer fresh = MakePatternBuffer(4096, 9);
  ASSERT_TRUE(
      vos_->UpdateArray(oid_, "dk", "ak", 2, 100 * 1024, fresh).ok());
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 100 * 1024, out).ok());
  EXPECT_EQ(out, fresh);
  EXPECT_EQ(vos_->stats().bytes_loaded.value(), Vos::kCsumChunk + 4096);

  // Whole aligned chunks load exactly themselves, with or without
  // checksums.
  Buffer chunks(2 * Vos::kCsumChunk);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead,
                               5 * Vos::kCsumChunk, chunks)
                  .ok());
  EXPECT_EQ(VerifyPattern(chunks, 8, 5 * Vos::kCsumChunk), -1);
  EXPECT_EQ(vos_->stats().bytes_loaded.value(),
            3 * Vos::kCsumChunk + 4096);
  VosConfig unchecked;
  unchecked.checksums = false;
  unchecked.nvme_base = 128 * kMiB;  // clear of vos_'s partition
  unchecked.nvme_capacity = 64 * kMiB;
  Vos raw(scm_.get(), bdev_.get(), unchecked);
  ASSERT_TRUE(raw.UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_TRUE(
      raw.FetchArray(oid_, "dk", "ak", kEpochHead, 12 * 1024, out).ok());
  EXPECT_EQ(VerifyPattern(out, 8, 12 * 1024), -1);
  EXPECT_EQ(raw.stats().bytes_loaded.value(), 4096u);
}

TEST_F(VosTest, SingleValueRoundTripAndVersioning) {
  Buffer v1 = MakePatternBuffer(64, 1);
  Buffer v2 = MakePatternBuffer(64, 2);
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "size", 3, v1).ok());
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "size", 7, v2).ok());
  auto head = vos_->FetchSingle(oid_, "meta", "size", kEpochHead);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, v2);
  auto old = vos_->FetchSingle(oid_, "meta", "size", 5);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(*old, v1);
  EXPECT_EQ(vos_->FetchSingle(oid_, "meta", "size", 2).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(VosTest, TypeConfusionRejected) {
  Buffer data(16);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "arr", 1, 0, data).ok());
  EXPECT_EQ(vos_->UpdateSingle(oid_, "dk", "arr", 2, data).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "dk", "sv", 3, data).ok());
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "sv", 4, 0, data).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(vos_->FetchSingle(oid_, "dk", "arr", kEpochHead).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VosTest, PunchAkeyMakesRangeHoles) {
  Buffer data = MakePatternBuffer(100, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_TRUE(vos_->PunchAkey(oid_, "dk", "ak", 2).ok());
  Buffer out = MakePatternBuffer(100, 9);  // the fetch must zero it
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
  // Pre-punch epoch still sees the data (versioned punch).
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 1, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
}

TEST_F(VosTest, WriteAfterPunchVisible) {
  Buffer data = MakePatternBuffer(100, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_TRUE(vos_->PunchAkey(oid_, "dk", "ak", 2).ok());
  Buffer fresh = MakePatternBuffer(50, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 3, 25, fresh).ok());
  Buffer out = MakePatternBuffer(100, 9);  // the fetch must zero the holes
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  for (int i = 0; i < 25; ++i) ASSERT_EQ(out[i], std::byte(0));
  EXPECT_EQ(
      VerifyPattern(std::span<const std::byte>(out.data() + 25, 50), 2, 0),
      -1);
  for (int i = 75; i < 100; ++i) ASSERT_EQ(out[i], std::byte(0));
}

TEST_F(VosTest, PunchObjectReclaimsStorage) {
  Buffer big = MakePatternBuffer(1 << 20, 1);  // NVMe-tier record
  Buffer small = MakePatternBuffer(512, 2);    // SCM-tier record
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, big).ok());
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "s", 2, small).ok());
  const auto scm_used = scm_->used_bytes();
  EXPECT_GT(scm_used, 0u);
  ASSERT_TRUE(vos_->PunchObject(oid_, 3).ok());
  EXPECT_FALSE(vos_->ObjectExists(oid_));
  EXPECT_EQ(scm_->used_bytes(), 0u);
  EXPECT_EQ(vos_->PunchObject(oid_, 4).code(), ErrorCode::kNotFound);
}

TEST_F(VosTest, ArraySizeTracksHighWaterMark) {
  Buffer data(100);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 4000, data).ok());
  auto size = vos_->ArraySize(oid_, "dk", "ak", kEpochHead);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4100u);
  // As-of earlier epoch: nothing.
  EXPECT_EQ(vos_->ArraySize(oid_, "dk", "ak", 0).value_or(1), 4100u);
}

TEST_F(VosTest, ListKeys) {
  Buffer data(8);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "d1", "a1", 1, 0, data).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "d1", "a2", 2, 0, data).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "d2", "a1", 3, 0, data).ok());
  EXPECT_EQ(vos_->ListDkeys(oid_).size(), 2u);
  EXPECT_EQ(vos_->ListAkeys(oid_, "d1").size(), 2u);
  EXPECT_EQ(vos_->ListAkeys(oid_, "d2").size(), 1u);
  EXPECT_TRUE(vos_->ListDkeys(ObjectId{5, 5}).empty());
}

TEST_F(VosTest, AggregationCollapsesRecordLog) {
  // Many small overlapping writes, then aggregate: content preserved,
  // superseded SCM space reclaimed.
  for (Epoch e = 1; e <= 50; ++e) {
    Buffer data = MakePatternBuffer(1000, e);
    ASSERT_TRUE(
        vos_->UpdateArray(oid_, "dk", "ak", e, (e % 10) * 500, data).ok());
  }
  Buffer before(10 * 500 + 1000);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, before).ok());
  const auto scm_before = scm_->used_bytes();

  ASSERT_TRUE(vos_->AggregateArray(oid_, "dk", "ak", kEpochHead).ok());
  EXPECT_LT(scm_->used_bytes(), scm_before);

  Buffer after(before.size());
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, after).ok());
  EXPECT_EQ(after, before);
}

TEST_F(VosTest, AggregationPreservesNewerEpochs) {
  Buffer v1 = MakePatternBuffer(100, 1);
  Buffer v2 = MakePatternBuffer(100, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, v1).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 10, 0, v2).ok());
  // Aggregate only up to epoch 5: the epoch-10 record must survive.
  ASSERT_TRUE(vos_->AggregateArray(oid_, "dk", "ak", 5).ok());
  Buffer out(100);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 2, 0), -1);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 5, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
}

TEST_F(VosTest, ChecksumsOffSkipsVerification) {
  VosConfig config;
  config.checksums = false;
  Vos vos(scm_.get(), bdev_.get(), config);
  Buffer data = MakePatternBuffer(512, 1);
  ASSERT_TRUE(vos.UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out(512);
  ASSERT_TRUE(vos.FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(vos.stats().bytes_loaded.value(), 512u);
  EXPECT_EQ(vos.stats().bytes_verified.value(), 0u);
}

TEST_F(VosTest, EmptyUpdateRejected) {
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, {}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(vos_->UpdateArray(ObjectId{}, "dk", "ak", 1, 0,
                              MakePatternBuffer(8, 1))
                .code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace ros2::daos
