// Versioned Object Store — one per engine target (§2.4).
//
// Implements DAOS's transactional, versioned object model over the two
// storage tiers:
//
//   object -> dkey -> akey -> { single value | extent array }
//
// Every update is stamped with an epoch; fetches read "as of" an epoch
// (overlapping extents resolve newest-visible-wins: the record log is
// walked newest-first and each record fills only the bytes no newer
// record already covered). Records carry end-to-end CRC-32C, one per
// 32 KiB checksum chunk (the DAOS csum_chunk_size default): computed at
// ingest, and verified on exactly the chunks a fetch returns bytes from,
// so a corrupted tier surfaces as DATA_LOSS rather than silent bad bytes.
// Corruption in bytes a fetch does not return does not fail that fetch.
//
// Tiering follows DAOS policy: records <= the SCM threshold (and all
// single values) land in the PMEM pool; larger extents go to NVMe through
// the block allocator.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "daos/nvme_alloc.h"
#include "daos/types.h"
#include "scm/pmem_pool.h"
#include "spdk/bdev.h"
#include "telemetry/metrics.h"

namespace ros2::daos {

struct VosConfig {
  /// Records at or below this size are stored in SCM (DAOS default policy).
  std::uint64_t scm_threshold = 64 * 1024;
  bool checksums = true;
  /// NVMe partition assigned to this target on the (possibly shared)
  /// bdev; capacity 0 means "the whole device".
  std::uint64_t nvme_base = 0;
  std::uint64_t nvme_capacity = 0;
};

// Relaxed atomics, not plain integers: with xstream workers each target's
// Vos is single-writer, but telemetry snapshots read these fields from the
// progress thread while the owning worker keeps ticking them.
struct VosStats {
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> fetches{0};
  std::atomic<std::uint64_t> scm_records{0};
  std::atomic<std::uint64_t> nvme_records{0};
  std::atomic<std::uint64_t> bytes_in_scm{0};
  std::atomic<std::uint64_t> bytes_in_nvme{0};
  /// Bytes read from either tier by fetches, checksum-chunk and LBA
  /// rounding included (linked into the engine's telemetry tree).
  telemetry::Counter bytes_loaded;
  /// Bytes run through CRC-32C verification by fetches.
  telemetry::Counter bytes_verified;
};

class Vos {
 public:
  /// `scm` and `nvme` are the target's storage tiers (borrowed).
  Vos(scm::PmemPool* scm, spdk::Bdev* nvme, VosConfig config = {});
  ~Vos();

  Vos(const Vos&) = delete;
  Vos& operator=(const Vos&) = delete;

  // --- array values ------------------------------------------------------
  /// Writes `data` at `offset` within the array under (oid, dkey, akey),
  /// visible from `epoch` onward.
  Status UpdateArray(const ObjectId& oid, const std::string& dkey,
                     const std::string& akey, Epoch epoch,
                     std::uint64_t offset, std::span<const std::byte> data);

  /// Reads [offset, offset+out.size()) as of `epoch` (kEpochHead = latest).
  /// Holes read as zeros.
  Status FetchArray(const ObjectId& oid, const std::string& dkey,
                    const std::string& akey, Epoch epoch,
                    std::uint64_t offset, std::span<std::byte> out) const;

  /// Logical size: one past the highest written byte as of `epoch`.
  Result<std::uint64_t> ArraySize(const ObjectId& oid,
                                  const std::string& dkey,
                                  const std::string& akey,
                                  Epoch epoch) const;

  // --- single values -----------------------------------------------------
  Status UpdateSingle(const ObjectId& oid, const std::string& dkey,
                      const std::string& akey, Epoch epoch,
                      std::span<const std::byte> value);
  Result<Buffer> FetchSingle(const ObjectId& oid, const std::string& dkey,
                             const std::string& akey, Epoch epoch) const;

  // --- punch (delete) ----------------------------------------------------
  /// Removes the akey's value (visible from `epoch`).
  Status PunchAkey(const ObjectId& oid, const std::string& dkey,
                   const std::string& akey, Epoch epoch);
  Status PunchDkey(const ObjectId& oid, const std::string& dkey, Epoch epoch);
  Status PunchObject(const ObjectId& oid, Epoch epoch);

  // --- enumeration -------------------------------------------------------
  std::vector<std::string> ListDkeys(const ObjectId& oid) const;
  std::vector<std::string> ListAkeys(const ObjectId& oid,
                                     const std::string& dkey) const;
  bool ObjectExists(const ObjectId& oid) const;
  /// Every object resident on this target (rebuild scan).
  std::vector<ObjectId> ListObjects() const;

  /// Export descriptor for one akey under (oid, dkey): the value kind plus
  /// (for arrays) the HEAD logical size — everything the rebuild exporter
  /// needs to materialize the akey with FetchArray/FetchSingle.
  struct AkeyInfo {
    std::string akey;
    ValueType type = ValueType::kArray;
    std::uint64_t head_size = 0;  ///< arrays only: logical size at HEAD
  };
  /// Empty when the dkey (or object) does not exist on this target.
  std::vector<AkeyInfo> DescribeDkey(const ObjectId& oid,
                                     const std::string& dkey) const;

  // --- maintenance -------------------------------------------------------
  /// DAOS aggregation: collapses an array's record log up to `upto` into a
  /// single flat record, reclaiming superseded tier space. Reads at epochs
  /// below `upto` afterwards see the aggregated (latest) state.
  Status AggregateArray(const ObjectId& oid, const std::string& dkey,
                        const std::string& akey, Epoch upto);

  const VosStats& stats() const { return stats_; }

  /// Checksum granularity: one CRC-32C per this many record bytes (the
  /// DAOS csum_chunk_size default). A multiple of every LBA size in use,
  /// so chunk boundaries are also NVMe block boundaries.
  static constexpr std::uint64_t kCsumChunk = 32 * 1024;

 private:
  /// Where a record's bytes physically live.
  struct ValueLoc {
    enum class Tier : std::uint8_t { kScm, kNvme } tier = Tier::kScm;
    scm::PmemHandle scm_handle = scm::kNullHandle;
    std::uint64_t nvme_offset = 0;
    std::uint64_t length = 0;       ///< stored bytes (LBA-padded on NVMe)
    std::uint64_t logical_len = 0;  ///< caller bytes
    /// CRC-32C of checksum chunk 0; inline so a one-chunk record (every
    /// SCM record up to kCsumChunk) pays no extra allocation.
    std::uint32_t crc0 = 0;
    std::vector<std::uint32_t> crc_rest;  ///< chunks 1..n-1

    std::uint32_t crc(std::uint64_t chunk) const {
      return chunk == 0 ? crc0 : crc_rest[chunk - 1];
    }
  };

  /// One versioned extent record in an array's log.
  struct ArrayRecord {
    Extent extent;
    Epoch epoch = 0;
    bool punch = false;  ///< punch records erase the covered range
    ValueLoc loc;
  };

  struct SingleRecord {
    Epoch epoch = 0;
    bool punch = false;
    ValueLoc loc;
  };

  struct AkeyValue {
    ValueType type = ValueType::kArray;
    std::vector<ArrayRecord> records;    // array log, epoch-ordered
    std::vector<SingleRecord> singles;   // single-value log, epoch-ordered
  };

  using DkeyMap = std::map<std::string, AkeyValue>;
  using Object = std::map<std::string, DkeyMap>;

  Result<ValueLoc> Store(std::span<const std::byte> data);
  /// Reads record bytes [lo, lo+out.size()) into `out`, after verifying
  /// every checksum chunk that range touches.
  Status Load(const ValueLoc& loc, std::uint64_t lo,
              std::span<std::byte> out) const;
  void Release(ValueLoc& loc);

  Result<const AkeyValue*> FindValue(const ObjectId& oid,
                                     const std::string& dkey,
                                     const std::string& akey,
                                     ValueType expected) const;

  scm::PmemPool* scm_;
  spdk::Bdev* nvme_;
  NvmeAllocator nvme_alloc_;
  VosConfig config_;
  mutable VosStats stats_;  // fetch counters tick inside const reads
  std::map<ObjectId, Object> objects_;
};

}  // namespace ros2::daos
