#include "daos/vos.h"

#include <algorithm>
#include <cstring>

#include "common/crc.h"

namespace ros2::daos {

Vos::Vos(scm::PmemPool* scm, spdk::Bdev* nvme, VosConfig config)
    : scm_(scm),
      nvme_(nvme),
      nvme_alloc_(config.nvme_base,
                  config.nvme_capacity == 0 ? nvme->size_bytes()
                                            : config.nvme_capacity,
                  nvme->block_size()),
      config_(config) {}

Vos::~Vos() = default;

// ------------------------------------------------------------- tier I/O

Result<Vos::ValueLoc> Vos::Store(std::span<const std::byte> data) {
  ValueLoc loc;
  loc.logical_len = data.size();
  if (config_.checksums) {
    loc.crc0 = Crc32c(data.first(std::min(data.size(), kCsumChunk)));
    for (std::uint64_t at = kCsumChunk; at < data.size(); at += kCsumChunk) {
      loc.crc_rest.push_back(
          Crc32c(data.subspan(at, std::min(data.size() - at, kCsumChunk))));
    }
  }
  if (data.size() <= config_.scm_threshold) {
    loc.tier = ValueLoc::Tier::kScm;
    ROS2_ASSIGN_OR_RETURN(loc.scm_handle,
                          scm_->Alloc(data.empty() ? 1 : data.size()));
    loc.length = data.size();
    if (!data.empty()) {
      auto span = scm_->Deref(loc.scm_handle);
      if (!span.ok()) return span.status();
      std::memcpy(span->data(), data.data(), data.size());
    }
    ++stats_.scm_records;
    stats_.bytes_in_scm += data.size();
  } else {
    loc.tier = ValueLoc::Tier::kNvme;
    const std::uint32_t lba = nvme_->block_size();
    const std::uint64_t padded = (data.size() + lba - 1) / lba * lba;
    ROS2_ASSIGN_OR_RETURN(loc.nvme_offset, nvme_alloc_.Alloc(padded));
    loc.length = padded;
    // Pad the tail block; the logical length masks the padding on load.
    Buffer staged(padded);
    std::memcpy(staged.data(), data.data(), data.size());
    ROS2_RETURN_IF_ERROR(nvme_->Write(loc.nvme_offset, staged));
    ++stats_.nvme_records;
    stats_.bytes_in_nvme += padded;
  }
  return loc;
}

Status Vos::Load(const ValueLoc& loc, std::uint64_t lo,
                 std::span<std::byte> out) const {
  const std::uint64_t hi = lo + out.size();
  if (hi > loc.logical_len) return Internal("load past the record end");
  if (out.empty()) return Status::Ok();
  // Record range [first, last) that must be read: the covering checksum
  // chunks when verifying, just the slice otherwise.
  std::uint64_t first = lo;
  std::uint64_t last = hi;
  if (config_.checksums) {
    first = lo / kCsumChunk * kCsumChunk;
    last = std::min((hi + kCsumChunk - 1) / kCsumChunk * kCsumChunk,
                    loc.logical_len);
  }
  std::span<const std::byte> covered;  // record bytes [first, last)
  Buffer staged;
  if (loc.tier == ValueLoc::Tier::kScm) {
    // Verified in place on the arena; only the slice is copied out.
    auto span = scm_->Deref(loc.scm_handle);
    if (!span.ok()) return span.status();
    covered = span->subspan(first, last - first);
    stats_.bytes_loaded.Add(last - first);
  } else {
    const std::uint32_t lba = nvme_->block_size();
    const std::uint64_t read_lo = first / lba * lba;
    const std::uint64_t read_hi = (last + lba - 1) / lba * lba;
    if (read_lo == lo && read_hi == hi) {
      // Whole aligned blocks (chunks, when verifying): read straight into
      // the caller's buffer and verify it there.
      ROS2_RETURN_IF_ERROR(nvme_->Read(loc.nvme_offset + lo, out));
      covered = out;
    } else {
      staged = Buffer(read_hi - read_lo);
      ROS2_RETURN_IF_ERROR(nvme_->Read(loc.nvme_offset + read_lo, staged));
      covered = std::span<const std::byte>(staged).subspan(first - read_lo,
                                                           last - first);
    }
    stats_.bytes_loaded.Add(read_hi - read_lo);
  }
  if (config_.checksums) {
    for (std::uint64_t at = first; at < last; at += kCsumChunk) {
      const std::uint64_t len = std::min(last - at, kCsumChunk);
      if (Crc32c(covered.subspan(at - first, len)) !=
          loc.crc(at / kCsumChunk)) {
        return DataLoss("extent checksum mismatch (end-to-end CRC-32C)");
      }
    }
    stats_.bytes_verified.Add(last - first);
  }
  if (covered.data() != out.data()) {
    std::memcpy(out.data(), covered.data() + (lo - first), out.size());
  }
  return Status::Ok();
}

void Vos::Release(ValueLoc& loc) {
  if (loc.tier == ValueLoc::Tier::kScm &&
      loc.scm_handle != scm::kNullHandle) {
    (void)scm_->Free(loc.scm_handle);
    loc.scm_handle = scm::kNullHandle;
    stats_.bytes_in_scm -= loc.logical_len;
    --stats_.scm_records;
  } else if (loc.tier == ValueLoc::Tier::kNvme && loc.length > 0) {
    (void)nvme_alloc_.Free(loc.nvme_offset);
    stats_.bytes_in_nvme -= loc.length;
    --stats_.nvme_records;
    loc.length = 0;
  }
}

// --------------------------------------------------------------- lookup

Result<const Vos::AkeyValue*> Vos::FindValue(const ObjectId& oid,
                                             const std::string& dkey,
                                             const std::string& akey,
                                             ValueType expected) const {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  auto ak = dk->second.find(akey);
  if (ak == dk->second.end()) return NotFound("no such akey");
  if (ak->second.type != expected) {
    return InvalidArgument("akey value type mismatch");
  }
  return &ak->second;
}

// --------------------------------------------------------------- arrays

Status Vos::UpdateArray(const ObjectId& oid, const std::string& dkey,
                        const std::string& akey, Epoch epoch,
                        std::uint64_t offset,
                        std::span<const std::byte> data) {
  if (!oid.valid()) return InvalidArgument("invalid oid");
  if (data.empty()) return InvalidArgument("empty update");
  auto& value = objects_[oid][dkey][akey];
  if (!value.records.empty() || !value.singles.empty()) {
    if (value.type != ValueType::kArray) {
      return InvalidArgument("akey holds a single value");
    }
    if (!value.records.empty() && epoch < value.records.back().epoch) {
      return InvalidArgument("epoch must be monotonic per akey");
    }
  }
  value.type = ValueType::kArray;

  ArrayRecord rec;
  rec.extent = {offset, data.size()};
  rec.epoch = epoch;
  ROS2_ASSIGN_OR_RETURN(rec.loc, Store(data));
  value.records.push_back(std::move(rec));
  ++stats_.updates;
  return Status::Ok();
}

Status Vos::FetchArray(const ObjectId& oid, const std::string& dkey,
                       const std::string& akey, Epoch epoch,
                       std::uint64_t offset, std::span<std::byte> out) const {
  auto value = FindValue(oid, dkey, akey, ValueType::kArray);
  const Extent want{offset, out.size()};
  // The parts of the request no visible record has covered yet, in
  // offset order. Missing object/keys leave it all open: holes (DAOS
  // fetch semantics).
  std::vector<Extent> open;
  if (!out.empty()) open.push_back(want);
  if (value.ok()) {
    // Newest visible record wins: walk the log newest-first and let each
    // record fill only what is still open, so shadowed bytes are never
    // loaded. A punch loads nothing; it zeroes and closes what it covers.
    const std::vector<ArrayRecord>& records = (*value)->records;
    std::vector<Extent> next;
    for (auto rec = records.rbegin(); rec != records.rend() && !open.empty();
         ++rec) {
      if (epoch != kEpochHead && rec->epoch > epoch) continue;
      if (!rec->extent.Overlaps(want)) continue;
      next.clear();
      for (const Extent& gap : open) {
        const std::uint64_t lo = std::max(gap.offset, rec->extent.offset);
        const std::uint64_t hi = std::min(gap.end(), rec->extent.end());
        if (lo >= hi) {
          next.push_back(gap);
          continue;
        }
        const std::span<std::byte> fill =
            out.subspan(lo - want.offset, hi - lo);
        if (rec->punch) {
          std::memset(fill.data(), 0, fill.size());
        } else {
          ROS2_RETURN_IF_ERROR(Load(rec->loc, lo - rec->extent.offset, fill));
        }
        if (gap.offset < lo) next.push_back({gap.offset, lo - gap.offset});
        if (hi < gap.end()) next.push_back({hi, gap.end() - hi});
      }
      open.swap(next);
    }
    ++stats_.fetches;
  }
  for (const Extent& hole : open) {
    std::memset(out.data() + (hole.offset - want.offset), 0, hole.length);
  }
  return Status::Ok();
}

Result<std::uint64_t> Vos::ArraySize(const ObjectId& oid,
                                     const std::string& dkey,
                                     const std::string& akey,
                                     Epoch epoch) const {
  auto value = FindValue(oid, dkey, akey, ValueType::kArray);
  if (!value.ok()) return std::uint64_t(0);
  std::uint64_t size = 0;
  for (const ArrayRecord& rec : (*value)->records) {
    if (epoch != kEpochHead && rec.epoch > epoch) continue;
    if (rec.punch) continue;  // punches do not shrink logical size here
    size = std::max(size, rec.extent.end());
  }
  return size;
}

// -------------------------------------------------------------- singles

Status Vos::UpdateSingle(const ObjectId& oid, const std::string& dkey,
                         const std::string& akey, Epoch epoch,
                         std::span<const std::byte> value_bytes) {
  if (!oid.valid()) return InvalidArgument("invalid oid");
  auto& value = objects_[oid][dkey][akey];
  if ((!value.records.empty() || !value.singles.empty()) &&
      value.type != ValueType::kSingle) {
    return InvalidArgument("akey holds an array value");
  }
  value.type = ValueType::kSingle;
  if (!value.singles.empty() && epoch < value.singles.back().epoch) {
    return InvalidArgument("epoch must be monotonic per akey");
  }
  SingleRecord rec;
  rec.epoch = epoch;
  ROS2_ASSIGN_OR_RETURN(rec.loc, Store(value_bytes));
  value.singles.push_back(std::move(rec));
  ++stats_.updates;
  return Status::Ok();
}

Result<Buffer> Vos::FetchSingle(const ObjectId& oid, const std::string& dkey,
                                const std::string& akey, Epoch epoch) const {
  ROS2_ASSIGN_OR_RETURN(const AkeyValue* value,
                        FindValue(oid, dkey, akey, ValueType::kSingle));
  const SingleRecord* visible = nullptr;
  for (const SingleRecord& rec : value->singles) {
    if (epoch != kEpochHead && rec.epoch > epoch) continue;
    visible = &rec;
  }
  if (visible == nullptr || visible->punch) {
    return Status(NotFound("no visible value at epoch"));
  }
  Buffer out(visible->loc.logical_len);
  ROS2_RETURN_IF_ERROR(Load(visible->loc, 0, out));
  return out;
}

// ---------------------------------------------------------------- punch

Status Vos::PunchAkey(const ObjectId& oid, const std::string& dkey,
                      const std::string& akey, Epoch epoch) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  auto ak = dk->second.find(akey);
  if (ak == dk->second.end()) return NotFound("no such akey");
  if (ak->second.type == ValueType::kArray) {
    ArrayRecord rec;
    rec.extent = {0, ~std::uint64_t(0)};
    rec.epoch = epoch;
    rec.punch = true;
    ak->second.records.push_back(std::move(rec));
  } else {
    SingleRecord rec;
    rec.epoch = epoch;
    rec.punch = true;
    ak->second.singles.push_back(std::move(rec));
  }
  return Status::Ok();
}

Status Vos::PunchDkey(const ObjectId& oid, const std::string& dkey,
                      Epoch epoch) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  for (auto& [akey, value] : dk->second) {
    (void)value;
    ROS2_RETURN_IF_ERROR(PunchAkey(oid, dkey, akey, epoch));
  }
  return Status::Ok();
}

Status Vos::PunchObject(const ObjectId& oid, Epoch epoch) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  // Hard punch: reclaim all storage (aggregated delete).
  for (auto& [dkey, akeys] : obj->second) {
    (void)dkey;
    for (auto& [akey, value] : akeys) {
      (void)akey;
      for (auto& rec : value.records) Release(rec.loc);
      for (auto& rec : value.singles) Release(rec.loc);
    }
  }
  (void)epoch;
  objects_.erase(obj);
  return Status::Ok();
}

// ---------------------------------------------------------- enumeration

std::vector<std::string> Vos::ListDkeys(const ObjectId& oid) const {
  std::vector<std::string> out;
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return out;
  out.reserve(obj->second.size());
  for (const auto& [dkey, _] : obj->second) out.push_back(dkey);
  return out;
}

std::vector<std::string> Vos::ListAkeys(const ObjectId& oid,
                                        const std::string& dkey) const {
  std::vector<std::string> out;
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return out;
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return out;
  out.reserve(dk->second.size());
  for (const auto& [akey, _] : dk->second) out.push_back(akey);
  return out;
}

bool Vos::ObjectExists(const ObjectId& oid) const {
  return objects_.contains(oid);
}

std::vector<ObjectId> Vos::ListObjects() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [oid, _] : objects_) out.push_back(oid);
  return out;
}

std::vector<Vos::AkeyInfo> Vos::DescribeDkey(const ObjectId& oid,
                                             const std::string& dkey) const {
  std::vector<AkeyInfo> out;
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return out;
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return out;
  out.reserve(dk->second.size());
  for (const auto& [akey, value] : dk->second) {
    AkeyInfo info;
    info.akey = akey;
    info.type = value.type;
    if (value.type == ValueType::kArray) {
      for (const ArrayRecord& rec : value.records) {
        if (rec.punch) continue;  // punches do not shrink logical size
        info.head_size = std::max(info.head_size, rec.extent.end());
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

// ----------------------------------------------------------- aggregation

Status Vos::AggregateArray(const ObjectId& oid, const std::string& dkey,
                           const std::string& akey, Epoch upto) {
  auto obj = objects_.find(oid);
  if (obj == objects_.end()) return NotFound("no such object");
  auto dk = obj->second.find(dkey);
  if (dk == obj->second.end()) return NotFound("no such dkey");
  auto ak = dk->second.find(akey);
  if (ak == dk->second.end()) return NotFound("no such akey");
  AkeyValue& value = ak->second;
  if (value.type != ValueType::kArray) {
    return InvalidArgument("aggregation applies to array values");
  }
  if (value.records.empty()) return Status::Ok();

  ROS2_ASSIGN_OR_RETURN(std::uint64_t size, ArraySize(oid, dkey, akey, upto));
  if (size == 0) {
    // Nothing visible at `upto`: drop the records it covers, but records
    // newer than the aggregation point must survive untouched.
    std::vector<ArrayRecord> survivors;
    for (auto& rec : value.records) {
      if (upto != kEpochHead && rec.epoch > upto) {
        survivors.push_back(std::move(rec));
      } else {
        Release(rec.loc);
      }
    }
    value.records = std::move(survivors);
    return Status::Ok();
  }
  // Materialize the visible state at `upto`, then rebuild the log as one
  // flat record plus any records newer than `upto`.
  Buffer flat(size);
  ROS2_RETURN_IF_ERROR(FetchArray(oid, dkey, akey, upto, 0, flat));

  std::vector<ArrayRecord> survivors;
  Epoch flat_epoch = 0;
  for (auto& rec : value.records) {
    if (upto != kEpochHead && rec.epoch > upto) {
      survivors.push_back(std::move(rec));
    } else {
      flat_epoch = std::max(flat_epoch, rec.epoch);
      Release(rec.loc);
    }
  }
  ArrayRecord merged;
  merged.extent = {0, size};
  merged.epoch = flat_epoch;
  ROS2_ASSIGN_OR_RETURN(merged.loc, Store(flat));

  value.records.clear();
  value.records.push_back(std::move(merged));
  for (auto& rec : survivors) value.records.push_back(std::move(rec));
  return Status::Ok();
}

}  // namespace ros2::daos
