#include "layers.h"

#include <type_traits>

#include "daos/engine.h"
#include "daos/placement.h"
#include "daos/vos.h"

namespace e2ebench {
namespace {

using ros2::daos::ObjectId;

/// The two POSIX entry points differ only in the names of their data
/// calls (Ros2Client::Pread/Pwrite vs Dfs::Read/Write).
template <class Api>
class PosixLayer final : public Layer {
 public:
  static constexpr bool kIsClient = std::is_same_v<Api, ros2::core::Ros2Client>;

  explicit PosixLayer(Api* api) : api_(api) {}

  const char* name() const override { return kIsClient ? "core" : "dfs"; }
  bool has_namespace() const override { return true; }

  Status Mkdir(const std::string& path) override { return api_->Mkdir(path); }
  Result<std::uint64_t> Readdir(const std::string& path) override {
    auto entries = api_->Readdir(path);
    if (!entries.ok()) return entries.status();
    return std::uint64_t(entries->size());
  }
  Result<Handle> Open(const std::string& path, bool create) override {
    ros2::dfs::OpenFlags flags;
    flags.create = create;
    return api_->Open(path, flags);
  }
  Status Close(Handle h) override { return api_->Close(h); }
  Status Fsync(Handle h) override { return api_->Fsync(h); }
  Status Unlink(const std::string& path) override { return api_->Unlink(path); }
  Status Read(Handle h, std::uint64_t offset,
              std::span<std::byte> out) override {
    Result<std::uint64_t> n = [&] {
      if constexpr (kIsClient) {
        return api_->Pread(h, offset, out);
      } else {
        return api_->Read(h, offset, out);
      }
    }();
    if (!n.ok()) return n.status();
    if (*n != out.size()) return ros2::DataLoss("short read");
    return Status::Ok();
  }
  Status Write(Handle h, std::uint64_t offset,
               std::span<const std::byte> data) override {
    if constexpr (kIsClient) {
      return api_->Pwrite(h, offset, data);
    } else {
      return api_->Write(h, offset, data);
    }
  }

 private:
  Api* api_;
};

std::string ChunkDkey(std::uint64_t chunk) {
  std::string dkey = "c";
  dkey += std::to_string(chunk);
  return dkey;
}

class DaosLayer final : public ObjectLayer {
 public:
  DaosLayer(ros2::daos::DaosClient* client, ros2::daos::ContainerId cont)
      : client_(client), cont_(cont) {}

  const char* name() const override { return "client"; }

  Status Read(Handle h, std::uint64_t offset,
              std::span<std::byte> out) override {
    ROS2_ASSIGN_OR_RETURN(ObjectId oid, Oid(h));
    std::vector<ros2::daos::DaosClient::FetchOp> ops;
    for (const Piece& p : Split(offset, out.size())) {
      ops.push_back({.cont = cont_,
                     .oid = oid,
                     .dkey = p.dkey,
                     .akey = std::string(1, 'd'),
                     .offset = p.within,
                     .out = out.subspan(p.done, p.take)});
    }
    return client_->FetchBatch(ops);
  }
  Status Write(Handle h, std::uint64_t offset,
               std::span<const std::byte> data) override {
    ROS2_ASSIGN_OR_RETURN(ObjectId oid, Oid(h));
    std::vector<ros2::daos::DaosClient::UpdateOp> ops;
    for (const Piece& p : Split(offset, data.size())) {
      ops.push_back({.cont = cont_,
                     .oid = oid,
                     .dkey = p.dkey,
                     .akey = std::string(1, 'd'),
                     .offset = p.within,
                     .data = data.subspan(p.done, p.take)});
    }
    return client_->UpdateBatch(ops).status();
  }

 private:
  Result<ObjectId> NewObject() override { return client_->AllocOid(cont_); }
  Status RemoveObject(const ObjectId& oid) override {
    return client_->PunchObject(cont_, oid);
  }

  ros2::daos::DaosClient* client_;
  ros2::daos::ContainerId cont_;
};

class VosLayer final : public ObjectLayer {
 public:
  explicit VosLayer(ros2::daos::DaosEngine* engine) : engine_(engine) {}

  const char* name() const override { return "vos"; }

  Status Read(Handle h, std::uint64_t offset,
              std::span<std::byte> out) override {
    ROS2_ASSIGN_OR_RETURN(ObjectId oid, Oid(h));
    for (const Piece& p : Split(offset, out.size())) {
      ROS2_RETURN_IF_ERROR(Target(oid, p.dkey)->FetchArray(
          oid, p.dkey, "d", ros2::daos::kEpochHead, p.within,
          out.subspan(p.done, p.take)));
    }
    return Status::Ok();
  }
  Status Write(Handle h, std::uint64_t offset,
               std::span<const std::byte> data) override {
    ROS2_ASSIGN_OR_RETURN(ObjectId oid, Oid(h));
    for (const Piece& p : Split(offset, data.size())) {
      ROS2_RETURN_IF_ERROR(Target(oid, p.dkey)->UpdateArray(
          oid, p.dkey, "d", next_epoch_++, p.within,
          data.subspan(p.done, p.take)));
    }
    return Status::Ok();
  }

 private:
  // Benchmark-owned objects carry a container half no engine allocates.
  static constexpr std::uint64_t kOidHi = 0xE2EBE2EB00000000ull;

  ros2::daos::Vos* Target(const ObjectId& oid, const std::string& dkey) {
    return engine_->target_vos(
        ros2::daos::PlaceDkey(oid, dkey, engine_->num_targets()));
  }
  Result<ObjectId> NewObject() override {
    return ObjectId{kOidHi, ++next_lo_};
  }
  Status RemoveObject(const ObjectId& oid) override {
    // Chunks spread over targets; punch wherever the object lives.
    for (std::uint32_t t = 0; t < engine_->num_targets(); ++t) {
      ros2::daos::Vos* vos = engine_->target_vos(t);
      if (vos->ObjectExists(oid)) {
        ROS2_RETURN_IF_ERROR(vos->PunchObject(oid, next_epoch_++));
      }
    }
    return Status::Ok();
  }

  ros2::daos::DaosEngine* engine_;
  std::uint64_t next_lo_ = 0;
  ros2::daos::Epoch next_epoch_ = 1;
};

}  // namespace

std::unique_ptr<Layer> MakeClientLayer(ros2::core::Ros2Client* client) {
  return std::make_unique<PosixLayer<ros2::core::Ros2Client>>(client);
}

std::unique_ptr<Layer> MakeDfsLayer(ros2::dfs::Dfs* dfs) {
  return std::make_unique<PosixLayer<ros2::dfs::Dfs>>(dfs);
}

std::unique_ptr<ObjectLayer> MakeDaosLayer(ros2::daos::DaosClient* client,
                                           ros2::daos::ContainerId cont) {
  return std::make_unique<DaosLayer>(client, cont);
}

std::unique_ptr<ObjectLayer> MakeVosLayer(ros2::daos::DaosEngine* engine) {
  return std::make_unique<VosLayer>(engine);
}

// ------------------------------------------------------------ ObjectLayer

Result<std::uint64_t> ObjectLayer::Readdir(const std::string&) {
  return Status(ros2::Unimplemented("object layers have no directories"));
}

Result<Handle> ObjectLayer::Open(const std::string& path, bool create) {
  auto it = by_path_.find(path);
  if (it != by_path_.end()) return it->second;
  if (!create) return Status(ros2::NotFound("no such file: " + path));
  ROS2_ASSIGN_OR_RETURN(ObjectId oid, NewObject());
  objects_.push_back(oid);
  const Handle h = objects_.size() - 1;
  by_path_.emplace(path, h);
  return h;
}

Status ObjectLayer::Unlink(const std::string& path) {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) return ros2::NotFound("no such file: " + path);
  ROS2_RETURN_IF_ERROR(RemoveObject(objects_[it->second]));
  by_path_.erase(it);
  return Status::Ok();
}

void ObjectLayer::Adopt(const std::string& path, const ObjectId& oid) {
  objects_.push_back(oid);
  by_path_[path] = objects_.size() - 1;
}

std::vector<ObjectLayer::Piece> ObjectLayer::Split(std::uint64_t offset,
                                                   std::uint64_t length) {
  std::vector<Piece> pieces;
  std::uint64_t done = 0;
  while (done < length) {
    const std::uint64_t pos = offset + done;
    Piece p;
    p.dkey = ChunkDkey(pos / kChunk);
    p.within = pos % kChunk;
    p.done = done;
    p.take = std::min(length - done, kChunk - p.within);
    done += p.take;
    pieces.push_back(std::move(p));
  }
  return pieces;
}

Result<ObjectId> ObjectLayer::Oid(Handle h) const {
  if (h >= objects_.size()) return Status(ros2::NotFound("bad handle"));
  return objects_[h];
}

}  // namespace e2ebench
