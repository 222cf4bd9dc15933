// The stack's public entry points, behind one file-shaped interface so a
// workload's action stream can be replayed unchanged at every layer:
//
//   Ros2Client (core) -> Dfs (dfs) -> DaosClient (daos client) -> Vos (vos)
//
// The two POSIX layers own a real namespace. The object layers keep a
// path -> object map in the benchmark instead, so the namespace work they
// skip is exactly what separates their per-op time from the DFS layer's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ros2_client.h"
#include "daos/types.h"

namespace e2ebench {

using ros2::Result;
using ros2::Status;

using Handle = std::uint64_t;

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const char* name() const = 0;
  /// False for the object layers: they have no directories to list.
  virtual bool has_namespace() const = 0;

  virtual Status Mkdir(const std::string& path) = 0;
  /// Number of entries in the directory.
  virtual Result<std::uint64_t> Readdir(const std::string& path) = 0;
  virtual Result<Handle> Open(const std::string& path, bool create) = 0;
  virtual Status Close(Handle h) = 0;
  virtual Status Fsync(Handle h) = 0;
  virtual Status Unlink(const std::string& path) = 0;
  /// Reads exactly out.size() bytes; a short read is an error.
  virtual Status Read(Handle h, std::uint64_t offset,
                      std::span<std::byte> out) = 0;
  virtual Status Write(Handle h, std::uint64_t offset,
                       std::span<const std::byte> data) = 0;
};

/// Ros2Client::Open/Pread/Pwrite/... (the application's entry point).
std::unique_ptr<Layer> MakeClientLayer(ros2::core::Ros2Client* client);
/// Dfs::Open/Read/Write/... reached through Ros2Client::dfs().
std::unique_ptr<Layer> MakeDfsLayer(ros2::dfs::Dfs* dfs);

/// Path -> object map shared by the two object layers. A file's data
/// lives under the DFS layout (dkey "c<chunk>", akey "d", 1 MiB chunks),
/// so files created through the DFS can be adopted and read in place.
class ObjectLayer : public Layer {
 public:
  static constexpr std::uint64_t kChunk = 1ull << 20;

  bool has_namespace() const override { return false; }
  Status Mkdir(const std::string&) override { return Status::Ok(); }
  Result<std::uint64_t> Readdir(const std::string&) override;
  Result<Handle> Open(const std::string& path, bool create) override;
  Status Close(Handle) override { return Status::Ok(); }
  Status Fsync(Handle) override { return Status::Ok(); }
  Status Unlink(const std::string& path) override;

  /// Maps `path` onto an existing object (a file the DFS already holds).
  void Adopt(const std::string& path, const ros2::daos::ObjectId& oid);

 protected:
  struct Piece {
    std::string dkey;
    std::uint64_t within = 0;  ///< offset inside the chunk
    std::uint64_t done = 0;    ///< offset inside the caller's buffer
    std::uint64_t take = 0;
  };
  /// Splits [offset, offset+length) at chunk boundaries, as Dfs does.
  static std::vector<Piece> Split(std::uint64_t offset, std::uint64_t length);

  Result<ros2::daos::ObjectId> Oid(Handle h) const;
  virtual Result<ros2::daos::ObjectId> NewObject() = 0;
  virtual Status RemoveObject(const ros2::daos::ObjectId& oid) = 0;

 private:
  std::map<std::string, Handle> by_path_;
  std::vector<ros2::daos::ObjectId> objects_;  ///< indexed by Handle
};

/// DaosClient::FetchBatch/UpdateBatch/AllocOid/PunchObject.
std::unique_ptr<ObjectLayer> MakeDaosLayer(ros2::daos::DaosClient* client,
                                           ros2::daos::ContainerId cont);
/// Vos::FetchArray/UpdateArray on the owning target, called directly
/// through DaosEngine::target_vos (serial engine: same thread, no race).
std::unique_ptr<ObjectLayer> MakeVosLayer(ros2::daos::DaosEngine* engine);

}  // namespace e2ebench
