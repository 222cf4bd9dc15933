// libdaos-equivalent client: pool/container handles and object I/O over
// the data-plane RPC layer (§3.2 "the DFS client translates POSIX calls to
// DAOS RPCs and bulk transfers").
//
// The client is transport-agnostic: over RDMA its buffers are registered
// and the engine moves payloads with one-sided verbs; over TCP payloads
// ride inline. Nothing above this class (DFS, ROS2 core) knows which.
//
// Scale-out (the paper's §5 "broaden device counts" follow-up): the client
// can connect to SEVERAL engines forming one pool. Dkeys place onto an
// engine first (then onto a target inside it), and updates optionally
// replicate onto the next `replicas-1` engines. Engine health comes from
// the versioned PoolMap (shareable with the control plane and the rebuild
// task): HEAD reads fail over to the first UP replica; updates degrade
// gracefully — a copy whose replica is DOWN (or whose send races the
// down-transition: per-send rejection is authoritative, there is no
// pre-send check to race) is recorded in the map's resync journal instead
// of failing the op, and the rebuild task replays the journal later. An
// update fails only when no replica copy lands at all, or a replica
// returns a non-UNAVAILABLE error (the Status then reports how many
// copies landed). Epoch stamps are per-engine, so snapshot reads pin to
// the engine that issued the epoch (documented simplification).
//
// One submission path: every (oid, dkey)-routed object op (array and
// single-value update/fetch, dkey/akey punch, aggregate, akey listing,
// array size) is a batch handed to the private Submit(), and a single op
// is a batch of one. Submit issues every call, and every replica copy of
// a write, before awaiting any reply, so one engine progress tick services
// the whole window; that is where the paper's "heavy traffic" throughput
// comes from (bench_micro_pipeline gates the win). The write-all route
// (degraded fan-out plus resync journal) and the read route (ReadEngine)
// therefore each exist once. Engine-addressed calls (pool connect, oid
// allocation, container broadcasts, dkey listing, object punch, telemetry)
// go straight to one engine through Call().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "daos/engine.h"
#include "daos/pool_map.h"
#include "daos/types.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"

namespace ros2::daos {

class DaosClient {
 public:
  struct ConnectOptions {
    std::string client_address = "fabric://daos-client";
    net::Transport transport = net::Transport::kRdma;
    std::string pool_label = "pool0";
    std::string access_token;
    net::TenantId tenant = net::kSystemTenant;
    /// Copies of every update, placed on consecutive engines (1 = none).
    std::uint32_t replicas = 1;
    /// Shared pool map (control plane / rebuild task / other clients see
    /// the same engine states and resync journal). Must outlive the
    /// client and have engine_count == engines. nullptr: the client owns
    /// a private map.
    PoolMap* pool_map = nullptr;
  };

  /// Dials the engine, performs PoolConnect (auth), returns a live client.
  /// Each connection pumps its engine unless that engine's progress
  /// thread already runs (DialEngine): start the thread before connecting
  /// clients that run on several threads at once.
  static Result<std::unique_ptr<DaosClient>> Connect(
      net::Fabric* fabric, DaosEngine* engine, const ConnectOptions& options);

  /// Scale-out form: one pool spanning several engines (§5 follow-up).
  /// All engines must share `pool_label` and credentials.
  static Result<std::unique_ptr<DaosClient>> Connect(
      net::Fabric* fabric, std::span<DaosEngine* const> engines,
      const ConnectOptions& options);

  /// Failure injection shorthand over the pool map: down=true marks the
  /// engine DOWN (reads fail over, writes degrade + journal), down=false
  /// marks it UP again. Richer transitions (REBUILDING) go through
  /// pool_map()->SetState.
  Status SetEngineDown(std::uint32_t engine_index, bool down);
  std::uint32_t engine_count() const {
    return std::uint32_t(engines_.size());
  }
  /// The engine-health authority this client routes by.
  PoolMap* pool_map() { return map_; }
  const PoolMap* pool_map() const { return map_; }

  // --- containers --------------------------------------------------------
  Result<ContainerId> ContainerCreate(const std::string& label);
  Result<ContainerId> ContainerOpen(const std::string& label);

  // --- objects -----------------------------------------------------------
  Result<ObjectId> AllocOid(ContainerId cont);

  /// Array write; returns the stamped epoch.
  Result<Epoch> Update(ContainerId cont, const ObjectId& oid,
                       const std::string& dkey, const std::string& akey,
                       std::uint64_t offset,
                       std::span<const std::byte> data);

  /// Array read at `epoch` (kEpochHead = latest); holes read as zeros.
  Status Fetch(ContainerId cont, const ObjectId& oid, const std::string& dkey,
               const std::string& akey, std::uint64_t offset,
               std::span<std::byte> out, Epoch epoch = kEpochHead);

  // --- pipelined batches --------------------------------------------------
  // One batch issues every op (and every replica copy) before awaiting any
  // reply, so a single engine progress tick drains the whole window. The
  // caller's data/out buffers must stay alive until the batch call
  // returns. Ops on the same dkey keep their in-batch order (per-target
  // FIFO); ops on different dkeys may execute interleaved.

  struct UpdateOp {
    ContainerId cont = 0;
    ObjectId oid;
    std::string dkey;
    std::string akey;
    std::uint64_t offset = 0;
    std::span<const std::byte> data;
  };
  struct FetchOp {
    ContainerId cont = 0;
    ObjectId oid;
    std::string dkey;
    std::string akey;
    std::uint64_t offset = 0;
    std::span<std::byte> out;
    Epoch epoch = kEpochHead;
  };

  /// Pipelined array writes; returns each op's stamped epoch (the first
  /// replica copy that landed; the primary's when it is up). Degraded
  /// replica semantics per op — DOWN replicas are journaled, not errors;
  /// an op fails only when no copy lands or a copy returns a hard error
  /// (remaining in-flight ops still drain).
  Result<std::vector<Epoch>> UpdateBatch(std::span<const UpdateOp> ops);

  /// Pipelined array reads into each op's `out` window (holes as zeros).
  /// Fails on the first op error (short reads are DATA_LOSS), after
  /// draining the whole batch.
  Status FetchBatch(std::span<const FetchOp> ops);

  /// One single-value read in a pipelined batch (kSingleFetch is a
  /// header-reply op, so there is no caller-owned out window to pin).
  struct SingleFetchOp {
    ContainerId cont = 0;
    ObjectId oid;
    std::string dkey;
    std::string akey;
    Epoch epoch = kEpochHead;
  };

  /// Pipelined single-value reads: every request is in flight before any
  /// reply is awaited (DFS readdir uses this to fetch a page of entry
  /// records in one window). Per-op outcomes are independent — a missing
  /// record is that op's NOT_FOUND, not the batch's — so the call itself
  /// only fails on issue-path errors (down engines, encode failures),
  /// after draining whatever was issued.
  Result<std::vector<Result<Buffer>>> FetchSingleBatch(
      std::span<const SingleFetchOp> ops);

  Result<Epoch> UpdateSingle(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey, const std::string& akey,
                             std::span<const std::byte> value);
  Result<Buffer> FetchSingle(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey, const std::string& akey,
                             Epoch epoch = kEpochHead);

  Status PunchObject(ContainerId cont, const ObjectId& oid);
  Status PunchDkey(ContainerId cont, const ObjectId& oid,
                   const std::string& dkey);
  Status PunchAkey(ContainerId cont, const ObjectId& oid,
                   const std::string& dkey, const std::string& akey);

  Result<std::vector<std::string>> ListDkeys(ContainerId cont,
                                             const ObjectId& oid);

  /// One page of an object's dkey enumeration, sorted ascending.
  struct DkeyPage {
    std::vector<std::string> dkeys;
    /// True when dkeys past this page remain; resume with
    /// marker = dkeys.back().
    bool more = false;
  };

  /// Server-side paged enumeration: every engine filters `> marker`,
  /// sorts, and truncates to `limit` before replying, so a million-entry
  /// directory never materializes whole on either side (limit 0 = all).
  Result<DkeyPage> ListDkeysPage(ContainerId cont, const ObjectId& oid,
                                 const std::string& marker,
                                 std::uint32_t limit);
  Result<std::vector<std::string>> ListAkeys(ContainerId cont,
                                             const ObjectId& oid,
                                             const std::string& dkey);
  Result<std::uint64_t> ArraySize(ContainerId cont, const ObjectId& oid,
                                  const std::string& dkey,
                                  const std::string& akey,
                                  Epoch epoch = kEpochHead);
  Status Aggregate(ContainerId cont, const ObjectId& oid,
                   const std::string& dkey, const std::string& akey,
                   Epoch upto);

  /// Control plane: one engine's telemetry snapshot — metrics whose path
  /// starts with `prefix` (empty = all), plus the recent-request trace
  /// ring when `traces`. Engines with telemetry disabled answer with an
  /// empty snapshot.
  Result<telemetry::TelemetrySnapshot> TelemetryQuery(
      std::uint32_t engine_index = 0, const std::string& prefix = {},
      bool traces = false);

  net::Transport transport() const { return transport_; }
  std::uint32_t pool_targets() const { return pool_targets_; }
  net::Qp* qp() const {
    return engines_.empty() ? nullptr : engines_[0].rpc->qp();
  }

 private:
  struct EngineConn {
    std::unique_ptr<rpc::RpcClient> rpc;
  };

  /// How Submit places one object call on the replica ring.
  enum class Route : std::uint8_t {
    /// Every replica copy of (oid, dkey), with the degraded semantics in
    /// the header comment; the first landed copy's reply is the call's.
    kWriteAll,
    /// One replica, picked by ReadEngine.
    kRead,
  };

  /// One (oid, dkey)-routed object RPC. The constructor encodes the object
  /// address into `header`; each op appends its own fields. `oid` and
  /// `dkey` must outlive the Submit that carries the call.
  struct ObjCall {
    ObjCall(DaosOpcode opcode, Route route, ContainerId cont,
            const ObjectId& oid, const std::string& dkey,
            const std::string& akey, Epoch epoch = kEpochHead);
    DaosOpcode opcode;
    Route route;
    ContainerId cont;
    const ObjectId* oid;
    const std::string* dkey;
    Epoch epoch;  ///< kRead: a snapshot (non-HEAD) read pins to the primary
    rpc::Encoder header;
    rpc::CallOptions options;
  };

  DaosClient() = default;

  /// The one submission primitive for object calls. Issues every call
  /// (every writable replica copy of a kWriteAll call) before awaiting any
  /// reply, then awaits them all; replies[i] receives calls[i]'s outcome.
  /// A hard issue error (read engine selection, window stall, encode
  /// overflow) stops issuing: everything already sent is drained, the
  /// calls from the failed one on get the error as their reply, and it is
  /// returned.
  Status Submit(std::span<const ObjCall> calls,
                std::span<Result<rpc::RpcReply>> replies);
  /// Submit of a batch of one.
  Result<rpc::RpcReply> SubmitOne(const ObjCall& call);

  Status Punch(ContainerId cont, const ObjectId& oid, const std::string& dkey,
               const std::string& akey, PunchScope scope);

  /// Primary engine index for (oid, dkey); replica i lives at
  /// (primary + i) % engines. Delegates to placement.h's PlaceEngine so
  /// the rebuild task computes identical replica sets.
  std::uint32_t PrimaryEngine(const ObjectId& oid,
                              const std::string& dkey) const;
  /// The r-th replica engine on the ring starting at `primary`.
  std::uint32_t ReplicaEngine(std::uint32_t primary, std::uint32_t r) const {
    return (primary + r) % std::uint32_t(engines_.size());
  }
  /// Read replica selection: a snapshot read pins to the primary (epochs
  /// are stamped per engine) and is UNAVAILABLE unless it is UP; a HEAD
  /// read takes the first UP replica.
  Result<std::uint32_t> ReadEngine(const ObjectId& oid,
                                   const std::string& dkey,
                                   Epoch epoch) const;
  /// Unary call against a specific engine. Headers travel as the Encoder
  /// that built them so the RPC layer can refuse overflowed encodes.
  Result<rpc::RpcReply> Call(std::uint32_t engine, std::uint32_t opcode,
                             const rpc::Encoder& header,
                             const rpc::CallOptions& options = {});
  /// Broadcast to every engine (container/namespace metadata). Strict: a
  /// DOWN engine fails the broadcast — metadata has no degraded mode.
  Result<rpc::RpcReply> CallAll(std::uint32_t opcode,
                                const rpc::Encoder& header);

  std::vector<EngineConn> engines_;
  net::Transport transport_ = net::Transport::kRdma;
  std::uint32_t pool_targets_ = 0;
  std::uint32_t replicas_ = 1;
  /// Shared map (options.pool_map) or owned_map_.get().
  PoolMap* map_ = nullptr;
  std::unique_ptr<PoolMap> owned_map_;
};

}  // namespace ros2::daos
