#include "daos/client.h"

#include <memory_resource>
#include <set>

#include "daos/placement.h"
#include "rpc/wire.h"

namespace ros2::daos {
namespace {

void EncodeObjAddr(rpc::Encoder& enc, ContainerId cont, const ObjectId& oid,
                   const std::string& dkey, const std::string& akey) {
  enc.U64(cont).U64(oid.hi).U64(oid.lo).Str(dkey).Str(akey);
}

Result<std::vector<std::string>> DecodeStringList(const Buffer& raw) {
  rpc::Decoder dec(raw);
  ROS2_ASSIGN_OR_RETURN(std::uint32_t count, dec.U32());
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ROS2_ASSIGN_OR_RETURN(std::string s, dec.Str());
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- connect

Result<std::unique_ptr<DaosClient>> DaosClient::Connect(
    net::Fabric* fabric, DaosEngine* engine, const ConnectOptions& options) {
  DaosEngine* engines[] = {engine};
  return Connect(fabric, engines, options);
}

Result<std::unique_ptr<DaosClient>> DaosClient::Connect(
    net::Fabric* fabric, std::span<DaosEngine* const> engines,
    const ConnectOptions& options) {
  if (engines.empty()) return Status(InvalidArgument("no engines"));
  if (options.replicas == 0 || options.replicas > engines.size()) {
    return Status(InvalidArgument("replicas must be in [1, engines]"));
  }
  ROS2_ASSIGN_OR_RETURN(net::Endpoint * client_ep,
                        fabric->CreateEndpoint(options.client_address));
  const net::PdId pd = client_ep->AllocPd(options.tenant);

  auto client = std::unique_ptr<DaosClient>(new DaosClient());
  client->transport_ = options.transport;
  client->replicas_ = options.replicas;
  if (options.pool_map != nullptr) {
    if (options.pool_map->engine_count() != engines.size()) {
      return Status(InvalidArgument(
          "pool map engine count does not match the engine list"));
    }
    client->map_ = options.pool_map;
  } else {
    client->owned_map_ =
        std::make_unique<PoolMap>(std::uint32_t(engines.size()));
    client->map_ = client->owned_map_.get();
  }

  for (DaosEngine* engine : engines) {
    EngineConn conn;
    ROS2_ASSIGN_OR_RETURN(conn.rpc, DialEngine(client_ep, engine,
                                               options.transport, pd));
    client->engines_.push_back(std::move(conn));
  }

  // Authenticate against every engine's pool service before handing the
  // client out; target counts must agree (one homogeneous pool).
  for (std::uint32_t e = 0; e < client->engines_.size(); ++e) {
    rpc::Encoder enc;
    enc.Str(options.pool_label).Str(options.access_token);
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        client->Call(e, std::uint32_t(DaosOpcode::kPoolConnect),
                     enc));
    rpc::Decoder dec(reply.header);
    ROS2_RETURN_IF_ERROR(dec.U64().status());  // pool id
    ROS2_ASSIGN_OR_RETURN(std::uint32_t targets, dec.U32());
    if (e == 0) {
      client->pool_targets_ = targets;
    } else if (targets != client->pool_targets_) {
      return Status(FailedPrecondition(
          "engines disagree on target count; not one pool"));
    }
  }
  return client;
}

Status DaosClient::SetEngineDown(std::uint32_t engine_index, bool down) {
  if (engine_index >= engines_.size()) {
    return InvalidArgument("no such engine");
  }
  return map_->SetState(engine_index,
                        down ? EngineState::kDown : EngineState::kUp);
}

// -------------------------------------------------------------- routing

std::uint32_t DaosClient::PrimaryEngine(const ObjectId& oid,
                                        const std::string& dkey) const {
  // Level 1 of placement: dkeys spread over engines (level 2, inside the
  // engine, spreads over its targets).
  return PlaceEngine(oid, dkey, std::uint32_t(engines_.size()));
}

Result<std::uint32_t> DaosClient::ReadEngine(const ObjectId& oid,
                                             const std::string& dkey,
                                             Epoch epoch) const {
  const std::uint32_t primary = PrimaryEngine(oid, dkey);
  if (epoch != kEpochHead) {
    if (map_->readable(primary)) return primary;
    return Status(Unavailable(
        "engine " + std::to_string(primary) + " is " +
        EngineStateName(map_->state(primary)) + " (pool map v" +
        std::to_string(map_->version()) + ")"));
  }
  for (std::uint32_t r = 0; r < replicas_; ++r) {
    const std::uint32_t e = ReplicaEngine(primary, r);
    if (map_->readable(e)) return e;
  }
  return Status(
      Unavailable("no UP replica of this dkey (pool map v" +
                  std::to_string(map_->version()) + ")"));
}

Result<rpc::RpcReply> DaosClient::Call(std::uint32_t engine,
                                       std::uint32_t opcode,
                                       const rpc::Encoder& header,
                                       const rpc::CallOptions& options) {
  if (map_->state(engine) == EngineState::kDown) {
    return Status(Unavailable("engine " + std::to_string(engine) +
                              " is down"));
  }
  return engines_[engine].rpc->Call(opcode, header, options);
}

Result<telemetry::TelemetrySnapshot> DaosClient::TelemetryQuery(
    std::uint32_t engine_index, const std::string& prefix, bool traces) {
  if (engine_index >= engines_.size()) {
    return Status(InvalidArgument("no such engine"));
  }
  rpc::Encoder enc;
  enc.U8(traces ? kTelemetryQueryTraces : 0).Str(prefix);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      Call(engine_index, std::uint32_t(DaosOpcode::kTelemetryQuery), enc));
  rpc::Decoder dec(reply.header);
  return telemetry::TelemetrySnapshot::DecodeFrom(dec);
}

Result<rpc::RpcReply> DaosClient::CallAll(std::uint32_t opcode,
                                          const rpc::Encoder& header) {
  Result<rpc::RpcReply> first = Status(Internal("no engines"));
  for (std::uint32_t e = 0; e < engines_.size(); ++e) {
    auto reply = Call(e, opcode, header);
    if (!reply.ok()) return reply;
    if (e == 0) {
      first = std::move(reply);
    } else if (reply->header != first->header) {
      return Status(Internal("engines returned divergent metadata"));
    }
  }
  return first;
}

// ----------------------------------------------------------- submission

DaosClient::ObjCall::ObjCall(DaosOpcode opcode, Route route, ContainerId cont,
                             const ObjectId& oid, const std::string& dkey,
                             const std::string& akey, Epoch epoch)
    : opcode(opcode),
      route(route),
      cont(cont),
      oid(&oid),
      dkey(&dkey),
      epoch(epoch) {
  EncodeObjAddr(header, cont, oid, dkey, akey);
}

Status DaosClient::Submit(std::span<const ObjCall> calls,
                          std::span<Result<rpc::RpcReply>> replies) {
  struct Issued {
    std::size_t call = 0;
    std::uint32_t engine = 0;
    rpc::RpcClient::CallId id = 0;
    bool rebuilding = false;  // landed copies are journaled too
  };
  // The copies of a small batch (every single op) are tracked on the stack.
  alignas(Issued) std::byte arena[8 * sizeof(Issued)];
  std::pmr::monotonic_buffer_resource pool(arena, sizeof(arena));
  std::pmr::vector<Issued> issued(&pool);
  std::size_t slots = 0;
  for (const ObjCall& call : calls) {
    slots += call.route == Route::kRead ? 1 : replicas_;
  }
  issued.reserve(slots);
  auto journal = [this](std::uint32_t engine, const ObjCall& call) {
    map_->journal().Record(engine,
                           ResyncEntry{call.cont, *call.oid, *call.dkey});
  };

  // Issue phase. The RPC layer's in-flight window applies backpressure by
  // pumping progress, so arbitrarily large batches stream through bounded
  // client state.
  Status hard = Status::Ok();
  std::size_t stopped = calls.size();
  for (std::size_t i = 0; i < calls.size() && hard.ok(); ++i) {
    const ObjCall& call = calls[i];
    const auto opcode = std::uint32_t(call.opcode);
    if (call.route == Route::kRead) {
      auto engine = ReadEngine(*call.oid, *call.dkey, call.epoch);
      if (!engine.ok()) {
        hard = engine.status();
      } else if (auto id = engines_[*engine].rpc->CallAsync(
                     opcode, call.header, call.options);
                 id.ok()) {
        issued.push_back({i, *engine, *id, false});
      } else {
        hard = id.status();
      }
    } else {
      // Degraded write-all. There is deliberately NO up-front
      // all-replicas check (one raced concurrent down-transitions): the
      // per-send outcome is authoritative. A DOWN replica, a send that
      // fails UNAVAILABLE, or an UNAVAILABLE reply all become resync-
      // journal entries instead of failing the op.
      const std::uint32_t primary = PrimaryEngine(*call.oid, *call.dkey);
      for (std::uint32_t r = 0; r < replicas_ && hard.ok(); ++r) {
        const std::uint32_t e = ReplicaEngine(primary, r);
        const EngineState st = map_->state(e);
        if (st == EngineState::kDown) {
          journal(e, call);
          continue;
        }
        auto id = engines_[e].rpc->CallAsync(opcode, call.header,
                                             call.options);
        if (id.ok()) {
          issued.push_back({i, e, *id, st == EngineState::kRebuilding});
        } else if (id.status().code() == ErrorCode::kUnavailable) {
          journal(e, call);  // raced the down-transition
        } else {
          hard = id.status();  // not a health event
        }
      }
    }
    if (!hard.ok()) stopped = i;
  }

  // Await phase: drain everything that went out, even past a failure; a
  // stranded call would keep its bulk windows leased.
  std::size_t next = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const ObjCall& call = calls[i];
    std::uint32_t landed = 0;
    Status failed = Status::Ok();
    for (; next < issued.size() && issued[next].call == i; ++next) {
      const Issued& copy = issued[next];
      auto reply = engines_[copy.engine].rpc->Await(copy.id);
      if (call.route == Route::kRead) {
        replies[i] = std::move(reply);
      } else if (reply.ok()) {
        // A copy that landed on a REBUILDING engine may still be
        // overwritten by an in-flight rebuild pass importing older
        // survivor state at a higher epoch: journal it so the rebuild's
        // journal-drain loop re-silvers survivor HEAD (which includes
        // this completed write).
        if (copy.rebuilding) journal(copy.engine, call);
        if (++landed == 1) replies[i] = std::move(reply);
      } else if (reply.status().code() == ErrorCode::kUnavailable) {
        journal(copy.engine, call);
      } else if (failed.ok()) {
        failed = reply.status();
      }
    }
    if (i >= stopped) {
      replies[i] = hard;
      continue;
    }
    if (call.route == Route::kRead || (failed.ok() && landed > 0)) continue;
    const std::string copies = std::to_string(landed) + "/" +
                               std::to_string(replicas_) +
                               " replica copies landed";
    if (!failed.ok()) {
      replies[i] = Status(failed.code(), failed.message() +
                                             " (replica copy failed; " +
                                             copies + ")");
    } else {
      replies[i] = Status(Unavailable(
          "no writable replica: " + copies + " (pool map v" +
          std::to_string(map_->version()) + ")"));
    }
  }
  return hard;
}

Result<rpc::RpcReply> DaosClient::SubmitOne(const ObjCall& call) {
  Result<rpc::RpcReply> reply = Status(Internal("not submitted"));
  ROS2_RETURN_IF_ERROR(Submit({&call, 1}, {&reply, 1}));
  return reply;
}

// ------------------------------------------------------------ containers

Result<ContainerId> DaosClient::ContainerCreate(const std::string& label) {
  rpc::Encoder enc;
  enc.Str(label);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      CallAll(std::uint32_t(DaosOpcode::kContCreate), enc));
  rpc::Decoder dec(reply.header);
  return dec.U64();
}

Result<ContainerId> DaosClient::ContainerOpen(const std::string& label) {
  rpc::Encoder enc;
  enc.Str(label);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      CallAll(std::uint32_t(DaosOpcode::kContOpen), enc));
  rpc::Decoder dec(reply.header);
  return dec.U64();
}

Result<ObjectId> DaosClient::AllocOid(ContainerId cont) {
  // Oids are allocated by engine 0 (the "pool service" in this model);
  // the id only namespaces keys, so other engines never need the counter.
  rpc::Encoder enc;
  enc.U64(cont);
  ROS2_ASSIGN_OR_RETURN(
      rpc::RpcReply reply,
      Call(0, std::uint32_t(DaosOpcode::kOidAlloc), enc));
  rpc::Decoder dec(reply.header);
  ObjectId oid;
  ROS2_ASSIGN_OR_RETURN(oid.hi, dec.U64());
  ROS2_ASSIGN_OR_RETURN(oid.lo, dec.U64());
  return oid;
}

// --------------------------------------------------------------- arrays

Result<Epoch> DaosClient::Update(ContainerId cont, const ObjectId& oid,
                                 const std::string& dkey,
                                 const std::string& akey,
                                 std::uint64_t offset,
                                 std::span<const std::byte> data) {
  const UpdateOp op{cont, oid, dkey, akey, offset, data};
  ROS2_ASSIGN_OR_RETURN(std::vector<Epoch> epochs, UpdateBatch({&op, 1}));
  return epochs[0];
}

Status DaosClient::Fetch(ContainerId cont, const ObjectId& oid,
                         const std::string& dkey, const std::string& akey,
                         std::uint64_t offset, std::span<std::byte> out,
                         Epoch epoch) {
  const FetchOp op{cont, oid, dkey, akey, offset, out, epoch};
  return FetchBatch({&op, 1});
}

// -------------------------------------------------------------- batches

Result<std::vector<Epoch>> DaosClient::UpdateBatch(
    std::span<const UpdateOp> ops) {
  std::vector<ObjCall> calls;
  calls.reserve(ops.size());
  for (const UpdateOp& op : ops) {
    ObjCall& call = calls.emplace_back(DaosOpcode::kObjUpdate,
                                       Route::kWriteAll, op.cont, op.oid,
                                       op.dkey, op.akey);
    call.header.U64(op.offset);
    call.options.send_bulk = op.data;
  }
  std::vector<Result<rpc::RpcReply>> replies(
      ops.size(), Status(Internal("not submitted")));
  ROS2_RETURN_IF_ERROR(Submit(calls, replies));
  std::vector<Epoch> epochs;
  epochs.reserve(ops.size());
  for (const Result<rpc::RpcReply>& reply : replies) {
    ROS2_RETURN_IF_ERROR(reply.status());
    rpc::Decoder dec(reply->header);
    ROS2_ASSIGN_OR_RETURN(Epoch epoch, dec.U64());
    epochs.push_back(epoch);
  }
  return epochs;
}

Status DaosClient::FetchBatch(std::span<const FetchOp> ops) {
  std::vector<ObjCall> calls;
  calls.reserve(ops.size());
  for (const FetchOp& op : ops) {
    ObjCall& call =
        calls.emplace_back(DaosOpcode::kObjFetch, Route::kRead, op.cont,
                           op.oid, op.dkey, op.akey, op.epoch);
    call.header.U64(op.offset).U64(op.out.size()).U64(op.epoch);
    call.options.recv_bulk = op.out;
  }
  std::vector<Result<rpc::RpcReply>> replies(
      ops.size(), Status(Internal("not submitted")));
  ROS2_RETURN_IF_ERROR(Submit(calls, replies));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ROS2_RETURN_IF_ERROR(replies[i].status());
    if (replies[i]->bulk_received != ops[i].out.size()) {
      return DataLoss("short DAOS fetch");
    }
  }
  return Status::Ok();
}

Result<std::vector<Result<Buffer>>> DaosClient::FetchSingleBatch(
    std::span<const SingleFetchOp> ops) {
  std::vector<ObjCall> calls;
  calls.reserve(ops.size());
  for (const SingleFetchOp& op : ops) {
    calls.emplace_back(DaosOpcode::kSingleFetch, Route::kRead, op.cont,
                       op.oid, op.dkey, op.akey, op.epoch)
        .header.U64(op.epoch);
  }
  std::vector<Result<rpc::RpcReply>> replies(
      ops.size(), Status(Internal("not submitted")));
  ROS2_RETURN_IF_ERROR(Submit(calls, replies));
  // Per-op outcomes: a missing record is data, not a batch failure;
  // readdir skips punched entries by looking at each op's status.
  std::vector<Result<Buffer>> out;
  out.reserve(ops.size());
  for (const Result<rpc::RpcReply>& reply : replies) {
    if (!reply.ok()) {
      out.push_back(reply.status());
      continue;
    }
    rpc::Decoder dec(reply->header);
    out.push_back(dec.Bytes());
  }
  return out;
}

// -------------------------------------------------------------- singles

Result<Epoch> DaosClient::UpdateSingle(ContainerId cont, const ObjectId& oid,
                                       const std::string& dkey,
                                       const std::string& akey,
                                       std::span<const std::byte> value) {
  ObjCall call(DaosOpcode::kSingleUpdate, Route::kWriteAll, cont, oid, dkey,
               akey);
  call.header.Bytes(value);
  ROS2_ASSIGN_OR_RETURN(rpc::RpcReply reply, SubmitOne(call));
  rpc::Decoder dec(reply.header);
  return dec.U64();
}

Result<Buffer> DaosClient::FetchSingle(ContainerId cont, const ObjectId& oid,
                                       const std::string& dkey,
                                       const std::string& akey, Epoch epoch) {
  const SingleFetchOp op{cont, oid, dkey, akey, epoch};
  ROS2_ASSIGN_OR_RETURN(auto values, FetchSingleBatch({&op, 1}));
  return std::move(values[0]);
}

// ---------------------------------------------------------------- punch

Status DaosClient::Punch(ContainerId cont, const ObjectId& oid,
                         const std::string& dkey, const std::string& akey,
                         PunchScope scope) {
  if (scope != PunchScope::kObject) {
    ObjCall call(DaosOpcode::kObjPunch, Route::kWriteAll, cont, oid, dkey,
                 akey);
    call.header.U8(std::uint8_t(scope));
    return SubmitOne(call).status();
  }
  rpc::Encoder enc;
  EncodeObjAddr(enc, cont, oid, dkey, akey);
  enc.U8(std::uint8_t(scope));
  // The object's dkeys (and replicas) may live on every engine.
  bool any = false;
  for (std::uint32_t e = 0; e < engines_.size(); ++e) {
    auto reply = Call(e, std::uint32_t(DaosOpcode::kObjPunch),
                      enc);
    if (reply.ok()) {
      any = true;
    } else if (reply.status().code() == ErrorCode::kUnavailable) {
      return reply.status();  // down engine: fail loudly, not silently
    } else if (reply.status().code() != ErrorCode::kNotFound) {
      return reply.status();
    }
  }
  return any ? Status::Ok() : NotFound("no such object");
}

Status DaosClient::PunchObject(ContainerId cont, const ObjectId& oid) {
  return Punch(cont, oid, "", "", PunchScope::kObject);
}
Status DaosClient::PunchDkey(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey) {
  return Punch(cont, oid, dkey, "", PunchScope::kDkey);
}
Status DaosClient::PunchAkey(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey,
                             const std::string& akey) {
  return Punch(cont, oid, dkey, akey, PunchScope::kAkey);
}

// ---------------------------------------------------------- enumeration

Result<std::vector<std::string>> DaosClient::ListDkeys(ContainerId cont,
                                                       const ObjectId& oid) {
  ROS2_ASSIGN_OR_RETURN(DkeyPage page, ListDkeysPage(cont, oid, "", 0));
  return std::move(page.dkeys);
}

Result<DaosClient::DkeyPage> DaosClient::ListDkeysPage(ContainerId cont,
                                                       const ObjectId& oid,
                                                       const std::string& marker,
                                                       std::uint32_t limit) {
  // Dkeys spread across engines; each engine pre-filters (> marker) and
  // pre-truncates to `limit`, so the client merge set holds at most
  // engines * limit entries, never the whole directory.
  rpc::Encoder enc;
  enc.U64(cont).U64(oid.hi).U64(oid.lo).Str(marker).U32(limit);
  std::set<std::string> merged;
  bool any_up = false;
  bool more = false;
  for (std::uint32_t e = 0; e < engines_.size(); ++e) {
    if (!map_->readable(e)) continue;
    any_up = true;
    ROS2_ASSIGN_OR_RETURN(
        rpc::RpcReply reply,
        Call(e, std::uint32_t(DaosOpcode::kListDkeys), enc));
    rpc::Decoder dec(reply.header);
    ROS2_ASSIGN_OR_RETURN(std::uint32_t count, dec.U32());
    for (std::uint32_t i = 0; i < count; ++i) {
      ROS2_ASSIGN_OR_RETURN(std::string dkey, dec.Str());
      merged.insert(std::move(dkey));
    }
    ROS2_ASSIGN_OR_RETURN(std::uint8_t engine_more, dec.U8());
    more = more || engine_more != 0;
  }
  if (!any_up) return Status(Unavailable("all engines are down"));
  DkeyPage page;
  page.dkeys.assign(merged.begin(), merged.end());
  if (limit != 0 && page.dkeys.size() > limit) {
    // The merge across engines can overshoot: dkeys past the cut are
    // still pending even if every engine said "done".
    page.dkeys.resize(limit);
    more = true;
  }
  page.more = more;
  return page;
}

Result<std::vector<std::string>> DaosClient::ListAkeys(
    ContainerId cont, const ObjectId& oid, const std::string& dkey) {
  const ObjCall call(DaosOpcode::kListAkeys, Route::kRead, cont, oid, dkey,
                     "");
  ROS2_ASSIGN_OR_RETURN(rpc::RpcReply reply, SubmitOne(call));
  return DecodeStringList(reply.header);
}

Result<std::uint64_t> DaosClient::ArraySize(ContainerId cont,
                                            const ObjectId& oid,
                                            const std::string& dkey,
                                            const std::string& akey,
                                            Epoch epoch) {
  ObjCall call(DaosOpcode::kArraySize, Route::kRead, cont, oid, dkey, akey,
               epoch);
  call.header.U64(epoch);
  ROS2_ASSIGN_OR_RETURN(rpc::RpcReply reply, SubmitOne(call));
  rpc::Decoder dec(reply.header);
  return dec.U64();
}

Status DaosClient::Aggregate(ContainerId cont, const ObjectId& oid,
                             const std::string& dkey, const std::string& akey,
                             Epoch upto) {
  ObjCall call(DaosOpcode::kAggregate, Route::kWriteAll, cont, oid, dkey,
               akey);
  call.header.U64(upto);
  return SubmitOne(call).status();
}

}  // namespace ros2::daos
