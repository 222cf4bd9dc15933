// Wall-clock throughput of the RPC data path itself, in two experiments.
//
// micro_rpc_data_path: calls per real second (4 KiB send + 4 KiB recv
// windows, registration-dominated) and bulk GiB per real second (1 MiB
// fetch-shaped windows, data-movement-dominated) over both transports —
// with the RDMA path measured both POOLED (MrCache leases, the production
// default) and UNPOOLED (per-call ad-hoc registration, what
// RpcClient::Call did before the pool). Registration genuinely pins pages
// (mlock), so the pooled win here is the honest cost the MR cache
// amortizes, not bookkeeping noise.
//
// micro_transport_sweep: what eager (inline copy, TCP-style) vs rendezvous
// (one-sided, RDMA-style) bulk transfer costs in this process at 4 KiB,
// 32 KiB, 256 KiB and 1 MiB, next to a bare one-sided RDMA read and the
// CRC-32C and ChaCha20 rates the data path pays per byte.
//
// The whole report is realtime-tagged: wall-clock rates churn by machine,
// so benchctl keeps this section out of EXPERIMENTS.md and out of the
// default `benchctl diff`; the metrics ride the BENCH JSON aggregate as
// direction-hinted counters (higher is better). The pooled>=2x-unpooled
// ratio check IS gated (bench exit code), because the ratio — unlike the
// absolute rates — is machine-independent.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/registry.h"
#include "common/bytes.h"
#include "common/crc.h"
#include "common/table.h"
#include "common/units.h"
#include "core/chacha20.h"
#include "net/fabric.h"
#include "net/mr_cache.h"
#include "rpc/data_rpc.h"

using namespace ros2;

namespace {

constexpr std::span<const std::byte> kNoHeader{};

struct RpcHarness {
  net::Fabric fabric;
  net::Endpoint* server_ep = nullptr;
  net::Endpoint* client_ep = nullptr;
  net::Qp* qp = nullptr;
  rpc::RpcServer server;
  std::unique_ptr<rpc::RpcClient> client;

  RpcHarness(net::Transport transport, bool pooled) {
    server_ep = *fabric.CreateEndpoint("fabric://server");
    client_ep = *fabric.CreateEndpoint("fabric://client");
    qp = *client_ep->Connect(server_ep, transport, client_ep->AllocPd(),
                             server_ep->AllocPd());
    client = std::make_unique<rpc::RpcClient>(
        qp, client_ep, [this] { (void)server.Progress(qp->peer()); });
    client->set_mr_pooling(pooled);
    // Fetch/update-shaped echo: pull whatever the client sent, fill
    // whatever window it exposed.
    server.Register(1, [](const Buffer&, rpc::BulkIo& bulk)
                           -> Result<Buffer> {
      if (bulk.in_size() > 0) {
        Buffer data(bulk.in_size());
        ROS2_RETURN_IF_ERROR(bulk.Pull(data));
      }
      if (bulk.out_capacity() > 0) {
        Buffer reply(bulk.out_capacity(), std::byte(0x5A));
        ROS2_RETURN_IF_ERROR(bulk.Push(reply));
      }
      return Buffer{};
    });
  }
};

struct Workload {
  const char* mr;  // "pooled" | "unpooled" | "inline" (TCP has no MRs)
  net::Transport transport;
  bool pooled;
};

constexpr Workload kWorkloads[] = {
    {"pooled", net::Transport::kRdma, true},
    {"unpooled", net::Transport::kRdma, false},
    {"inline", net::Transport::kTcp, true},
};

/// Best-of-N calls-per-second with `send` + `recv` bulk windows of
/// `bulk_size` bytes each. Fresh harness per repetition (the best run is
/// the least-preempted one); `*all_ok` accumulates call success.
double BestCallRate(const Workload& w, std::uint64_t bulk_size,
                    std::uint64_t calls, int repetitions, bool* all_ok,
                    std::uint64_t* pool_hits) {
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    RpcHarness h(w.transport, w.pooled);
    Buffer payload = MakePatternBuffer(bulk_size, 1);
    Buffer window(bulk_size);
    rpc::CallOptions options;
    options.send_bulk = payload;
    options.recv_bulk = window;
    *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();  // warm
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) {
      *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds > 0.0) best = std::max(best, double(calls) / seconds);
    *pool_hits = h.client_ep->mr_cache().hits();
  }
  return best;
}

/// Best-of-N bulk bandwidth: fetch-shaped calls filling a `bulk_size`
/// recv window.
double BestBulkRate(const Workload& w, std::uint64_t bulk_size,
                    std::uint64_t calls, int repetitions, bool* all_ok) {
  double best = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    RpcHarness h(w.transport, w.pooled);
    Buffer window(bulk_size);
    rpc::CallOptions options;
    options.recv_bulk = window;
    *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();  // warm
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) {
      *all_ok = *all_ok && h.client->Call(1, kNoHeader, options).ok();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds > 0.0) {
      best = std::max(best, double(calls * bulk_size) / seconds);
    }
  }
  return best;
}

enum class SweepOp {
  kBulkFetch,
  kBulkUpdate,
  kOneSidedRead,
  kCrc32c,
  kChaCha20,
};

struct SweepSeries {
  const char* op;
  SweepOp kind;
  // "tcp" (eager: inline copy) or "rdma" (rendezvous: one-sided); "none"
  // for the CPU-only byte kernels.
  const char* transport;
  // Rough expected rate on one core. It only sizes the fixed iteration
  // count, so every series runs for about the same wall-clock window.
  double nominal_gib_per_sec;
};

constexpr SweepSeries kSweepSeries[] = {
    {"bulk_fetch", SweepOp::kBulkFetch, "tcp", 0.5},
    {"bulk_fetch", SweepOp::kBulkFetch, "rdma", 8},
    {"bulk_update", SweepOp::kBulkUpdate, "tcp", 2},
    {"bulk_update", SweepOp::kBulkUpdate, "rdma", 8},
    {"one_sided_read", SweepOp::kOneSidedRead, "rdma", 16},
    {"crc32c", SweepOp::kCrc32c, "none", 5},
    {"chacha20", SweepOp::kChaCha20, "none", 0.125},
};

constexpr std::uint64_t kSweepSizes[] = {4 * kKiB, 32 * kKiB, 256 * kKiB,
                                         kMiB};

/// Bytes per wall-clock second over `iterations` back-to-back `op()`
/// calls on `size`-byte buffers, after one untimed warm-up call. Every
/// call runs even after a failure; `*all_ok` records whether all passed.
template <typename Op>
double SweepRate(std::uint64_t size, std::uint64_t iterations, bool* all_ok,
                 Op op) {
  bool ok = op();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) ok = op() && ok;
  const auto stop = std::chrono::steady_clock::now();
  *all_ok = *all_ok && ok;
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return seconds > 0.0 ? double(iterations * size) / seconds : 0.0;
}

double MeasureSweep(const SweepSeries& s, std::uint64_t size,
                    std::uint64_t iterations, bool* all_ok) {
  const net::Transport wire = std::string_view(s.transport) == "tcp"
                                  ? net::Transport::kTcp
                                  : net::Transport::kRdma;
  switch (s.kind) {
    case SweepOp::kBulkFetch:
    case SweepOp::kBulkUpdate: {
      RpcHarness h(wire, /*pooled=*/true);
      const bool fetch = s.kind == SweepOp::kBulkFetch;
      Buffer bulk = fetch ? Buffer(size) : MakePatternBuffer(size, 1);
      rpc::CallOptions options;
      if (fetch) {
        options.recv_bulk = bulk;
      } else {
        options.send_bulk = bulk;
      }
      return SweepRate(size, iterations, all_ok, [&] {
        return h.client->Call(1, kNoHeader, options).ok();
      });
    }
    case SweepOp::kOneSidedRead: {
      RpcHarness h(wire, /*pooled=*/true);
      Buffer remote = MakePatternBuffer(size, 2);
      // Registered under the connection's PD so the capability check
      // passes.
      auto mr = h.server_ep->RegisterMemory(h.qp->peer()->local_pd(), remote,
                                            net::kRemoteRead);
      if (!mr.ok()) {
        *all_ok = false;
        return 0.0;
      }
      Buffer local(size);
      return SweepRate(size, iterations, all_ok, [&] {
        return h.qp->RdmaRead(local, mr->addr, mr->rkey).ok();
      });
    }
    case SweepOp::kCrc32c: {
      Buffer data = MakePatternBuffer(size, 3);
      const std::uint32_t expected = Crc32c(data);
      return SweepRate(size, iterations, all_ok,
                       [&] { return Crc32c(data) == expected; });
    }
    case SweepOp::kChaCha20: {
      core::ChaChaKey key{};
      for (std::size_t i = 0; i < key.size(); ++i) key[i] = std::uint8_t(i);
      Buffer data = MakePatternBuffer(size, 4);
      return SweepRate(size, iterations, all_ok, [&] {
        core::ChaCha20Xor(key, 1, 0, data);
        return true;
      });
    }
  }
  return 0.0;
}

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_rpc_data_path,
                      "RPC data-path wall-clock throughput: pooled vs "
                      "unpooled MR registration over TCP and RDMA") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "Calls/s uses 4 KiB send + 4 KiB recv bulk windows (the "
      "registration-dominated regime the MrCache targets); bulk GiB/s "
      "uses 1 MiB fetch-shaped recv windows (data-movement-dominated). "
      "Fresh harness per repetition, best of N. Rates are realtime "
      "counters — compare trajectories per machine, not across machines; "
      "the pooled/unpooled RATIO is machine-independent and gated.");

  // Own scaling (not ctx.ops): its 2000-op floor exists for sim
  // steady-state, but 2000 one-MiB TCP calls per repetition would melt the
  // quick-mode wall clock. Rates stabilize far earlier here.
  const int repetitions = ctx.quick() ? 3 : 9;
  const std::uint64_t call_ops = ctx.quick() ? 2000 : 24000;
  const std::uint64_t bulk_ops = ctx.quick() ? 200 : 2000;
  constexpr std::uint64_t kSmall = 4 * 1024;
  constexpr std::uint64_t kLarge = kMiB;

  AsciiTable table({"transport", "mr", "calls/s (4 KiB)", "bulk (1 MiB)"});
  bool all_ok = true;
  double pooled_rdma_rate = 0.0;
  double unpooled_rdma_rate = 0.0;
  std::uint64_t pooled_hits = 0;
  for (const Workload& w : kWorkloads) {
    std::uint64_t hits = 0;
    const double call_rate =
        BestCallRate(w, kSmall, call_ops, repetitions, &all_ok, &hits);
    const double bulk_rate =
        BestBulkRate(w, kLarge, bulk_ops, repetitions, &all_ok);
    if (w.transport == net::Transport::kRdma) {
      (w.pooled ? pooled_rdma_rate : unpooled_rdma_rate) = call_rate;
      if (w.pooled) pooled_hits = hits;
    }
    const std::string transport(perf::TransportName(w.transport));
    table.AddRow({transport, w.mr, FormatCount(call_rate) + "calls/s",
                  FormatBandwidth(bulk_rate)});
    ctx.Metric("rpc_calls_per_sec", "calls_per_sec", call_rate,
               {{"transport", transport}, {"mr", w.mr}},
               bench::MetricDirection::kHigherIsBetter);
    ctx.Metric("rpc_bulk_bytes_per_sec", "bytes_per_sec", bulk_rate,
               {{"transport", transport}, {"mr", w.mr}},
               bench::MetricDirection::kHigherIsBetter);
  }
  ctx.Check("every timed call succeeded", all_ok);
  ctx.Check("pooled RDMA converges to cache hits (2 per call)",
            pooled_hits >= 2 * call_ops);
  // The point of the pool: amortizing page-pin registration must be worth
  // >= 2x on registration-dominated calls. The ratio is machine-portable
  // even though the absolute rates are not.
  ctx.Check("pooled-MR RDMA calls/s >= 2x unpooled",
            pooled_rdma_rate >= 2.0 * unpooled_rdma_rate);
  ctx.Metric("rpc_pooled_speedup", "ratio",
             unpooled_rdma_rate > 0.0
                 ? pooled_rdma_rate / unpooled_rdma_rate
                 : 0.0,
             {{"transport", "rdma"}},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Table("RPC data-path throughput (wall clock)", table);
}

ROS2_BENCH_EXPERIMENT(micro_transport_sweep,
                      "Transport sweep: TCP eager vs RDMA rendezvous bulk "
                      "fetch/update, one-sided read, CRC-32C and ChaCha20, "
                      "4 KiB to 1 MiB") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "Bytes per wall-clock second of back-to-back calls in one process "
      "(pooled MRs on RDMA), one untimed warm-up call per series. Each "
      "series runs a fixed iteration count sized from a nominal rate to "
      "about 0.02 s (quick) or 0.5 s (full). Realtime counters: compare "
      "per machine, not across machines.");

  const double window_seconds = ctx.quick() ? 0.02 : 0.5;
  AsciiTable table({"op", "transport", "4 KiB", "32 KiB", "256 KiB",
                    "1 MiB"});
  bool all_ok = true;
  for (const SweepSeries& s : kSweepSeries) {
    std::vector<std::string> row = {s.op, s.transport};
    for (const std::uint64_t size : kSweepSizes) {
      const std::uint64_t iterations = std::max<std::uint64_t>(
          1, std::uint64_t(window_seconds * s.nominal_gib_per_sec *
                           double(kGiB) / double(size)));
      const double rate = MeasureSweep(s, size, iterations, &all_ok);
      row.push_back(FormatBandwidth(rate));
      ctx.Metric("transport_sweep_rate", "bytes_per_sec", rate,
                 {{"op", s.op},
                  {"transport", s.transport},
                  {"size", std::to_string(size)}},
                 bench::MetricDirection::kHigherIsBetter);
    }
    table.AddRow(row);
  }
  ctx.Check("every timed call succeeded", all_ok);
  ctx.Table("Transport sweep (wall clock)", table);
}

ROS2_BENCH_MAIN()
