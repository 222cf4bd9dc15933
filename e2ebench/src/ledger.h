// The per-layer ledger: counters read from outside the program (engine
// and dfs/* telemetry trees, client counters, device byte counts, both
// endpoints' MR caches and traffic) and the metrics derived from their
// deltas and from the per-layer replay timings.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ros2_client.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "workloads.h"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Monotonic counts the ledger differences. Histogram figures are split
/// into sample sums (seconds) and sample counts so deltas stay exact.
enum Count : int {
  kControlCalls,
  kStagingBytes,
  kCryptoBytes,
  kLookupHits,
  kLookupMisses,
  kLookupEvictions,
  kChunkOps,
  kIoBatches,
  kRequests,
  kBulkBytes,
  kDoorbells,
  kDrains,
  kFetchQueueS,
  kFetchQueueN,
  kFetchExecS,
  kFetchExecN,
  kUpdateExecS,
  kUpdateExecN,
  kSingleExecS,
  kSingleExecN,
  kDataRpcTotalS,  ///< obj_fetch + obj_update decode-to-reply time
  kInlineBytes,    ///< two-sided bytes sent by either endpoint
  kOneSidedBytes,
  kClientMrHits,
  kClientMrMisses,
  kEngineMrHits,
  kEngineMrMisses,
  kSchedBusyNs,
  kNvmeRead,
  kNvmeWritten,
  kVosRecords,  ///< a level, not a count: its delta is records added
  kCountMax,
};

struct Counters {
  std::array<double, kCountMax> v{};

  double operator[](Count c) const { return v[c]; }
  double& operator[](Count c) { return v[c]; }
  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};

/// Reads every counter the ledger uses. Attaches the client's dfs/*
/// counters to a tree it owns, so it must not outlive the client.
class Probe {
 public:
  Probe(ros2::core::Ros2Cluster* cluster, ros2::core::Ros2Client* client,
        const std::string& client_address);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  Counters Take() const;
  /// Deepest any engine target queue has been since the engine started.
  double QueueHighWater() const;

 private:
  ros2::core::Ros2Cluster* cluster_;
  ros2::core::Ros2Client* client_;
  ros2::net::Endpoint* client_ep_ = nullptr;
  ros2::telemetry::Telemetry dfs_tree_;
};

/// Sum of the vos/target/*/bytes_in_{scm,nvme} gauges.
std::uint64_t StoredBytes(const ros2::telemetry::TelemetrySnapshot& engine);

/// The traced run's measurements: the same op stream through the
/// application entry point untraced and traced, and replayed at the DFS,
/// DaosClient and VOS entry points.
struct LedgerInputs {
  const Tally* untraced = nullptr;
  const Tally* traced = nullptr;
  const Tally* dfs = nullptr;
  const Tally* client = nullptr;
  const Tally* vos = nullptr;
  Counters traced_delta;  ///< counter movement inside the traced phase
  Counters client_delta;  ///< ... inside the DaosClient replay
  Counters lifetime;      ///< absolute counters at the end of the run
  double queue_high_water = 0;
};

/// Every per-layer metric, in a fixed order.
std::vector<Metric> LedgerMetrics(const LedgerInputs& in);

}  // namespace e2ebench
