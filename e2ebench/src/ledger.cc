#include "ledger.h"

#include <initializer_list>
#include <string_view>

#include "net/mr_cache.h"

namespace e2ebench {
namespace {

using ros2::telemetry::MetricKind;
using ros2::telemetry::MetricValue;
using ros2::telemetry::TelemetrySnapshot;

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Scalar(const TelemetrySnapshot& s, const std::string& path) {
  const MetricValue* m = s.Find(path);
  if (m == nullptr) return 0;
  return m->kind == MetricKind::kGauge ? double(m->gauge) : double(m->value);
}

/// Sample sum (seconds) and count of one rpc/op/<op>/latency/<stage>.
void ReadHistogram(const TelemetrySnapshot& s, const char* op,
                   const char* stage, double* sum, double* count) {
  const MetricValue* m =
      s.Find(std::string("rpc/op/") + op + "/latency/" + stage);
  *sum = m ? m->sum : 0;
  *count = m ? double(m->count) : 0;
}

/// Sum of the per-target VOS gauges whose path ends in one of `leaves`.
std::uint64_t SumTargets(const TelemetrySnapshot& s,
                         std::initializer_list<std::string_view> leaves) {
  std::uint64_t total = 0;
  for (const MetricValue& m : s.metrics) {
    if (!m.path.starts_with("vos/target/")) continue;
    for (std::string_view leaf : leaves) {
      if (m.path.ends_with(leaf)) total += std::uint64_t(m.gauge);
    }
  }
  return total;
}

double HitRatio(double hits, double misses) {
  return Ratio(hits, hits + misses);
}

double OpsPerSecond(const Tally& t) { return Ratio(double(t.ops), t.wall_s); }

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  for (int i = 0; i < kCountMax; ++i) v[i] += o.v[i];
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  for (int i = 0; i < kCountMax; ++i) d.v[i] -= o.v[i];
  return d;
}

Probe::Probe(ros2::core::Ros2Cluster* cluster, ros2::core::Ros2Client* client,
             const std::string& client_address)
    : cluster_(cluster), client_(client) {
  auto ep = cluster->fabric()->Lookup(client_address);
  if (ep.ok()) client_ep_ = *ep;
  client->dfs()->AttachTelemetry(&dfs_tree_);
}

Counters Probe::Take() const {
  Counters c;
  ros2::daos::DaosEngine* engine = cluster_->engine();
  const TelemetrySnapshot eng = engine->telemetry().Snapshot();
  const TelemetrySnapshot dfs = dfs_tree_.Snapshot();
  const ros2::core::ClientCounters& cc = client_->counters();

  c[kControlCalls] = double(cc.control_calls);
  c[kStagingBytes] = double(cc.staging_bytes);
  c[kCryptoBytes] = double(cc.encrypted_bytes + cc.decrypted_bytes);
  c[kLookupHits] = Scalar(dfs, "dfs/lookup_cache/hits");
  c[kLookupMisses] = Scalar(dfs, "dfs/lookup_cache/misses");
  c[kLookupEvictions] = Scalar(dfs, "dfs/lookup_cache/evictions");
  c[kChunkOps] =
      Scalar(dfs, "dfs/io/chunk_fetches") + Scalar(dfs, "dfs/io/chunk_updates");
  c[kIoBatches] =
      Scalar(dfs, "dfs/io/read_batches") + Scalar(dfs, "dfs/io/write_batches");
  c[kRequests] = Scalar(eng, "rpc/requests_served");
  c[kBulkBytes] =
      Scalar(eng, "rpc/bulk_bytes_in") + Scalar(eng, "rpc/bulk_bytes_out");
  c[kDoorbells] = Scalar(eng, "net/doorbells");
  c[kDrains] = Scalar(eng, "net/drains");
  ReadHistogram(eng, "obj_fetch", "queue", &c[kFetchQueueS], &c[kFetchQueueN]);
  ReadHistogram(eng, "obj_fetch", "exec", &c[kFetchExecS], &c[kFetchExecN]);
  ReadHistogram(eng, "obj_update", "exec", &c[kUpdateExecS], &c[kUpdateExecN]);
  ReadHistogram(eng, "single_fetch", "exec", &c[kSingleExecS],
                &c[kSingleExecN]);
  double fetch_s = 0, update_s = 0, unused = 0;
  ReadHistogram(eng, "obj_fetch", "total", &fetch_s, &unused);
  ReadHistogram(eng, "obj_update", "total", &update_s, &unused);
  c[kDataRpcTotalS] = fetch_s + update_s;

  ros2::net::Endpoint* engine_ep = engine->endpoint();
  const ros2::net::Endpoint::Traffic et = engine_ep->TotalTraffic();
  c[kInlineBytes] = double(et.bytes_sent);
  c[kOneSidedBytes] = double(et.bytes_one_sided);
  c[kEngineMrHits] = double(engine_ep->mr_cache().hits());
  c[kEngineMrMisses] = double(engine_ep->mr_cache().misses());
  if (client_ep_ != nullptr) {
    const ros2::net::Endpoint::Traffic ct = client_ep_->TotalTraffic();
    c[kInlineBytes] += double(ct.bytes_sent);
    c[kOneSidedBytes] += double(ct.bytes_one_sided);
    c[kClientMrHits] = double(client_ep_->mr_cache().hits());
    c[kClientMrMisses] = double(client_ep_->mr_cache().misses());
  }
  c[kSchedBusyNs] = Scalar(eng, "sched/busy_ns");
  for (std::uint32_t i = 0; ros2::storage::NvmeDevice* d = cluster_->device(i);
       ++i) {
    c[kNvmeRead] += double(d->bytes_read());
    c[kNvmeWritten] += double(d->bytes_written());
  }
  c[kVosRecords] = double(SumTargets(eng, {"/scm_records", "/nvme_records"}));
  return c;
}

double Probe::QueueHighWater() const {
  return Scalar(cluster_->engine()->telemetry().Snapshot("sched/"),
                "sched/queue_high_water");
}

std::uint64_t StoredBytes(const TelemetrySnapshot& engine) {
  return SumTargets(engine, {"/bytes_in_scm", "/bytes_in_nvme"});
}

std::vector<Metric> LedgerMetrics(const LedgerInputs& in) {
  const Tally& u = *in.untraced;
  const Tally& t = *in.traced;
  const Tally& c = *in.client;
  const Counters& d = in.traced_delta;
  const double ops = double(t.ops);
  const double bytes = double(t.read_bytes + t.write_bytes);
  auto per_op = [&](Count k) { return Ratio(d[k], ops); };
  auto per_byte = [&](Count k) { return Ratio(d[k], bytes); };
  // Mean of one RPC latency stage over the traced phase; over the engine's
  // whole life (setup included) when the phase sent no such request, so
  // no time reads as a structural zero.
  auto mean_us = [&](Count sum, Count n) {
    const Counters& c = d[n] > 0 ? d : in.lifetime;
    return Ratio(c[sum], c[n]) * 1e6;
  };

  // Server-side time of the DaosClient replay's data RPCs (the only RPCs
  // its ops send), per op.
  const double server_us =
      Ratio(in.client_delta[kDataRpcTotalS], double(c.ops)) * 1e6;
  const double core_self = t.op_us() - in.dfs->op_us();
  const double dfs_self = in.dfs->op_us() - c.op_us();
  const double client_self = c.op_us() - server_us;
  const double server_self = server_us - in.vos->op_us();
  const double vos_self = in.vos->op_us();
  const double layer_sum =
      core_self + dfs_self + client_self + server_self + vos_self;
  const double e2e_us = u.op_us();
  const double u_rate = OpsPerSecond(u);
  const double t_rate = OpsPerSecond(t);

  return {
      {"core.self_us", core_self, "us"},
      {"core.control_calls_per_op", per_op(kControlCalls), "1/op"},
      {"core.staging_bytes_per_byte", per_byte(kStagingBytes), "B/B"},
      {"core.crypto_bytes_per_byte", per_byte(kCryptoBytes), "B/B"},
      {"dfs.self_us", dfs_self, "us"},
      {"dfs.lookup_hit_ratio", HitRatio(d[kLookupHits], d[kLookupMisses]),
       "ratio"},
      {"dfs.lookup_evictions_per_op", per_op(kLookupEvictions), "1/op"},
      {"dfs.chunk_ops_per_op", per_op(kChunkOps), "1/op"},
      {"dfs.batches_per_op", per_op(kIoBatches), "1/op"},
      {"client.self_us", client_self, "us"},
      {"rpc.requests_per_op", per_op(kRequests), "1/op"},
      {"rpc.obj_fetch.queue_us", mean_us(kFetchQueueS, kFetchQueueN), "us"},
      {"rpc.obj_fetch.exec_us", mean_us(kFetchExecS, kFetchExecN), "us"},
      {"rpc.obj_update.exec_us", mean_us(kUpdateExecS, kUpdateExecN), "us"},
      {"rpc.single_fetch.exec_us", mean_us(kSingleExecS, kSingleExecN), "us"},
      {"rpc.server_self_us", server_self, "us"},
      {"rpc.bulk_bytes_per_byte", per_byte(kBulkBytes), "B/B"},
      {"net.doorbells_per_op", per_op(kDoorbells), "1/op"},
      {"net.drains_per_op", per_op(kDrains), "1/op"},
      {"net.inline_bytes_per_byte", per_byte(kInlineBytes), "B/B"},
      {"net.one_sided_bytes_per_byte", per_byte(kOneSidedBytes), "B/B"},
      {"net.client_mr_hit_ratio", HitRatio(d[kClientMrHits], d[kClientMrMisses]),
       "ratio"},
      {"net.engine_mr_hit_ratio", HitRatio(d[kEngineMrHits], d[kEngineMrMisses]),
       "ratio"},
      {"sched.busy_us_per_op", per_op(kSchedBusyNs) / 1e3, "us"},
      {"sched.queue_high_water", in.queue_high_water, "count"},
      {"vos.self_us", vos_self, "us"},
      {"vos.fetch_us", in.vos->read_us_mean(), "us"},
      {"vos.read_amp", Ratio(d[kNvmeRead], double(t.read_bytes)), "B/B"},
      {"vos.write_amp", Ratio(d[kNvmeWritten], double(t.write_bytes)), "B/B"},
      {"vos.records", d[kVosRecords], "count"},
      {"ledger.e2e_us", e2e_us, "us"},
      {"ledger.layer_sum_us", layer_sum, "us"},
      {"ledger.gap_pct", 100.0 * Ratio(layer_sum - e2e_us, e2e_us), "%"},
      {"trace.untraced_ops_per_s", u_rate, "1/s"},
      {"trace.ops_per_s", t_rate, "1/s"},
      {"trace.overhead_pct", 100.0 * Ratio(u_rate - t_rate, u_rate), "%"},
  };
}

}  // namespace e2ebench
