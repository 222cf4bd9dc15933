// e2ebench: drives the real ros2 stack through its public client API for
// one workload and prints the result as one JSON line on stdout.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--raw <path>]
//
// --trace 0 is the end-to-end run (tracing off): set the stack up five
// times (the median is setup_s), run the workload's warm-up ops untimed,
// then run it closed-loop for --seconds. --trace 1 is the traced run: a
// fixed op count of the same stream through Ros2Client (untraced, then
// traced with counter reads), Dfs, DaosClient and Vos, from which the
// per-layer ledger is built.
// --raw writes the per-call samples and run details as JSON.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "ledger.h"
#include "layers.h"
#include "workloads.h"

namespace e2ebench {
namespace {

constexpr char kClientAddress[] = "fabric://e2ebench-client";
constexpr int kSetups = 5;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;
/// Reconciliation gaps above this are reported loudly on stderr.
constexpr double kGapWarnPct = 10.0;
/// Traced run: ops per phase per round, and per phase before measuring.
constexpr std::uint64_t kRoundOps = 100;
constexpr std::uint64_t kWarmupOps = 100;
/// End-to-end run: length of one rate window.
constexpr Clock::duration kWindow = std::chrono::milliseconds(500);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string raw;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      out->workload = v;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::atoi(v);
    } else if (flag == "--trace") {
      out->trace = std::atoi(v);
    } else if (flag == "--raw") {
      out->raw = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && out->seconds >= 1 &&
         (out->trace == 0 || out->trace == 1);
}

/// The cluster and its clients; destroyed clients first.
struct Stack {
  std::unique_ptr<ros2::core::Ros2Cluster> cluster;
  std::unique_ptr<ros2::core::Ros2Client> client;
  std::vector<std::unique_ptr<ros2::core::Ros2Client>> more;
  ~Stack() {
    more.clear();
    client.reset();
  }
};

/// A client of the workload's kind, connected and mounted as tenant
/// "bench" at fabric address `address`.
Result<std::unique_ptr<ros2::core::Ros2Client>> ConnectClient(
    ros2::core::Ros2Cluster* cluster, const WorkloadSpec& spec,
    const std::string& address) {
  ros2::core::ClientConfig config;
  config.platform = spec.dpu_tcp ? ros2::perf::Platform::kBlueField3
                                 : ros2::perf::Platform::kServerHost;
  config.transport =
      spec.dpu_tcp ? ros2::net::Transport::kTcp : ros2::net::Transport::kRdma;
  config.inline_crypto = spec.dpu_tcp;
  config.tenant_name = "bench";
  config.tenant_token = "bench-token";
  config.client_address = address;
  return ros2::core::Ros2Client::Connect(cluster, config);
}

/// Default cluster (serial, client-pumped engine), one tenant, one client
/// connected and mounted.
Result<std::unique_ptr<Stack>> BuildStack(const WorkloadSpec& spec) {
  auto s = std::make_unique<Stack>();
  s->cluster = std::make_unique<ros2::core::Ros2Cluster>();
  ros2::core::TenantConfig tenant;
  tenant.name = "bench";
  tenant.auth_token = "bench-token";
  ROS2_RETURN_IF_ERROR(s->cluster->tenants()->Register(tenant).status());
  ROS2_ASSIGN_OR_RETURN(s->client,
                        ConnectClient(s->cluster.get(), spec, kClientAddress));
  return s;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(const std::vector<float>& samples, double q) {
  if (samples.empty()) return 0;
  std::vector<float> v = samples;
  const std::size_t rank =
      std::size_t(std::ceil(q * double(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(rank), v.end());
  return v[rank];
}

/// Latency percentiles: the median over blocks of at least this many
/// consecutive calls (so a p99 has ten samples beyond it in every block)
/// of each block's percentile. A burst of host interference then moves
/// the blocks it falls in rather than the whole run's tail.
constexpr std::size_t kLatencyBlock = 1000;

double BlockPercentile(const std::vector<float>& samples, double q) {
  const std::size_t n = samples.size();
  const std::size_t blocks = std::max<std::size_t>(1, n / kLatencyBlock);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + std::ptrdiff_t(b * n / blocks);
    const auto last = samples.begin() + std::ptrdiff_t((b + 1) * n / blocks);
    per_block.push_back(Percentile(std::vector<float>(first, last), q));
  }
  return Median(per_block);
}

/// True when a percentile has at least ten samples beyond it.
bool Supported(std::size_t n, double q) {
  return double(n) * (1 - q) >= 10 - 1e-9;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The scalar totals of a tally (no samples), for per-window deltas.
Tally Marks(const Tally& t) {
  Tally m;
  m.ops = t.ops;
  m.read_bytes = t.read_bytes;
  m.write_bytes = t.write_bytes;
  m.read_call_s = t.read_call_s;
  m.wall_s = t.wall_s;
  m.cpu_s = t.cpu_s;
  return m;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}}";
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += Num(v[i]);
  }
  return out + "]";
}

/// Latency samples, printed with the 9 digits that round-trip a float.
std::string JsonArray(const std::vector<float>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i ? ",%.9g" : "%.9g", double(v[i]));
    out += buf;
  }
  return out + "]";
}

/// Per-run record: what ran, with which build, every raw sample, and the
/// metrics that are not part of this run's printed result.
struct RawRecord {
  std::string body;  ///< comma-separated JSON members

  void Add(const std::string& key, const std::string& json) {
    if (!body.empty()) body += ",\n";
    body += "\"" + key + "\": " + json;
  }
  void AddNum(const std::string& key, double v) { Add(key, Num(v)); }
  void AddStr(const std::string& key, const std::string& v) {
    Add(key, "\"" + v + "\"");
  }
  void AddMetrics(const std::string& key, const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    Add(key, out + "}");
  }
  bool Write(const std::string& path) const {
    if (path.empty()) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fprintf(f, "{\n%s\n}\n", body.c_str()) > 0;
    return std::fclose(f) == 0 && ok;
  }
};

void Describe(RawRecord* raw, const Args& args) {
  raw->AddStr("workload", args.workload);
  raw->AddNum("seed", double(args.seed));
  raw->AddNum("seconds", args.seconds);
  raw->AddNum("trace", args.trace);
  raw->AddStr("build_type", E2EBENCH_BUILD_TYPE);
  raw->AddStr("compiler", __VERSION__);
}

/// Write-side figures. They go to the run record only: the dataloader never
/// writes, so as printed metrics they would read 0 on every run.
std::vector<Metric> WriteMetrics(const Tally& t) {
  return {
      {"write_mib_per_s", Ratio(double(t.write_bytes) / kMiB, t.write_call_s),
       "MiB/s"},
      {"write_p50_us", BlockPercentile(t.write_us, 0.50), "us"},
      {"write_p99_us", BlockPercentile(t.write_us, 0.99), "us"},
  };
}

void Log(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::fprintf(stderr, "  %-30s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// Emits the result line (and the raw record). Exit code 0 only when every
/// read verified and every metric is finite.
int Finish(const Args& args, RawRecord* raw, bool correct,
           std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "e2ebench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  const std::string line = ResultJson(correct, attempted, failed, ms);
  raw->Add("result", line);
  if (!raw->Write(args.raw)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", args.raw.c_str());
    return 1;
  }
  Log(ms);
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  return 2;
}

// ------------------------------------------------------------ end to end

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Layer> layer;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Runner> runner;
  for (int i = 0; i < kSetups; ++i) {
    // Free the previous copy first, so only one dataset is ever resident.
    runner.reset();
    layer.reset();
    stack.reset();
    stream.reset();
    const Clock::time_point t0 = Clock::now();
    auto built = BuildStack(spec);
    if (!built.ok()) return Fail("setup: " + built.status().ToString());
    stack = std::move(*built);
    layer = MakeClientLayer(stack->client.get());
    stream = spec.make(args.seed);
    runner = std::make_unique<Runner>(layer.get(), stream.get(), "");
    const Status s = runner->Setup();
    if (!s.ok()) return Fail("setup: " + s.ToString());
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  // The stream's first ops run untimed. A fresh process pays one-off
  // first-touch costs there (heap growth, page faults on new extent
  // buffers): on checkpoint they slow most first restore reads of the
  // early steps, and left in they would set the read tail by how many of
  // them a run happened to include. Their samples stay in the record.
  //
  // Rates are the median of fixed-length windows, so a burst of host
  // interference moves one window rather than the result. Space
  // amplification is sampled at the stream's fixed op count, warm-up
  // included.
  Tally warm, t;
  std::vector<double> ops_rate, read_rate, cpu_per_gib;
  const std::uint64_t cap = stream->max_ops();
  const std::uint64_t space_at = std::min(stream->space_sample_ops(), cap);
  double space_amp = -1;
  auto sample_space = [&] {
    const double stored =
        double(StoredBytes(stack->cluster->engine()->telemetry().Snapshot()));
    space_amp = Ratio(stored, double(runner->live_bytes()));
  };
  auto done = [&] { return warm.ops + t.ops; };
  auto healthy = [&] { return warm.failed_calls == 0 && t.failed_calls == 0; };
  // Runs the stream until `upto` ops in all, `end` or a failed call.
  auto advance = [&](std::uint64_t upto, Clock::time_point end, Tally* into) {
    while (healthy() && done() < upto && Clock::now() < end) {
      const std::uint64_t stop =
          space_amp < 0 ? std::min(upto, space_at) : upto;
      runner->Run(stop - done(), end, into);
      if (space_amp < 0 && done() >= space_at) sample_space();
    }
  };
  advance(std::min(spec.warmup_ops, cap),
          Clock::now() + std::chrono::seconds(60), &warm);

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  for (int w = 1; healthy() && done() < cap && Clock::now() < deadline; ++w) {
    const Clock::time_point end = std::min(deadline, start + w * kWindow);
    const Tally m = Marks(t);
    advance(cap, end, &t);
    const double wall = t.wall_s - m.wall_s;
    if (wall < 0.5 * Seconds(kWindow)) continue;  // a cut-short last window
    const double gib = double(t.read_bytes + t.write_bytes - m.read_bytes -
                              m.write_bytes) / kGiB;
    ops_rate.push_back(double(t.ops - m.ops) / wall);
    if (t.read_call_s > m.read_call_s) {
      read_rate.push_back(double(t.read_bytes - m.read_bytes) / kMiB /
                          (t.read_call_s - m.read_call_s));
    }
    if (gib > 0) cpu_per_gib.push_back((t.cpu_s - m.cpu_s) / gib);
  }
  if (space_amp < 0) sample_space();
  const std::uint64_t attempted = warm.attempted + t.attempted;
  const std::uint64_t failed = warm.failed() + t.failed();
  const std::string first_error =
      warm.first_error.empty() ? t.first_error : warm.first_error;

  const std::vector<Metric> ms = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", Median(ops_rate), "1/s"},
      {"read_mib_per_s", Median(read_rate), "MiB/s"},
      {"read_p50_us", BlockPercentile(t.read_us, 0.50), "us"},
      {"read_p95_us", BlockPercentile(t.read_us, 0.95), "us"},
      {"cpu_s_per_gib", Median(cpu_per_gib), "s/GiB"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
      {"space_amp", space_amp, "B/B"},
  };
  // read_p99_us is kept out of the printed metrics: on 1 MiB reads it
  // sits in the tail that host preemption makes, so it tracks the host's
  // load rather than the program (see README.md).
  std::vector<Metric> extra = WriteMetrics(t);
  extra.push_back({"read_p99_us", BlockPercentile(t.read_us, 0.99), "us"});
  extra.push_back({"error_rate", Ratio(double(failed), double(attempted)),
                   "1/op"});

  RawRecord raw;
  Describe(&raw, args);
  raw.AddStr("digest", std::to_string(runner->digest()));
  raw.AddNum("warmup_ops", double(warm.ops));
  raw.AddNum("warmup_wall_s", warm.wall_s);
  raw.AddNum("ops", double(t.ops));
  raw.AddNum("wall_s", t.wall_s);
  raw.Add("window_ops_per_s", JsonArray(ops_rate));
  raw.AddNum("read_samples", double(t.read_us.size()));
  raw.AddNum("write_samples", double(t.write_us.size()));
  raw.Add("read_p99_supported",
          Supported(t.read_us.size(), 0.99) ? "true" : "false");
  raw.Add("write_p99_supported",
          Supported(t.write_us.size(), 0.99) ? "true" : "false");
  raw.AddMetrics("extra_metrics", extra);
  raw.Add("setup_s", JsonArray(setup_s));
  raw.Add("warmup_read_us", JsonArray(warm.read_us));
  raw.Add("warmup_write_us", JsonArray(warm.write_us));
  raw.Add("read_us", JsonArray(t.read_us));
  raw.Add("write_us", JsonArray(t.write_us));
  if (!first_error.empty()) raw.AddStr("first_error", first_error);

  std::fprintf(stderr,
               "e2ebench %s seed %llu: %llu warm-up ops in %.2f s, then %llu "
               "ops in %.2f s, %zu read and %zu write samples%s\n",
               spec.name.c_str(), (unsigned long long)args.seed,
               (unsigned long long)warm.ops, warm.wall_s,
               (unsigned long long)t.ops, t.wall_s, t.read_us.size(),
               t.write_us.size(),
               Supported(t.read_us.size(), 0.99)
                   ? ""
                   : " (too few reads for a supported p99)");
  if (!first_error.empty()) {
    std::fprintf(stderr, "e2ebench: %s\n", first_error.c_str());
  }
  Log(extra);
  return Finish(args, &raw, failed == 0, attempted, failed, ms);
}

// ----------------------------------------------------------------- traced

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const std::uint64_t n = spec.traced_ops_per_second * std::uint64_t(args.seconds);
  // Guard only: a healthy traced run ends on its op count long before.
  const Clock::time_point guard = Clock::now() + std::chrono::seconds(150);

  auto built = BuildStack(spec);
  if (!built.ok()) return Fail("setup: " + built.status().ToString());
  std::unique_ptr<Stack> stack = std::move(*built);
  ros2::core::Ros2Client* client = stack->client.get();  // builds datasets
  ros2::daos::DaosEngine* engine = stack->cluster->engine();

  // Every client-side phase has a client of its own (on this same thread),
  // so no phase warms another's DFS lookup cache or MR cache.
  ros2::core::Ros2Client* phase_client[4] = {};
  const char* const kPhaseAddress[4] = {
      "fabric://e2ebench-untraced", "fabric://e2ebench-traced",
      "fabric://e2ebench-dfs", "fabric://e2ebench-daos"};
  for (int i = 0; i < 4; ++i) {
    auto c = ConnectClient(stack->cluster.get(), spec, kPhaseAddress[i]);
    if (!c.ok()) return Fail("connect: " + c.status().ToString());
    stack->more.push_back(std::move(*c));
    phase_client[i] = stack->more.back().get();
  }
  Probe probe(stack->cluster.get(), phase_client[1], kPhaseAddress[1]);

  ros2::daos::DaosClient* daos = phase_client[3]->daos_client();
  auto cont = daos->ContainerOpen(stack->cluster->config().container_label);
  if (!cont.ok()) return Fail("container: " + cont.status().ToString());
  std::unique_ptr<Layer> untraced_layer = MakeClientLayer(phase_client[0]);
  std::unique_ptr<Layer> traced_layer = MakeClientLayer(phase_client[1]);
  std::unique_ptr<Layer> dfs_layer = MakeDfsLayer(phase_client[2]->dfs());
  std::unique_ptr<ObjectLayer> daos_layer = MakeDaosLayer(daos, *cont);
  std::unique_ptr<ObjectLayer> vos_layer = MakeVosLayer(engine);

  // A read-only dataset is built once and read in place by every layer
  // (the object layers adopt the files' objects); a written one gets a
  // fresh copy per phase, so every phase starts from the same state.
  const bool shared = spec.make(args.seed)->read_only();
  if (shared) {
    std::unique_ptr<Stream> s = spec.make(args.seed);
    std::unique_ptr<Layer> prefill_layer = MakeClientLayer(client);
    Runner prefill(prefill_layer.get(), s.get(), "");
    const Status st = prefill.Setup();
    if (!st.ok()) return Fail("setup: " + st.ToString());
    for (const Action& a : s->Setup()) {
      if (a.act != Act::kCreate) continue;
      auto stat = client->dfs()->Stat(s->path(a.id));
      if (!stat.ok()) return Fail("stat: " + stat.status().ToString());
      daos_layer->Adopt(s->path(a.id), stat->oid);
      vos_layer->Adopt(s->path(a.id), stat->oid);
    }
  }

  // One phase per entry point (the application's twice: untraced and
  // traced), each with its own stream and, unless shared, its own copy.
  struct Phase {
    const char* root;
    Layer* layer;
    bool probed;  ///< counters are differenced around each of its rounds
    std::unique_ptr<Stream> stream;
    std::unique_ptr<Runner> runner;
    Tally warmup;
    Tally tally;
    Counters delta;
  };
  Phase phases[] = {
      {"/untraced", untraced_layer.get(), false, nullptr, nullptr, {}, {}, {}},
      {"/traced", traced_layer.get(), true, nullptr, nullptr, {}, {}, {}},
      {"/dfs", dfs_layer.get(), false, nullptr, nullptr, {}, {}, {}},
      {"/client", daos_layer.get(), true, nullptr, nullptr, {}, {}, {}},
      {"/vos", vos_layer.get(), false, nullptr, nullptr, {}, {}, {}},
  };
  Phase& traced = phases[1];
  for (Phase& p : phases) {
    p.stream = spec.make(args.seed);
    p.runner = std::make_unique<Runner>(p.layer, p.stream.get(),
                                        shared ? "" : p.root);
    if (!shared) {
      const Status st = p.runner->Setup();
      if (!st.ok()) return Fail(std::string(p.root) + " setup: " + st.ToString());
    }
  }

  // Phases take turns in rounds, so drift in allocator state or in the
  // host spreads evenly over them. A warm-up round first pays the
  // first-touch costs.
  bool failed_any = false;
  auto round = [&](std::uint64_t k, bool measured) {
    for (Phase& p : phases) {
      Tally* t = measured ? &p.tally : &p.warmup;
      const Clock::time_point w0 = Clock::now();
      const double wall0 = t->wall_s;
      const Counters before = p.probed ? probe.Take() : Counters{};
      p.runner->Run(k, guard, t);
      if (p.probed) {
        if (measured) p.delta += probe.Take() - before;
        // The traced phase's wall time includes its counter reads.
        t->wall_s = wall0 + Seconds(Clock::now() - w0);
      }
      failed_any = failed_any || t->failed() > 0;
    }
  };
  round(std::min(kWarmupOps, n), false);
  for (std::uint64_t done = 0; done < n && !failed_any && Clock::now() < guard;
       done += kRoundOps) {
    round(std::min(kRoundOps, n - done), true);
  }
  if (!failed_any && traced.tally.ops < n) {
    return Fail("traced run out of time after " +
                std::to_string(traced.tally.ops) + " ops");
  }

  LedgerInputs in;
  in.untraced = &phases[0].tally;
  in.traced = &traced.tally;
  in.dfs = &phases[2].tally;
  in.client = &phases[3].tally;
  in.vos = &phases[4].tally;
  in.traced_delta = traced.delta;
  in.client_delta = phases[3].delta;
  in.queue_high_water = probe.QueueHighWater();
  in.lifetime = probe.Take();
  std::vector<Metric> ms = LedgerMetrics(in);

  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
  for (const Phase& p : phases) {
    for (const Tally* t : {&p.warmup, &p.tally}) {
      attempted += t->attempted;
      failed += t->failed();
      if (first_error.empty()) first_error = t->first_error;
    }
  }
  ms.push_back({"error_rate", Ratio(double(failed), double(attempted)), "1/op"});

  RawRecord raw;
  Describe(&raw, args);
  raw.AddStr("digest", std::to_string(traced.runner->digest()));
  raw.AddNum("ops_per_phase", double(n));
  std::string op_us = "{";
  for (const Phase& p : phases) {
    if (op_us.size() > 1) op_us += ", ";
    op_us += "\"" + std::string(p.root + 1) + "\": " + Num(p.tally.op_us());
  }
  raw.Add("phase_op_us", op_us + "}");
  raw.AddNum("untraced_write_samples", double(phases[0].tally.write_us.size()));
  raw.AddMetrics("extra_metrics", WriteMetrics(phases[0].tally));
  if (!first_error.empty()) raw.AddStr("first_error", first_error);

  for (const Metric& m : ms) {
    if (m.name == "ledger.gap_pct" && std::fabs(m.value) > kGapWarnPct) {
      std::fprintf(stderr,
                   "e2ebench: WARNING: per-layer self times sum to %.1f%% "
                   "off the untraced per-op time\n",
                   m.value);
    }
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "e2ebench: %s\n", first_error.c_str());
  }
  return Finish(args, &raw, failed == 0, attempted, failed, ms);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--raw <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& w : WorkloadNames()) names += " " + w;
    return Fail("unknown workload " + args.workload + " (have:" + names + ")");
  }
  ros2::SetLogLevel(ros2::LogLevel::kWarn);
  // Fixed malloc thresholds: the stack allocates a 1 MiB buffer per
  // extent load, and with glibc's adaptive mmap/trim thresholds whether
  // that costs a page-faulting mmap or a heap reuse depends on the whole
  // heap history of the process (it made the interleaved traced run 3x
  // slower per op than the same ops end to end). The thresholds sit above
  // the 64 MiB SCM arenas and the ~1 GiB a cluster holds, so a torn-down
  // stack's memory stays in the heap and the next setup reuses it: only
  // the first of the end-to-end run's setups pays the kernel's first-touch
  // faults on the arenas, whose cost moved by a quarter with the host's
  // state. Both run kinds pin them alike, so their numbers stay comparable.
  mallopt(M_MMAP_THRESHOLD, 128 << 20);
  mallopt(M_TRIM_THRESHOLD, 1536 << 20);
  return args.trace ? RunTraced(*spec, args) : RunEndToEnd(*spec, args);
}
