// Wall-clock cost of a small VOS fetch against a large, fragmented record
// log: the storage-layer half of the paper's small-random-read claim.
//
// One akey holds a 1 MiB NVMe-tier record plus 64 small SCM-tier
// overwrites scattered across it. The bench times a 4 KiB FetchArray at
// rotating offsets against a 1 MiB FetchArray of the whole range. VOS
// resolves visibility newest-first and loads and verifies only the 32 KiB
// checksum chunks that hold returned bytes, so the 4 KiB fetch must run at
// >= 8x the 1 MiB fetch's ops/s. A VOS that loads whole stored extents to
// check one whole-extent CRC pays ~1 MiB per fetch either way and sits
// near 1x.
//
// The whole report is realtime-tagged: wall-clock rates churn by machine,
// so benchctl keeps this section out of EXPERIMENTS.md and the committed
// baseline. The 4 KiB / 1 MiB ops/s RATIO is what gates (bench exit code).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/registry.h"
#include "common/bytes.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/vos.h"
#include "storage/nvme_device.h"

using namespace ros2;

namespace {

constexpr std::uint64_t kRecordBytes = kMiB;
constexpr std::uint64_t kOverwrites = 64;
constexpr std::uint64_t kOverwriteBytes = 512;
constexpr std::uint64_t kSmallFetch = 4 * kKiB;

/// One target's tiers holding the fragmented record log.
struct FragmentedArray {
  FragmentedArray() : device(DeviceConfig()), bdev(&device), scm(8 * kMiB),
                      vos(&scm, &bdev) {
    ok = vos.UpdateArray(oid, "d", "a", 1, 0,
                         MakePatternBuffer(kRecordBytes, 1))
             .ok();
    // Scattered small overwrites, one per 16 KiB stride: every 32 KiB
    // checksum chunk of the big record is split by newer SCM records.
    const std::uint64_t stride = kRecordBytes / kOverwrites;
    for (std::uint64_t i = 0; i < kOverwrites && ok; ++i) {
      const std::uint64_t at = i * stride + (i * 97) % (stride / 2);
      ok = vos.UpdateArray(oid, "d", "a", 2 + i, at,
                           MakePatternBuffer(kOverwriteBytes, 2 + i, at))
               .ok();
    }
  }

  static storage::NvmeDeviceConfig DeviceConfig() {
    storage::NvmeDeviceConfig config;
    config.capacity_bytes = 16 * kMiB;
    return config;
  }

  /// Fetches/s over `iters` fetches of `bytes` each.
  double Rate(std::uint64_t bytes, std::uint64_t iters, bool* all_ok) {
    Buffer out(bytes);
    const std::uint64_t slots = kRecordBytes / bytes;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      // Rotate through the record (odd step, so every slot is visited).
      const std::uint64_t offset = (i * 37 % slots) * bytes;
      if (!vos.FetchArray(oid, "d", "a", daos::kEpochHead, offset, out)
               .ok()) {
        *all_ok = false;
        return 0.0;
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(stop - start).count();
    return seconds > 0.0 ? double(iters) / seconds : 0.0;
  }

  const daos::ObjectId oid{1, 1};
  storage::NvmeDevice device;
  spdk::Bdev bdev;
  scm::PmemPool scm;
  daos::Vos vos;
  bool ok = false;
};

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_vos,
                      "4 KiB vs 1 MiB FetchArray from a fragmented "
                      "NVMe+SCM record log — chunk-granular loads, gated") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "One akey: a 1 MiB NVMe-tier record under 64 scattered 512 B SCM "
      "overwrites. Each measurement is a back-to-back 4 KiB / 1 MiB PAIR "
      "(both arms see the same ambient conditions); the gated ratio is "
      "the MEDIAN over all pairs. Rates are realtime counters — the gate "
      "is the RATIO: 4 KiB fetches/s >= 8 x 1 MiB fetches/s.");

  const int pairs = ctx.quick() ? 5 : 9;
  const std::uint64_t small_iters = ctx.quick() ? 4000 : 40000;
  const std::uint64_t large_iters = ctx.quick() ? 200 : 2000;
  constexpr double kGate = 8.0;

  FragmentedArray array;
  bool all_ok = array.ok;
  std::vector<double> ratios;
  double small_rate = 0.0;
  double large_rate = 0.0;
  for (int pair = 0; pair < pairs && all_ok; ++pair) {
    const double small = array.Rate(kSmallFetch, small_iters, &all_ok);
    const double large = array.Rate(kRecordBytes, large_iters, &all_ok);
    small_rate += small / pairs;
    large_rate += large / pairs;
    ratios.push_back(large > 0.0 ? small / large : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
  const daos::VosStats& stats = array.vos.stats();
  const double fetches = double(stats.fetches.load());
  const double loaded_per_fetch =
      fetches > 0.0 ? double(stats.bytes_loaded.value()) / fetches : 0.0;

  AsciiTable table({"fetch", "fetches/s", "vs 1 MiB"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ratio);
  table.AddRow({FormatBytes(kSmallFetch), FormatCount(small_rate), buf});
  table.AddRow({FormatBytes(kRecordBytes), FormatCount(large_rate), "1.0"});
  ctx.Table("FetchArray fetches/s by size (wall clock)", table);

  ctx.Metric("fetch_4k_per_sec", "ops_per_sec", small_rate, {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("fetch_1m_per_sec", "ops_per_sec", large_rate, {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("fetch_4k_over_1m_ratio", "ratio", ratio, {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("bytes_loaded_per_fetch", "bytes", loaded_per_fetch, {},
             bench::MetricDirection::kLowerIsBetter);

  ctx.Check("every fetch succeeded", all_ok);
  ctx.Check("4 KiB fetch runs >= 8x the ops/s of a 1 MiB fetch",
            ratio >= kGate);
}

ROS2_BENCH_MAIN()
