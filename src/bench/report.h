// Structured result emitter for the experiments subsystem.
//
// Every bench binary used to printf its paper table and exit; nothing could
// aggregate, regenerate EXPERIMENTS.md, or diff two runs. BenchReport keeps
// the verbatim tables (AsciiTable renders are embedded untouched) and adds
// machine-readable scalar metrics, PASS/FAIL functional checks, and prose
// notes. It renders three ways:
//   * console  — what the binary prints to stdout (the old output, framed)
//   * markdown — the binary's EXPERIMENTS.md section
//   * JSON     — the "ros2-bench-report-v1" document that scripts/bench.sh
//                aggregates into BENCH_quick.json and benchctl diffs
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bench/json.h"
#include "common/status.h"
#include "common/table.h"

namespace ros2::bench {

/// One (key, value) experiment parameter. A vector — not a map — so params
/// emit in the order the experiment states them and diffs stay stable.
using Params = std::vector<std::pair<std::string, std::string>>;

/// Which way a metric is allowed to drift: `benchctl diff` fails a
/// direction-hinted metric only when it moves the BAD way beyond tolerance
/// (improvements pass); un-hinted metrics fail on any drift. Deterministic
/// model numbers should stay un-hinted — any drift there is a modeling
/// change that must be acknowledged by moving the baseline.
enum class MetricDirection {
  kNone,            ///< any out-of-tolerance drift fails
  kHigherIsBetter,  ///< only an out-of-tolerance drop fails
  kLowerIsBetter,   ///< only an out-of-tolerance rise fails
};

class BenchReport {
 public:
  BenchReport(std::string binary, bool quick)
      : binary_(std::move(binary)), quick_(quick) {}

  /// Tags the whole report as wall-clock-derived: benchctl keeps it out of
  /// the regenerated EXPERIMENTS.md and the committed baseline, and its
  /// metrics out of the default diff.
  void MarkRealtime() { realtime_ = true; }
  bool realtime() const { return realtime_; }

  /// Starts a new experiment section; subsequent Add* calls land in it.
  void BeginExperiment(const std::string& name,
                       const std::string& description);

  /// Prose line (methodology, expected shapes, caveats).
  void AddNote(const std::string& text);

  /// Functional check (the PASS/FAIL lines the old binaries printed). A
  /// failed check fails the bench binary's exit code and benchctl diff.
  void AddCheck(const std::string& name, bool pass);

  /// Embeds an AsciiTable render verbatim (paper-table fidelity).
  void AddTable(const std::string& title, const AsciiTable& table);

  /// Machine-readable scalar: metrics are what `benchctl diff` compares
  /// across runs. Units are spelled out ("bytes_per_sec", "seconds",
  /// "ratio", "core_sec_per_gib", ...). `direction` annotates which way
  /// the metric may drift (see MetricDirection).
  void AddMetric(const std::string& metric, const std::string& unit,
                 double value, const Params& params = {},
                 MetricDirection direction = MetricDirection::kNone);

  const std::string& binary() const { return binary_; }
  bool quick() const { return quick_; }
  bool AllChecksPassed() const;

  Json ToJson() const;
  std::string RenderConsole() const;
  /// Convenience for RenderReportMarkdown(ToJson()).
  std::string RenderMarkdown() const;

  Status WriteJsonFile(const std::string& path) const;

 private:
  struct Check {
    std::string name;
    bool pass;
  };
  struct Table {
    std::string title;
    std::string text;
  };
  struct Metric {
    std::string metric;
    std::string unit;
    double value;
    Params params;
    MetricDirection direction;
  };
  struct Experiment {
    std::string name;
    std::string description;
    std::vector<std::string> notes;
    std::vector<Check> checks;
    std::vector<Table> tables;
    std::vector<Metric> metrics;
  };

  Experiment& Current();

  std::string binary_;
  bool quick_;
  bool realtime_ = false;
  std::vector<Experiment> experiments_;
};

/// Renders one ros2-bench-report-v1 JSON document as its EXPERIMENTS.md
/// section. The single markdown renderer: BenchReport::RenderMarkdown and
/// `ros2_benchctl merge --experiments-md` both go through it, so the
/// per-binary output and the regenerated EXPERIMENTS.md cannot diverge.
std::string RenderReportMarkdown(const Json& report);

}  // namespace ros2::bench
