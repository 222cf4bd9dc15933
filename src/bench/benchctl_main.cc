// ros2_benchctl — offline aggregator/differ for the experiments subsystem.
//
//   ros2_benchctl merge --out=BENCH_quick.json [--experiments-md=PATH]
//                       [--strip-realtime] <report.json>...
//   ros2_benchctl diff [--tolerance=0.25] [--include-realtime]
//                       <baseline.json> <current.json>
//
// merge embeds ros2-bench-report-v1 documents (what every bench binary
// emits via BenchReport) as-is and rejects any other input. A report-level
// "realtime": true (bench_micro_sim, bench_micro_rpc, ...) marks the whole
// report wall-clock-derived. --strip-realtime drops realtime-tagged
// reports from the written aggregate — that is how the committed
// bench/BENCH_baseline.json is produced (wall-clock values would churn on
// every host).
//
// diff compares metric values between two aggregates with a relative
// tolerance. Metrics of realtime-tagged reports are skipped unless
// --include-realtime (model metrics are bit-deterministic; wall-clock
// ones are not). A metric annotated "direction": "higher"/"lower" fails
// only when it drifts the bad way beyond tolerance — improvements pass;
// un-annotated metrics fail on any drift. A check that passed in the
// baseline but fails in the current run always fails the diff. Exit: 0
// clean, 1 regressions, 2 usage/IO errors.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/json.h"
#include "bench/report.h"
#include "common/table.h"

namespace {

using ros2::AsciiTable;
using ros2::bench::Json;
using ros2::bench::RenderReportMarkdown;

ros2::Result<Json> LoadJsonFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return ros2::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return Json::Parse(buffer.str());
}

bool IsBenchReport(const Json& doc) {
  const Json* schema = doc.Find("schema");
  return schema != nullptr && schema->AsString() == "ros2-bench-report-v1";
}

/// True for a realtime-tagged report: its metrics are wall-clock-derived,
/// so merge --strip-realtime drops it and diff skips its metrics.
bool IsRealtime(const Json& report) {
  const Json* realtime = report.Find("realtime");
  return realtime != nullptr && realtime->AsBool();
}

// Flattened views shared by merge (failed-check scan) and diff.
struct MetricEntry {
  std::string key;  // binary / experiment / metric {params}
  double value = 0.0;
  bool realtime = false;
  int direction = 0;  // 0 any-drift-fails, +1 higher-is-better, -1 lower
};

struct CheckEntry {
  std::string key;
  bool pass = false;
};

void CollectEntries(const Json& aggregate, std::vector<MetricEntry>* metrics,
                    std::vector<CheckEntry>* checks) {
  const Json* reports = aggregate.Find("reports");
  if (reports == nullptr) return;
  for (const auto& report : reports->elements()) {
    const Json* binary = report.Find("binary");
    const std::string binary_name =
        binary != nullptr ? binary->AsString() : "?";
    const bool report_realtime = IsRealtime(report);
    const Json* experiments = report.Find("experiments");
    if (experiments == nullptr) continue;
    for (const auto& experiment : experiments->elements()) {
      const Json* experiment_name = experiment.Find("name");
      const std::string prefix =
          binary_name + " / " +
          (experiment_name != nullptr ? experiment_name->AsString() : "?");
      if (const Json* metric_list = experiment.Find("metrics")) {
        for (const auto& metric : metric_list->elements()) {
          MetricEntry entry;
          const Json* name = metric.Find("metric");
          entry.key =
              prefix + " / " + (name != nullptr ? name->AsString() : "?");
          if (const Json* params = metric.Find("params")) {
            std::string rendered;
            for (const auto& [key, value] : params->members()) {
              if (!rendered.empty()) rendered += ",";
              rendered += key + "=" + value.AsString();
            }
            if (!rendered.empty()) entry.key += " {" + rendered + "}";
          }
          if (const Json* value = metric.Find("value")) {
            entry.value = value->AsNumber();
          }
          entry.realtime = report_realtime;
          if (const Json* direction = metric.Find("direction")) {
            if (direction->AsString() == "higher") entry.direction = 1;
            if (direction->AsString() == "lower") entry.direction = -1;
          }
          metrics->push_back(std::move(entry));
        }
      }
      if (const Json* check_list = experiment.Find("checks")) {
        for (const auto& check : check_list->elements()) {
          const Json* name = check.Find("name");
          const Json* pass = check.Find("pass");
          checks->push_back(
              {prefix + " / " + (name != nullptr ? name->AsString() : "?"),
               pass != nullptr && pass->AsBool()});
        }
      }
    }
  }
}

int RunMerge(const std::vector<std::string>& args) {
  std::string out_path;
  std::string experiments_md_path;
  bool strip_realtime = false;
  std::vector<std::string> inputs;
  for (const auto& arg : args) {
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--experiments-md=", 0) == 0) {
      experiments_md_path = arg.substr(std::strlen("--experiments-md="));
    } else if (arg == "--strip-realtime") {
      strip_realtime = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "benchctl merge: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (out_path.empty() || inputs.empty()) {
    std::fprintf(stderr,
                 "usage: ros2_benchctl merge --out=<agg.json> "
                 "[--experiments-md=<path>] [--strip-realtime] "
                 "<report.json>...\n");
    return 2;
  }

  Json aggregate = Json::Object();
  aggregate["schema"] = "ros2-bench-aggregate-v1";
  bool any_quick = false;
  Json reports = Json::Array();
  for (const auto& input : inputs) {
    auto doc = LoadJsonFile(input);
    if (!doc.ok()) {
      std::fprintf(stderr, "benchctl merge: %s: %s\n", input.c_str(),
                   doc.status().ToString().c_str());
      return 2;
    }
    if (!IsBenchReport(*doc)) {
      std::fprintf(stderr,
                   "benchctl merge: %s: not a ros2-bench-report-v1 "
                   "document\n",
                   input.c_str());
      return 2;
    }
    if (const Json* quick = doc->Find("quick")) {
      any_quick = any_quick || quick->AsBool();
    }
    if (strip_realtime && IsRealtime(*doc)) continue;
    reports.Append(std::move(*doc));
  }
  aggregate["quick"] = any_quick;
  aggregate["reports"] = std::move(reports);

  {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "benchctl merge: cannot write '%s'\n",
                   out_path.c_str());
      return 2;
    }
    file << aggregate.Dump(2) << "\n";
    file.flush();
    if (!file.good()) {
      std::fprintf(stderr, "benchctl merge: short write to '%s'\n",
                   out_path.c_str());
      return 2;
    }
  }

  if (!experiments_md_path.empty()) {
    std::ofstream file(experiments_md_path);
    if (!file) {
      std::fprintf(stderr, "benchctl merge: cannot write '%s'\n",
                   experiments_md_path.c_str());
      return 2;
    }
    file << "# EXPERIMENTS — regenerated paper tables\n\n"
         << "Machine-generated by `scripts/bench.sh"
         << (any_quick ? " --quick" : "") << "` (do not edit by hand; the\n"
         << "source of truth is the bench binaries under `bench/`). Model\n"
         << "numbers come from the calibrated simulator and are "
         << "deterministic;\nreal-time microbenchmark sections vary by "
         << "machine.\n";
    const Json* merged = aggregate.Find("reports");
    std::vector<std::string> realtime_skipped;
    for (const auto& report : merged->elements()) {
      // Wall-clock sections would churn the committed baseline on every
      // host; they live in the JSON aggregate only.
      if (IsRealtime(report)) {
        const Json* binary = report.Find("binary");
        realtime_skipped.push_back(binary != nullptr ? binary->AsString()
                                                     : "?");
        continue;
      }
      file << "\n" << RenderReportMarkdown(report);
    }
    if (!realtime_skipped.empty()) {
      file << "\n## Real-time microbenchmarks\n\n"
           << "Wall-clock sections are machine-dependent and deliberately "
           << "excluded\nfrom this baseline; see the BENCH JSON aggregate "
           << "produced by\n`scripts/bench.sh`. Excluded here:\n";
      for (const std::string& name : realtime_skipped) {
        file << "\n- `" << name << "`";
      }
      file << "\n";
    }
    file.flush();
    if (!file.good()) {
      std::fprintf(stderr, "benchctl merge: short write to '%s'\n",
                   experiments_md_path.c_str());
      return 2;
    }
  }
  std::printf("benchctl: merged %zu report(s) into %s\n",
              aggregate.Find("reports")->size(), out_path.c_str());

  // Mirror the bench binaries' exit contract: a failed functional check in
  // any merged report fails the merge, so the CI bench smoke stage
  // catches it.
  std::vector<MetricEntry> merged_metrics;
  std::vector<CheckEntry> merged_checks;
  CollectEntries(aggregate, &merged_metrics, &merged_checks);
  int failed_checks = 0;
  for (const auto& check : merged_checks) {
    if (!check.pass) {
      std::fprintf(stderr, "benchctl merge: FAILED check: %s\n",
                   check.key.c_str());
      ++failed_checks;
    }
  }
  return failed_checks > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

const MetricEntry* FindMetric(const std::vector<MetricEntry>& entries,
                              const std::string& key) {
  for (const auto& entry : entries) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

int RunDiff(const std::vector<std::string>& args) {
  double tolerance = 0.25;
  bool include_realtime = false;
  std::vector<std::string> inputs;
  for (const auto& arg : args) {
    if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + std::strlen("--tolerance="));
    } else if (arg == "--include-realtime") {
      include_realtime = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "benchctl diff: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.size() != 2 || tolerance <= 0.0) {
    std::fprintf(stderr,
                 "usage: ros2_benchctl diff [--tolerance=0.25] "
                 "[--include-realtime] <baseline.json> <current.json>\n");
    return 2;
  }

  auto baseline = LoadJsonFile(inputs[0]);
  auto current = LoadJsonFile(inputs[1]);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "benchctl diff: %s\n",
                 (!baseline.ok() ? baseline.status() : current.status())
                     .ToString()
                     .c_str());
    return 2;
  }

  std::vector<MetricEntry> baseline_metrics, current_metrics;
  std::vector<CheckEntry> baseline_checks, current_checks;
  CollectEntries(*baseline, &baseline_metrics, &baseline_checks);
  CollectEntries(*current, &current_metrics, &current_checks);

  AsciiTable failures({"what", "baseline", "current", "delta"});
  int failed = 0;
  int compared = 0;
  int skipped_realtime = 0;

  for (const auto& base : baseline_metrics) {
    if (base.realtime && !include_realtime) {
      ++skipped_realtime;
      continue;
    }
    const MetricEntry* cur = FindMetric(current_metrics, base.key);
    if (cur == nullptr) {
      failures.AddRow({base.key, std::to_string(base.value), "MISSING", "-"});
      ++failed;
      continue;
    }
    ++compared;
    const double denom = std::max(std::fabs(base.value), 1e-12);
    const double rel = (cur->value - base.value) / denom;
    // Direction hints (ROADMAP item): a hinted metric only regresses when
    // it moves the bad way; an improvement beyond tolerance passes.
    const bool regressed = base.direction > 0   ? rel < -tolerance
                           : base.direction < 0 ? rel > tolerance
                                                : std::fabs(rel) > tolerance;
    if (regressed) {
      char base_cell[32], cur_cell[32], delta_cell[32];
      std::snprintf(base_cell, sizeof(base_cell), "%.6g", base.value);
      std::snprintf(cur_cell, sizeof(cur_cell), "%.6g", cur->value);
      std::snprintf(delta_cell, sizeof(delta_cell), "%+.1f%%", rel * 100.0);
      failures.AddRow({base.key, base_cell, cur_cell, delta_cell});
      ++failed;
    }
  }

  for (const auto& base : baseline_checks) {
    if (!base.pass) continue;  // was already failing at baseline
    bool found = false;
    for (const auto& cur : current_checks) {
      if (cur.key != base.key) continue;
      found = true;
      if (!cur.pass) {
        failures.AddRow({base.key, "PASS", "FAIL", "-"});
        ++failed;
      }
    }
    // A check that vanished is as suspicious as one that failed: deleting
    // the ctx.Check() call must not bypass the gate.
    if (!found) {
      failures.AddRow({base.key, "PASS", "MISSING", "-"});
      ++failed;
    }
  }

  std::printf(
      "benchctl diff: %d metric(s) compared, tolerance %.0f%%, %d "
      "realtime metric(s) %s\n",
      compared, tolerance * 100.0, skipped_realtime,
      include_realtime ? "included" : "skipped");
  if (failed > 0) {
    std::printf("\n%d regression(s) out of tolerance:\n\n", failed);
    failures.Print();
    return 1;
  }
  std::printf("benchctl diff: OK — within tolerance of the baseline\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ros2_benchctl <merge|diff> [args...]\n"
                 "  merge --out=<agg.json> [--experiments-md=<path>] "
                 "[--strip-realtime] <report.json>...\n"
                 "  diff [--tolerance=0.25] [--include-realtime] "
                 "<baseline.json> <current.json>\n");
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "merge") return RunMerge(args);
  if (command == "diff") return RunDiff(args);
  std::fprintf(stderr, "benchctl: unknown command '%s'\n", command.c_str());
  return 2;
}
