// Workloads as deterministic action streams, and the runner that drives a
// stream through one Layer while timing and verifying every call.
//
// A stream is a pure function of (workload, seed): the same seed yields
// the same setup actions, the same measured actions, and the same bytes,
// so one stream can be replayed unchanged at every layer of the stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "layers.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

enum class Act : std::uint8_t {
  kMkdir,
  kReaddir,  ///< `length` holds the expected entry count
  kCreate,
  kOpen,
  kClose,
  kFsync,
  kUnlink,
  kRead,
  kWrite,
};

struct Action {
  Act act = Act::kRead;
  std::uint32_t id = 0;  ///< index into Stream::path()
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  bool in_op = false;   ///< the call's time belongs to an application op
  bool op_end = false;  ///< last call of an application op
};

class Stream {
 public:
  virtual ~Stream() = default;

  /// Actions that build the dataset (timed only as part of setup).
  virtual std::vector<Action> Setup() = 0;
  /// Next action of the endless measured stream.
  virtual Action Next() = 0;
  /// Bytes the write `a` stores; updates the stream's content model.
  virtual void Fill(const Action& a, std::span<std::byte> out) = 0;
  /// True when `got` is what the read `a` must return.
  virtual bool Check(const Action& a, std::span<const std::byte> got) = 0;
  /// True when the measured stream never writes (its dataset can be
  /// shared by every layer instead of copied per layer).
  virtual bool read_only() const { return false; }
  /// Ops after which space amplification is sampled (a fixed point of the
  /// stream, so the figure does not depend on how fast the run went).
  virtual std::uint64_t space_sample_ops() const = 0;
  /// Ops a time-bounded run stops at regardless of the clock: keeps the
  /// never-aggregated VOS record logs inside the SCM arena.
  virtual std::uint64_t max_ops() const = 0;

  const std::string& path(std::uint32_t id) const { return paths_[id]; }
  std::size_t path_count() const { return paths_.size(); }

 protected:
  std::vector<std::string> paths_;
};

struct WorkloadSpec {
  std::string name;
  bool dpu_tcp = false;  ///< BlueField-3 + TCP + inline crypto client
  std::unique_ptr<Stream> (*make)(std::uint64_t seed) = nullptr;
  /// Ops per traced phase per second of --seconds (sized so a traced run
  /// at --seconds 30 takes 15-20 s on a 4-vCPU 2.1 GHz Xeon guest).
  std::uint64_t traced_ops_per_second = 0;
  /// Ops the end-to-end run executes untimed before it measures.
  std::uint64_t warmup_ops = 0;
};

/// dataloader, checkpoint, random_rw, random_rw_dpu_tcp; nullptr if
/// unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Word-granular seeded pattern: the 8 bytes at absolute file offset
/// 8k are a hash of (tag, k). `offset` must be 8-aligned.
void FillWords(std::span<std::byte> out, std::uint64_t tag,
               std::uint64_t offset);

/// Everything one run of a stream through a layer measured.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  double read_call_s = 0;   ///< time inside read calls
  double write_call_s = 0;  ///< time inside write calls
  double op_s = 0;          ///< time inside the calls that make up ops
  double wall_s = 0;        ///< wall time of the measured loop
  double cpu_s = 0;         ///< process user + system CPU of the loop
  std::vector<float> read_us;  ///< per-call latencies
  std::vector<float> write_us;
  std::string first_error;

  std::uint64_t failed() const { return failed_calls + mismatches; }
  double op_us() const { return ops == 0 ? 0.0 : op_s * 1e6 / double(ops); }
  double read_us_mean() const {
    return reads == 0 ? 0.0 : read_call_s * 1e6 / double(reads);
  }
};

/// Drives one stream through one layer. Paths are prefixed with `root`
/// so several copies of a dataset can live side by side.
class Runner {
 public:
  Runner(Layer* layer, Stream* stream, std::string root);

  /// Creates `root` (when set) and executes the stream's setup actions.
  Status Setup();
  /// Executes measured actions until `ops` more ops have completed, the
  /// clock passes `deadline`, or a call fails. Appends to `tally`.
  void Run(std::uint64_t ops, Clock::time_point deadline, Tally* tally);

  /// Logical bytes of the files that currently exist.
  std::uint64_t live_bytes() const;
  /// FNV-1a over every action executed so far (setup included).
  std::uint64_t digest() const { return digest_; }

 private:
  /// Executes one action; false on a failed call (recorded in `tally`).
  bool Execute(const Action& a, Tally* tally);
  std::string FullPath(std::uint32_t id) const;
  void Hash(const Action& a);

  Layer* layer_;
  Stream* stream_;
  std::string root_;
  std::vector<Handle> handles_;
  std::vector<std::uint64_t> sizes_;  ///< per path id; 0 = absent
  ros2::Buffer buf_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  double pending_op_s_ = 0;  ///< call time of the op in progress
};

}  // namespace e2ebench
