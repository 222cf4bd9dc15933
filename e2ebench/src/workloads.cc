#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>

#include "common/rng.h"

namespace e2ebench {
namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;
constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// 4, 8, 16, 32 or 64 KiB, equally likely.
std::uint64_t SmallIoSize(ros2::Rng& rng) { return (4 * kKiB) << rng.Below(5); }

bool MatchesWords(std::span<const std::byte> got, std::uint64_t tag,
                  std::uint64_t offset, ros2::Buffer* scratch) {
  if (scratch->size() < got.size()) scratch->resize(got.size());
  std::span<std::byte> want(scratch->data(), got.size());
  FillWords(want, tag, offset);
  return std::memcmp(want.data(), got.data(), got.size()) == 0;
}

template <class Vec>
void Shuffle(Vec& v, ros2::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

/// Shared queue plumbing: subclasses append whole rounds (an epoch, a
/// checkpoint step) when the queue runs dry.
class QueuedStream : public Stream {
 public:
  Action Next() override {
    if (queue_.empty()) Refill();
    Action a = queue_.front();
    queue_.pop_front();
    return a;
  }

 protected:
  virtual void Refill() = 0;
  void Push(Act act, std::uint32_t id, std::uint64_t offset = 0,
            std::uint64_t length = 0, bool in_op = false,
            bool op_end = false) {
    queue_.push_back({act, id, offset, length, in_op, op_end});
  }

  ros2::Buffer scratch_;

 private:
  std::deque<Action> queue_;
};

// ---------------------------------------------------------------- dataloader
// 64 class directories x 128 files of 4-64 KiB (8192 files, twice the DFS
// lookup cache). Each epoch lists every class, then fetches every file
// once (open + pread + close) in a fresh shuffled order.

class DataloaderStream final : public QueuedStream {
 public:
  static constexpr std::uint32_t kClasses = 64;
  static constexpr std::uint32_t kPerClass = 128;
  static constexpr std::uint32_t kFirstFile = 1 + kClasses;

  explicit DataloaderStream(std::uint64_t seed) : seed_(seed), rng_(seed) {
    paths_.push_back("/dl");
    for (std::uint32_t c = 0; c < kClasses; ++c) {
      paths_.push_back("/dl/class" + std::to_string(c));
    }
    for (std::uint32_t i = 0; i < kClasses * kPerClass; ++i) {
      paths_.push_back(paths_[1 + i % kClasses] + "/sample" +
                       std::to_string(i / kClasses));
      sizes_.push_back(SmallIoSize(rng_));
    }
  }

  std::vector<Action> Setup() override {
    std::vector<Action> out;
    for (std::uint32_t d = 0; d < kFirstFile; ++d) out.push_back({Act::kMkdir, d});
    for (std::uint32_t i = 0; i < sizes_.size(); ++i) {
      const std::uint32_t id = kFirstFile + i;
      out.push_back({Act::kCreate, id});
      out.push_back({Act::kWrite, id, 0, sizes_[i]});
      out.push_back({Act::kClose, id});
    }
    return out;
  }
  void Fill(const Action& a, std::span<std::byte> out) override {
    FillWords(out, Tag(a.id), a.offset);
  }
  bool Check(const Action& a, std::span<const std::byte> got) override {
    return MatchesWords(got, Tag(a.id), a.offset, &scratch_);
  }
  bool read_only() const override { return true; }
  std::uint64_t space_sample_ops() const override { return 1; }
  std::uint64_t max_ops() const override { return kUnbounded; }

 private:
  std::uint64_t Tag(std::uint32_t id) const { return Mix(seed_ ^ Mix(id)); }

  void Refill() override {
    for (std::uint32_t c = 0; c < kClasses; ++c) {
      Push(Act::kReaddir, 1 + c, 0, kPerClass);
    }
    std::vector<std::uint32_t> order(sizes_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(order, rng_);
    for (std::uint32_t i : order) {
      const std::uint32_t id = kFirstFile + i;
      Push(Act::kOpen, id, 0, 0, true);
      Push(Act::kRead, id, 0, sizes_[i], true);
      Push(Act::kClose, id, 0, 0, true, true);
    }
  }

  std::uint64_t seed_;
  ros2::Rng rng_;
  std::vector<std::uint64_t> sizes_;
};

// ---------------------------------------------------------------- checkpoint
// Rotating sharded checkpoint: each step writes 4 rank files of 8 MiB in
// 1 MiB pwrites (then fsync + close), restores every rank in a shuffled
// order, and unlinks the previous step's files.

class CheckpointStream final : public QueuedStream {
 public:
  static constexpr std::uint32_t kRanks = 4;
  static constexpr std::uint32_t kBlocks = 8;
  static constexpr std::uint64_t kBlock = kMiB;

  explicit CheckpointStream(std::uint64_t seed) : seed_(seed), rng_(seed) {
    paths_.assign(1 + 2 * kRanks, "");
    paths_[0] = "/ckpt";
  }

  std::vector<Action> Setup() override { return {{Act::kMkdir, 0}}; }
  void Fill(const Action& a, std::span<std::byte> out) override {
    FillWords(out, Tag(a), a.offset);
  }
  bool Check(const Action& a, std::span<const std::byte> got) override {
    return MatchesWords(got, Tag(a), a.offset, &scratch_);
  }
  std::uint64_t space_sample_ops() const override {
    return 3 * 2 * kRanks * kBlocks + kBlocks;  // mid-write of step 3
  }
  std::uint64_t max_ops() const override { return kUnbounded; }

 private:
  static std::uint32_t Slot(std::uint64_t step) { return std::uint32_t(step % 2); }
  static std::uint32_t Id(std::uint32_t slot, std::uint32_t rank) {
    return 1 + slot * kRanks + rank;
  }

  /// Content key of one block: (seed, step, rank, block).
  std::uint64_t Tag(const Action& a) const {
    const std::uint32_t slot = (a.id - 1) / kRanks;
    const std::uint32_t rank = (a.id - 1) % kRanks;
    return Mix(seed_ ^ Mix(slot_step_[slot] * 131 + rank) ^
               Mix(a.offset / kBlock + 0x51ed));
  }

  void Refill() override {
    const std::uint32_t slot = Slot(step_);
    slot_step_[slot] = step_;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      paths_[Id(slot, r)] =
          "/ckpt/step" + std::to_string(step_) + "-rank" + std::to_string(r);
    }
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      const std::uint32_t id = Id(slot, r);
      Push(Act::kCreate, id);
      for (std::uint32_t b = 0; b < kBlocks; ++b) {
        Push(Act::kWrite, id, b * kBlock, kBlock, true, true);
      }
      Push(Act::kFsync, id);
      Push(Act::kClose, id);
    }
    std::vector<std::uint32_t> order(kRanks);
    for (std::uint32_t r = 0; r < kRanks; ++r) order[r] = r;
    Shuffle(order, rng_);
    for (std::uint32_t r : order) {
      const std::uint32_t id = Id(slot, r);
      Push(Act::kOpen, id);
      for (std::uint32_t b = 0; b < kBlocks; ++b) {
        Push(Act::kRead, id, b * kBlock, kBlock, true, true);
      }
      Push(Act::kClose, id);
    }
    if (step_ > 0) {
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        Push(Act::kUnlink, Id(Slot(step_ - 1), r));
      }
    }
    ++step_;
  }

  std::uint64_t seed_;
  ros2::Rng rng_;
  std::uint64_t step_ = 0;
  std::uint64_t slot_step_[2] = {0, 0};
};

// ----------------------------------------------------------------- random_rw
// 8 files of 4 MiB prefilled with whole 1 MiB chunk writes, then a 70/30
// mix of 4 KiB-aligned 4-64 KiB preads and overwrites, checked against an
// in-memory shadow copy.

class RandomRwStream final : public Stream {
 public:
  static constexpr std::uint32_t kFiles = 8;
  static constexpr std::uint64_t kFileSize = 4 * kMiB;

  explicit RandomRwStream(std::uint64_t seed)
      : seed_(seed), rng_(seed), shadow_(kFiles * kFileSize) {
    paths_.push_back("/rw");
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      paths_.push_back("/rw/file" + std::to_string(f));
    }
  }

  std::vector<Action> Setup() override {
    std::vector<Action> out{{Act::kMkdir, 0}};
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      out.push_back({Act::kCreate, 1 + f});
      for (std::uint64_t off = 0; off < kFileSize; off += kMiB) {
        out.push_back({Act::kWrite, 1 + f, off, kMiB});
      }
    }
    return out;
  }
  Action Next() override {
    Action a;
    a.act = rng_.Below(10) < 7 ? Act::kRead : Act::kWrite;
    a.id = 1 + std::uint32_t(rng_.Below(kFiles));
    a.length = SmallIoSize(rng_);
    a.offset = rng_.Below((kFileSize - a.length) / (4 * kKiB) + 1) * 4 * kKiB;
    a.in_op = true;
    a.op_end = true;
    return a;
  }
  void Fill(const Action& a, std::span<std::byte> out) override {
    FillWords(out, Mix(seed_ ^ Mix(++writes_)), a.offset);
    std::memcpy(Shadow(a), out.data(), out.size());
  }
  bool Check(const Action& a, std::span<const std::byte> got) override {
    return std::memcmp(Shadow(a), got.data(), got.size()) == 0;
  }
  std::uint64_t space_sample_ops() const override { return 10000; }
  // ~12k overwrites of <= 64 KiB land in SCM and are never aggregated;
  // the cap keeps them inside the default 64 MiB per-target arena (the
  // fullest target runs out at about 56k ops).
  std::uint64_t max_ops() const override { return 40000; }

 private:
  std::byte* Shadow(const Action& a) {
    return shadow_.data() + (a.id - 1) * kFileSize + a.offset;
  }

  std::uint64_t seed_;
  ros2::Rng rng_;
  ros2::Buffer shadow_;
  std::uint64_t writes_ = 0;
};

template <class S>
std::unique_ptr<Stream> Make(std::uint64_t seed) {
  return std::make_unique<S>(seed);
}

// Warm-up: one dataloader epoch, 64 checkpoint steps, 2000 random ops.
const WorkloadSpec kWorkloads[] = {
    {"dataloader", false, &Make<DataloaderStream>, 2400, 8192},
    {"checkpoint", false, &Make<CheckpointStream>, 100, 64 * 64},
    {"random_rw", false, &Make<RandomRwStream>, 270, 2000},
    {"random_rw_dpu_tcp", true, &Make<RandomRwStream>, 270, 2000},
};

/// Process user + system CPU time.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : kWorkloads) out.push_back(w.name);
  return out;
}

void FillWords(std::span<std::byte> out, std::uint64_t tag,
               std::uint64_t offset) {
  std::uint64_t word = offset / 8;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8, ++word) {
    const std::uint64_t x = Mix(tag ^ (word * 0xD1B54A32D192ED03ull));
    std::memcpy(out.data() + i, &x, 8);
  }
  if (i < out.size()) {
    const std::uint64_t x = Mix(tag ^ (word * 0xD1B54A32D192ED03ull));
    std::memcpy(out.data() + i, &x, out.size() - i);
  }
}

// ------------------------------------------------------------------ Runner

Runner::Runner(Layer* layer, Stream* stream, std::string root)
    : layer_(layer),
      stream_(stream),
      root_(std::move(root)),
      handles_(stream->path_count(), 0),
      sizes_(stream->path_count(), 0),
      buf_(kMiB) {}

Status Runner::Setup() {
  if (!root_.empty()) ROS2_RETURN_IF_ERROR(layer_->Mkdir(root_));
  Tally setup;
  for (const Action& a : stream_->Setup()) {
    if (!Execute(a, &setup)) {
      return ros2::Internal("setup failed: " + setup.first_error);
    }
  }
  return Status::Ok();
}

void Runner::Run(std::uint64_t ops, Clock::time_point deadline, Tally* t) {
  const double cpu0 = CpuSeconds();
  const Clock::time_point w0 = Clock::now();
  for (std::uint64_t done = 0; done < ops;) {
    const Action a = stream_->Next();
    if (!Execute(a, t)) break;
    if (a.op_end) {
      ++done;
      if (Clock::now() >= deadline) break;
    }
  }
  t->wall_s += Seconds(Clock::now() - w0);
  t->cpu_s += CpuSeconds() - cpu0;
}

std::uint64_t Runner::live_bytes() const {
  std::uint64_t total = 0;
  for (std::uint64_t s : sizes_) total += s;
  return total;
}

std::string Runner::FullPath(std::uint32_t id) const {
  return root_ + stream_->path(id);
}

void Runner::Hash(const Action& a) {
  auto mix = [this](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xff;
      digest_ *= 0x100000001b3ull;
    }
  };
  mix(std::uint64_t(a.act) | std::uint64_t(a.in_op) << 8 |
      std::uint64_t(a.op_end) << 9 | std::uint64_t(a.id) << 16);
  mix(a.offset);
  mix(a.length);
  if (a.act == Act::kCreate) {
    for (char c : stream_->path(a.id)) mix(std::uint8_t(c));
  }
}

bool Runner::Execute(const Action& a, Tally* t) {
  Hash(a);
  if (a.act == Act::kReaddir && !layer_->has_namespace()) return true;
  const bool data = a.act == Act::kRead || a.act == Act::kWrite;
  if (data && a.length > buf_.size()) buf_.resize(a.length);
  std::span<std::byte> io(buf_.data(), data ? a.length : 0);
  if (a.act == Act::kWrite) stream_->Fill(a, io);

  Status s;
  const Clock::time_point start = Clock::now();
  switch (a.act) {
    case Act::kMkdir:
      s = layer_->Mkdir(FullPath(a.id));
      break;
    case Act::kReaddir: {
      Result<std::uint64_t> n = layer_->Readdir(FullPath(a.id));
      s = n.status();
      if (s.ok() && *n != a.length) s = ros2::DataLoss("readdir entry count");
      break;
    }
    case Act::kCreate:
    case Act::kOpen: {
      Result<Handle> h = layer_->Open(FullPath(a.id), a.act == Act::kCreate);
      s = h.status();
      if (s.ok()) handles_[a.id] = *h;
      break;
    }
    case Act::kClose:
      s = layer_->Close(handles_[a.id]);
      break;
    case Act::kFsync:
      s = layer_->Fsync(handles_[a.id]);
      break;
    case Act::kUnlink:
      s = layer_->Unlink(FullPath(a.id));
      break;
    case Act::kRead:
      s = layer_->Read(handles_[a.id], a.offset, io);
      break;
    case Act::kWrite:
      s = layer_->Write(handles_[a.id], a.offset, io);
      break;
  }
  const double dt = Seconds(Clock::now() - start);

  if (!s.ok()) {
    ++t->failed_calls;
    ++t->attempted;
    if (t->first_error.empty()) {
      t->first_error = std::string(layer_->name()) + " " + FullPath(a.id) +
                       ": " + s.ToString();
    }
    return false;
  }
  switch (a.act) {
    case Act::kRead:
      ++t->reads;
      t->read_bytes += a.length;
      t->read_call_s += dt;
      t->read_us.push_back(float(dt * 1e6));
      if (!stream_->Check(a, io)) {
        ++t->mismatches;
        if (t->first_error.empty()) {
          t->first_error = std::string(layer_->name()) + " " +
                           FullPath(a.id) + ": read-back mismatch at offset " +
                           std::to_string(a.offset);
        }
      }
      break;
    case Act::kWrite:
      ++t->writes;
      t->write_bytes += a.length;
      t->write_call_s += dt;
      t->write_us.push_back(float(dt * 1e6));
      sizes_[a.id] = std::max(sizes_[a.id], a.offset + a.length);
      break;
    case Act::kCreate:
    case Act::kUnlink:
      sizes_[a.id] = 0;
      break;
    default:
      break;
  }
  if (a.in_op) pending_op_s_ += dt;
  if (a.op_end) {
    ++t->ops;
    ++t->attempted;
    t->op_s += pending_op_s_;
    pending_op_s_ = 0;
  }
  return true;
}

}  // namespace e2ebench
