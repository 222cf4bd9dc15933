// Closed-loop workload driver over the queueing network.
//
// Mirrors FIO's execution model: `contexts` independent I/O contexts
// (numjobs x iodepth), each keeping exactly one operation in flight. When an
// op completes the context immediately issues the next one. The driver is an
// activity-scanning DES: a min-heap orders contexts by their next issue
// time; each pop plans one op (via the caller's planner), walks it through
// its stages, and reschedules the context at the op's completion time.
//
// The hot loop is allocation-free and O(contexts) in memory:
//   * plans use fixed-capacity inline stage storage and the engine hands
//     the SAME plan object (cleared) to the planner for every op;
//   * the planner is a template parameter: every caller passes a lambda
//     to the inline engine, so planning fuses into the loop;
//   * steady-state statistics stream through an O(1)-state accumulator
//     instead of buffering one completion record per op and sorting;
//   * the context heap is a flat replace-top binary heap: one sift-down
//     per op instead of a priority_queue pop+push pair.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/histogram.h"
#include "sim/resource.h"

namespace ros2::sim {

/// One visit in an op's path: occupy one server of `pool` for `service`
/// seconds (for pipes, the caller pre-computes bytes/rate).
struct Stage {
  ServerPool* pool = nullptr;
  double service = 0.0;
};

/// Fixed-capacity stage storage for OpPlan. The deepest modeled path (the
/// DFS model with every ablation enabled) visits 12 stations; 16 leaves
/// headroom without making the plan object large. Exceeding the capacity
/// aborts: a deeper path is a modeling change that must raise kCapacity,
/// not silently drop stages.
class StageList {
 public:
  static constexpr std::uint32_t kCapacity = 16;

  void push_back(const Stage& stage) {
    if (size_ == kCapacity) std::abort();
    stages_[size_++] = stage;
  }
  void clear() { size_ = 0; }

  const Stage* begin() const { return stages_; }
  const Stage* end() const { return stages_ + size_; }
  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  Stage stages_[kCapacity];
  std::uint32_t size_ = 0;
};

/// The planned path of a single operation through the network. Plain inline
/// data — building or copying one never touches the heap.
struct OpPlan {
  /// Visited in order; empty stages (null pool) contribute only fixed time.
  StageList stages;
  /// Unqueued latency added at the end (e.g. propagation, interrupt delay).
  double fixed_latency = 0.0;
  /// Payload size, counted toward byte throughput.
  std::uint64_t bytes = 0;

  void Clear() {
    stages.clear();
    fixed_latency = 0.0;
    bytes = 0;
  }
};

struct ClosedLoopConfig {
  /// Number of one-deep closed-loop contexts (numjobs * iodepth).
  std::uint32_t contexts = 1;
  /// Total operations to run across all contexts.
  std::uint64_t total_ops = 10000;
  /// Head/tail fraction excluded from the throughput window (warmup/drain).
  double trim_fraction = 0.1;
};

struct ClosedLoopResult {
  double makespan = 0.0;         ///< completion time of the last op
  double ops_per_sec = 0.0;      ///< steady-state (trimmed-window) op rate
  double bytes_per_sec = 0.0;    ///< steady-state byte rate
  std::uint64_t completed_ops = 0;
  LatencyHistogram latency;      ///< per-op end-to-end latency
};

namespace internal {

/// One context in the issue heap: its latest completion time (= next issue
/// time) and its id. Per-context payload state lives in side arrays indexed
/// by id so only 16 bytes move through the heap.
struct HeapSlot {
  SimTime at = 0.0;
  std::uint32_t id = 0;
};

/// Min-order on time; tie-break on id for determinism. (at, id) is a total
/// order, so ANY conforming heap pops the exact same sequence — the
/// replace-top heap below is pop-for-pop identical to a priority_queue.
/// Written branch-free (| and & over comparison bits): the child-selection
/// outcome in SiftDown is data-dependent noise a branch predictor cannot
/// learn, and mispredicts there dominated the whole engine loop.
inline bool EarlierSlot(const HeapSlot& a, const HeapSlot& b) {
  return (a.at < b.at) | ((a.at == b.at) & (a.id < b.id));
}

/// Heap arity. 4-ary halves the depth of the sift walk (the hot workloads
/// run hundreds of contexts) and a node's children share one cache line;
/// with branchless min-of-children selection this is ~2.5x faster per op
/// than the classic binary sift-down.
inline constexpr std::uint32_t kHeapArity = 4;

/// Restores the heap property after heap[i] changed. The closed loop only
/// ever replaces the top (pop-min immediately followed by push of the same
/// context's next completion), so one sift-down per op replaces the
/// pop+push pair a priority_queue would charge.
inline void SiftDown(HeapSlot* heap, std::uint32_t size, std::uint32_t i) {
  const HeapSlot moving = heap[i];
  while (true) {
    const std::uint32_t first = kHeapArity * i + 1;
    if (first >= size) break;
    std::uint32_t best;
    if (first + kHeapArity <= size) {
      // Full node: tree-shaped min reduction. The two pair-minima are
      // independent (half the cmov dependency chain of a linear scan), and
      // (at, id) is strictly total so association order can't change the
      // winner.
      const std::uint32_t b1 =
          EarlierSlot(heap[first + 1], heap[first]) ? first + 1 : first;
      const std::uint32_t b2 =
          EarlierSlot(heap[first + 3], heap[first + 2]) ? first + 3
                                                        : first + 2;
      best = EarlierSlot(heap[b2], heap[b1]) ? b2 : b1;
    } else {
      best = first;
      for (std::uint32_t child = first + 1; child < size; ++child) {
        best = EarlierSlot(heap[child], heap[best]) ? child : best;
      }
    }
    if (!EarlierSlot(heap[best], moving)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = moving;
}

inline void SiftUp(HeapSlot* heap, std::uint32_t i) {
  const HeapSlot moving = heap[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / kHeapArity;
    if (!EarlierSlot(moving, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = moving;
}

/// Priority queue specialized for the closed loop's access pattern.
///
/// A context's new completion is its (globally minimal) issue time plus a
/// full end-to-end latency, which usually lands it PAST every other
/// context's pending completion — extraction is nearly FIFO. The queue
/// keeps a sorted ring: inserts that are >= the ring's tail (the common
/// case, O(1), branch-predictable) append; out-of-order inserts go to a
/// small overflow 4-ary heap (bimodal-latency models like the DFS SCM/SSD
/// tiering land fast completions there). Extraction takes the smaller of
/// ring head and heap top under the same (at, id) total order, so the pop
/// sequence is element-for-element identical to one global heap.
class IssueQueue {
 public:
  explicit IssueQueue(std::uint32_t contexts) {
    capacity_mask_ = 1;
    while (capacity_mask_ < std::size_t(contexts) + 1) capacity_mask_ <<= 1;
    ring_.resize(capacity_mask_);
    --capacity_mask_;
    // Initial state: every context pending at t=0, ids ascending — already
    // sorted, preload the ring.
    for (std::uint32_t c = 0; c < contexts; ++c) ring_[c] = {0.0, c};
    tail_ = contexts;
    heap_.reserve(contexts);
  }

  bool Empty() const { return head_ == tail_ && heap_.empty(); }

  HeapSlot PopMin() {
    const bool ring_has = head_ != tail_;
    if (heap_.empty() ||
        (ring_has && EarlierSlot(ring_[head_ & capacity_mask_], heap_[0]))) {
      return ring_[head_++ & capacity_mask_];
    }
    const HeapSlot top = heap_[0];
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(heap_.data(), std::uint32_t(heap_.size()), 0);
    return top;
  }

  void Push(const HeapSlot& slot) {
    if (head_ == tail_ ||
        EarlierSlot(ring_[(tail_ - 1) & capacity_mask_], slot)) {
      ring_[tail_++ & capacity_mask_] = slot;
      return;
    }
    heap_.push_back(slot);
    SiftUp(heap_.data(), std::uint32_t(heap_.size()) - 1);
  }

 private:
  std::vector<HeapSlot> ring_;  // sorted circular buffer
  std::size_t capacity_mask_ = 0;
  std::size_t head_ = 0;  // monotonically increasing; masked on access
  std::size_t tail_ = 0;
  std::vector<HeapSlot> heap_;  // out-of-order overflow (4-ary min-heap)
};

/// Streaming replacement for the old per-op completion buffer + terminal
/// O(n log n) sort. It relies on completions being COMMITTED in globally
/// sorted time order (see RunClosedLoop), which lets it compute the exact
/// same trimmed-window rates with O(1) state: the completion times at the
/// two window boundary ranks plus the byte sum between them.
class SteadyStateAccumulator {
 public:
  SteadyStateAccumulator(std::uint64_t total_ops, double trim_fraction) {
    const double clamped =
        trim_fraction < 0.0 ? 0.0 : (trim_fraction > 0.45 ? 0.45 : trim_fraction);
    const auto trim = std::uint64_t(double(total_ops) * clamped);
    lo_ = trim;
    hi_ = total_ops - 1 - trim;
  }

  /// Feed completion number `index_` of the sorted-by-time stream.
  void Commit(SimTime at, std::uint64_t bytes) {
    const std::uint64_t i = index_++;
    if (i == lo_) lo_at_ = at;
    if (i > lo_ && i <= hi_) window_bytes_ += bytes;
    if (i == hi_) hi_at_ = at;
    total_bytes_ += bytes;
    last_at_ = at;  // sorted stream: the last commit is the makespan
  }

  void Finish(ClosedLoopResult* result) const {
    result->completed_ops = index_;
    result->makespan = last_at_;
    if (hi_ > lo_ && hi_at_ > lo_at_) {
      const double window = hi_at_ - lo_at_;
      result->ops_per_sec = double(hi_ - lo_) / window;
      result->bytes_per_sec = double(window_bytes_) / window;
    } else {
      // Degenerate (tiny op counts): fall back to makespan averages.
      result->ops_per_sec = double(index_) / result->makespan;
      result->bytes_per_sec = double(total_bytes_) / result->makespan;
    }
  }

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t index_ = 0;
  SimTime lo_at_ = 0.0;
  SimTime hi_at_ = 0.0;
  SimTime last_at_ = 0.0;
  std::uint64_t window_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace internal

/// Runs the closed loop to completion. Resources referenced by plans must
/// have been Reset() by the caller if reused across runs. `source` is any
/// callable `void(std::uint32_t context_id, std::uint64_t op_index,
/// OpPlan& plan)` that plans op number `op_index` for context `context_id`
/// into `plan` (handed over cleared; fill, don't Clear). It is called
/// exactly once per issued op, in issue-time order, and only during this
/// call (safe to pass a temporary lambda). The engine owns the plan object
/// and reuses it across ops, so a planner must not keep pointers into it
/// across calls. Defined inline so a caller's planner fuses into the
/// engine loop — the perf models call this directly.
template <typename Source>
ClosedLoopResult RunClosedLoop(const ClosedLoopConfig& config,
                               Source&& source) {
  assert(config.contexts > 0);
  ClosedLoopResult result;
  if (config.total_ops == 0) return result;

  const std::uint32_t contexts = config.contexts;
  // All O(contexts) run state, allocated once up front; the per-op loop is
  // allocation-free.
  internal::IssueQueue queue(contexts);
  // Payload of the op that completed at queue entry `at`, not yet committed
  // to the accumulator; valid once `started`.
  std::vector<std::uint64_t> pending_bytes(contexts, 0);
  // False only before a context's first op: `at` == 0.0 is then a start
  // time, not a completion.
  std::vector<unsigned char> started(contexts, 0);

  // Each context's completion times are strictly ordered, so the completion
  // stream is a k-way merge of `contexts` sorted sequences — and the issue
  // queue IS the merge structure: when a context pops (minimal next_issue
  // over all contexts, every one of which still holds its latest completion
  // as its key), its previous completion is the global minimum of all
  // uncommitted completions and can be committed to the sorted stream.
  internal::SteadyStateAccumulator stats(config.total_ops,
                                         config.trim_fraction);

  // The one plan object of the whole run, recycled op to op.
  OpPlan plan;

  std::uint64_t issued = 0;
  while (issued < config.total_ops) {
    const internal::HeapSlot top = queue.PopMin();
    if (started[top.id]) {
      stats.Commit(top.at, pending_bytes[top.id]);
    } else {
      started[top.id] = 1;
    }

    plan.Clear();
    source(top.id, issued, plan);
    ++issued;

    SimTime t = top.at;
    for (const Stage& stage : plan.stages) {
      if (stage.pool != nullptr) {
        t = stage.pool->Serve(t, stage.service);
      } else {
        t += stage.service;
      }
    }
    t += plan.fixed_latency;

    result.latency.Record(t - top.at);

    pending_bytes[top.id] = plan.bytes;
    queue.Push({t, top.id});
  }

  // Drain: pop the queue dry; it releases the still-pending completions in
  // time order. Contexts that never issued (total_ops < contexts) carry
  // their start time, not a completion — skip them.
  while (!queue.Empty()) {
    const internal::HeapSlot top = queue.PopMin();
    if (started[top.id]) stats.Commit(top.at, pending_bytes[top.id]);
  }

  stats.Finish(&result);
  return result;
}

}  // namespace ros2::sim
