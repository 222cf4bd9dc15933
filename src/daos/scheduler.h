// Per-target execution streams ("xstreams") for the DAOS engine (§3.3).
//
// "The engine spawns one xstream per target; the CaRT progress loop
// decodes incoming RPCs and hands each one to the xstream owning its
// dkey." This scheduler is that structure, with one op path:
//
//  - ONE QUEUE: every target owns a FIFO of QueuedOp{ctx, op} (the
//    deferred rpc::RpcContext plus its bound VOS operation). Ops on the
//    same target (and therefore the same dkey, since placement is by
//    dkey) execute strictly in arrival order.
//  - ONE BODY: Execute runs the op, stamping exec start/end on the context
//    and adding the elapsed time to the target's busy_ns shard.
//  - ONE REPLY STEP: RpcContext::Complete, then the executed count and the
//    queued accounting, always on the progress path (CaRT's rule: reply
//    serialization stays on the network progress thread).
//
// EngineSchedulerOptions::threaded selects only the executor:
//
//  - INLINE (default): the progress path executes. Each ProgressOnce() is
//    one round-robin pass — at most one op per target, with a rotating
//    start target so one hot target cannot starve the others — that runs
//    each op and replies in place. Deterministic; what the single-threaded
//    tests and the perf model pin.
//  - WORKER: every target's FIFO is the bounded MPSC submit queue of a
//    real worker thread (daos::Xstream) — the Argobots-xstream-per-target
//    shape. The worker runs the body, then hands the reply to a completion
//    queue; the next ProgressOnce() performs the reply step for every
//    finished op.
//
// Quiesce and Shutdown are the same for both: quiesce (or stop) any
// workers, then run passes until idle. Epoch stamping, container lookup,
// and bulk movement all happen at execution time on the target's stream,
// exactly like a ULT body; the decode step only routed the request here.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "daos/xstream.h"
#include "rpc/data_rpc.h"
#include "telemetry/metrics.h"

namespace ros2::daos {

struct EngineSchedulerOptions {
  /// false: the inline executor (the progress path runs each op).
  /// true: one worker thread per target + completion hand-off.
  bool threaded = false;
  /// Stamp execution start/end on each context and accumulate per-target
  /// busy time (two clock reads per op). The engine wires this to
  /// EngineConfig::telemetry so an uninstrumented engine pays nothing.
  bool time_ops = true;
};

class EngineScheduler {
 public:
  /// The deferred body: runs on the target's stream, returns the reply
  /// (or error) for its context. Receives the context for bulk access.
  using OpFn = std::function<Result<Buffer>(rpc::RpcContext& ctx)>;

  explicit EngineScheduler(std::uint32_t targets,
                           EngineSchedulerOptions options = {});
  ~EngineScheduler();
  EngineScheduler(const EngineScheduler&) = delete;
  EngineScheduler& operator=(const EngineScheduler&) = delete;

  /// Parks `ctx` on `target`'s FIFO. With workers this blocks while the
  /// target's submit queue is full (Xstream::kDefaultQueueCapacity); after
  /// Shutdown() the context is completed with UNAVAILABLE instead.
  void Enqueue(std::uint32_t target, rpc::RpcContextPtr ctx, OpFn op);

  /// One progress pass; returns the ops replied to. Inline: executes at
  /// most one queued op per target (the pass's start target rotates so
  /// draining is fair under load). Workers: replies to every op the
  /// workers have finished (non-blocking).
  std::size_t ProgressOnce();

  /// BARRIER: every op enqueued before this call has executed AND its
  /// reply has been sent when it returns. Quiesces any workers, then runs
  /// passes until idle. Callers must not Enqueue concurrently with a
  /// Quiesce they depend on. Returns ops replied to.
  std::size_t Quiesce();

  /// Stops any workers (queued ops still execute — a clean shutdown loses
  /// no requests), then runs passes until idle. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// Invoked (from a worker thread) whenever a finished reply lands on
  /// the completion queue — the engine points this at PollSet::Ring() so
  /// a blocked progress thread wakes to send it. Set before any Enqueue.
  void set_completion_wakeup(std::function<void()> fn) {
    completion_wakeup_ = std::move(fn);
  }

  bool threaded() const { return threaded_; }
  bool idle() const {
    return queued_total_.load(std::memory_order_acquire) == 0;
  }
  std::uint32_t num_targets() const { return num_targets_; }
  /// Ops accepted but not yet replied to.
  std::size_t queued() const {
    return queued_total_.load(std::memory_order_acquire);
  }
  std::size_t queued(std::uint32_t target) const;
  std::uint64_t executed() const { return executed_.value(); }
  /// Ops executed on one target (its counter shard).
  std::uint64_t executed(std::uint32_t target) const {
    return executed_.shard_value(target);
  }
  /// Time spent executing op bodies, total and per target (0 unless
  /// time_ops; accumulated by the executing thread into its own shard).
  std::uint64_t busy_ns() const { return busy_ns_.value(); }
  std::uint64_t busy_ns(std::uint32_t target) const {
    return busy_ns_.shard_value(target);
  }
  /// The counters behind executed() and busy_ns(), for metric-tree links.
  const telemetry::Counter& executed_counter() const { return executed_; }
  const telemetry::Counter& busy_ns_counter() const { return busy_ns_; }
  /// Time a target's worker spent parked waiting for work (workers only;
  /// 0 inline, where idleness belongs to the progress loop).
  std::uint64_t idle_ns(std::uint32_t target) const;
  bool time_ops() const { return time_ops_; }
  /// High-water mark of total queued ops (pipeline depth telemetry).
  std::size_t max_queue_depth() const {
    return high_water_.load(std::memory_order_acquire);
  }

 private:
  struct QueuedOp {
    rpc::RpcContextPtr ctx;
    OpFn op;
  };
  struct Completion {
    rpc::RpcContextPtr ctx;
    Result<Buffer> reply;
    std::uint32_t target = 0;
  };

  void NoteQueued();
  /// The op body: exec stamps around the op, busy time to `target`.
  Result<Buffer> Execute(std::uint32_t target, QueuedOp& item);
  /// The reply step (progress path only).
  void Reply(std::uint32_t target, rpc::RpcContext& ctx,
             Result<Buffer> reply);
  void PushCompletion(std::uint32_t target, rpc::RpcContextPtr ctx,
                      Result<Buffer> reply) ROS2_EXCLUDES(completions_mu_);
  std::size_t DrainCompletions() ROS2_EXCLUDES(completions_mu_);

  const bool threaded_;
  const std::uint32_t num_targets_;
  const bool time_ops_;

  // Inline executor: the per-target FIFOs and the pass cursor (owner: the
  // single progress thread — single-owner by contract, so unguarded on
  // purpose; the worker executor never touches them).
  std::vector<std::deque<QueuedOp>> queues_;
  std::uint32_t cursor_ = 0;  // rotating start target for fairness

  // Worker executor: one Xstream per target (its submit queue is the
  // target's FIFO). Workers push onto the completion queue under
  // completions_mu_; the progress thread drains it (lock dropped around
  // each reply so workers keep finishing while replies send).
  std::vector<std::unique_ptr<Xstream>> xstreams_;
  common::Mutex completions_mu_;
  std::deque<Completion> completions_ ROS2_GUARDED_BY(completions_mu_);
  std::function<void()> completion_wakeup_;  // set once, before workers run
  std::atomic<bool> shut_down_{false};

  std::atomic<std::size_t> queued_total_{0};
  std::atomic<std::size_t> high_water_{0};
  // One shard per target: workers tick their own shard, snapshots fold.
  telemetry::Counter executed_;
  telemetry::Counter busy_ns_;
};

}  // namespace ros2::daos
