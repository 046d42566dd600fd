// Micro-batching execution layer for update-and-recommend: a bounded
// per-worker submission queue plus a small worker pool that coalesces
// concurrent requests into micro-batches. Each batch pays the fixed
// per-request costs once — one atomic session-store MultiUpdate, one
// index-snapshot pin, one recommender-pool checkout — and scores every
// item on the shared recommender before scattering results back to the
// waiting connection threads (the batching analogue of the paper's
// Section 6 low-latency serving loop; cf. xGR's batched inference).
//
// Requests are routed to workers by session-key hash, so all traffic for
// one session flows through one FIFO queue and a session's clicks apply
// in submission order. Atomicity does not depend on the routing: every
// batch writes through SessionStore::MultiUpdate.
//
// At max_batch_size <= 1 (the default) the executor degenerates to a
// pass-through: Execute and ExecuteBatch run the service's batch path
// inline on the caller's thread — zero queues, zero handoffs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/service.h"

namespace serenade {

struct BatchExecutorConfig {
  /// Largest micro-batch one worker drains per wakeup (--batch-max-size).
  /// <= 1 disables batching entirely (inline pass-through).
  size_t max_batch_size = 1;
  /// After the first request arrives, how long a worker waits for the
  /// batch to fill before running it anyway (--batch-max-delay-us).
  /// 0 = drain whatever is queued immediately ("natural" batching only).
  uint64_t max_delay_us = 0;
  /// Worker threads (session keys hash-partition across them).
  size_t num_workers = 2;
  /// Per-worker queue bound; submissions beyond it are rejected with
  /// kUnavailable (load shedding, surfaced as HTTP 503).
  size_t max_queue_per_worker = 1024;
};

/// The executor's only timing dependence: how a worker waits out the
/// coalescing window after the first request of a batch arrives. The
/// default implementation waits on the wall clock; tests substitute a
/// virtual clock (testing/virtual_clock.h) and advance time explicitly,
/// so batch-composition assertions stop depending on scheduler luck.
class BatchClock {
 public:
  virtual ~BatchClock() = default;

  /// Blocks on `cv` (guarded by `lock`) until `pred()` holds or `micros`
  /// of clock time elapses. Like std::condition_variable::wait_for, the
  /// predicate is evaluated only with the lock held.
  virtual void WaitFor(std::condition_variable& cv,
                       std::unique_lock<std::mutex>& lock, uint64_t micros,
                       const std::function<bool()>& pred) = 0;
};

/// Wall-clock BatchClock: a plain wait_for on the condition variable.
class RealBatchClock : public BatchClock {
 public:
  void WaitFor(std::condition_variable& cv,
               std::unique_lock<std::mutex>& lock, uint64_t micros,
               const std::function<bool()>& pred) override;

  /// Shared process-wide instance (stateless).
  static RealBatchClock* Instance();
};

/// Thread-safe executor facade in front of a SerenadeService. Callers
/// block on Execute()/ExecuteBatch() until their slot's result is ready;
/// worker threads own the actual service calls.
class BatchExecutor {
 public:
  using Result = StatusOr<std::vector<ScoredItem>>;

  /// `service` must outlive the executor. A non-null `registry` receives
  /// the batching metrics (occupancy + queue-wait histograms, batch /
  /// request / rejection counters, coalescing-factor gauge). A non-null
  /// `clock` (which must outlive the executor) replaces the wall clock
  /// for the coalescing window — test-only.
  BatchExecutor(SerenadeService* service, BatchExecutorConfig config,
                MetricsRegistry* registry = nullptr,
                BatchClock* clock = nullptr);
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Starts the worker pool (no-op in pass-through mode).
  Status Start();

  /// Drains the queues (every accepted request still completes), then
  /// joins the workers. Subsequent submissions are rejected.
  void Stop();

  /// True when requests run inline on the caller's thread.
  bool passthrough() const {
    return config_.max_batch_size <= 1 || config_.num_workers == 0;
  }

  /// Executes one request, blocking until its result is ready. In
  /// pass-through mode this runs the service's batch path inline on a
  /// batch of one; otherwise the request is queued, coalesced into a
  /// micro-batch, and `trace` additionally receives a queue_wait span
  /// (batch-wide store/pin spans cover the whole batch's work).
  Result Execute(const RecommendRequest& request, Trace* trace = nullptr);

  /// Executes an explicit client-side batch (POST /v1/recommend:batch):
  /// results[i] corresponds to requests[i]; a failing slot (validation,
  /// queue rejection) never fails its siblings. Duplicate session keys
  /// are applied in slot order. `trace` records the stages in
  /// pass-through only: batching scatters slots across worker threads,
  /// and a Trace belongs to one thread.
  std::vector<Result> ExecuteBatch(
      const std::vector<RecommendRequest>& requests, Trace* trace = nullptr);

  uint64_t batches_executed() const {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t requests_executed() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t requests_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  const BatchExecutorConfig& config() const { return config_; }

 private:
  struct PendingOp {
    RecommendRequest request;
    Trace* trace = nullptr;
    Stopwatch queued;  // submission -> batch pickup = queue wait
    std::promise<Result> promise;
  };
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::unique_ptr<PendingOp>> queue;
    std::thread thread;
  };

  /// Enqueues one op on its session key's worker; fails fast with
  /// kUnavailable when the queue is full or the executor is stopped.
  StatusOr<std::future<Result>> SubmitAsync(const RecommendRequest& request,
                                            Trace* trace);

  /// Pass-through: `requests` as one service batch on this thread.
  std::vector<Result> RunInline(const std::vector<RecommendRequest>& requests,
                                Trace* trace);

  void WorkerLoop(Worker& worker);
  void RunBatch(std::vector<std::unique_ptr<PendingOp>> batch);

  SerenadeService* service_;
  BatchExecutorConfig config_;
  BatchClock* clock_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{true};  // Start() arms the queues

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_{0};
  MetricHistogram* batch_size_hist_ = nullptr;
  MetricHistogram* queue_wait_micros_ = nullptr;
};

}  // namespace serenade
