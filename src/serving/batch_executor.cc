#include "serving/batch_executor.h"

#include <chrono>

#include "common/hash.h"
#include "testing/fault_injection.h"

namespace serenade {

void RealBatchClock::WaitFor(std::condition_variable& cv,
                             std::unique_lock<std::mutex>& lock,
                             uint64_t micros,
                             const std::function<bool()>& pred) {
  cv.wait_for(lock, std::chrono::microseconds(micros), pred);
}

RealBatchClock* RealBatchClock::Instance() {
  static RealBatchClock instance;
  return &instance;
}

BatchExecutor::BatchExecutor(SerenadeService* service,
                             BatchExecutorConfig config,
                             MetricsRegistry* registry, BatchClock* clock)
    : service_(service),
      config_(config),
      clock_(clock != nullptr ? clock : RealBatchClock::Instance()) {
  if (registry == nullptr) return;
  registry->AddCallback(
      "serenade_batches_total", "micro-batches executed",
      MetricType::kCounter, "", [this]() -> std::vector<MetricSample> {
        return {{"", batches_executed()}};
      });
  registry->AddCallback(
      "serenade_batch_requests_total",
      "requests executed through the micro-batch path", MetricType::kCounter,
      "", [this]() -> std::vector<MetricSample> {
        return {{"", requests_executed()}};
      });
  registry->AddCallback(
      "serenade_batch_rejected_total",
      "requests shed because the submission queue was full",
      MetricType::kCounter, "", [this]() -> std::vector<MetricSample> {
        return {{"", requests_rejected()}};
      });
  // Coalescing factor = requests per batch; x100 because the exposition
  // layer carries integer samples.
  registry->AddCallback(
      "serenade_batch_coalescing_factor_x100",
      "mean requests per micro-batch, times 100", MetricType::kGauge, "",
      [this]() -> std::vector<MetricSample> {
        const uint64_t batches = batches_executed();
        const uint64_t requests = requests_executed();
        return {{"", batches == 0 ? 0 : requests * 100 / batches}};
      });
  batch_size_hist_ = &registry->AddHistogram(
      "serenade_batch_size", "requests coalesced into one micro-batch");
  queue_wait_micros_ = &registry->AddHistogram(
      "serenade_batch_queue_wait_microseconds",
      "submission-to-pickup wait in the batch queue");
}

BatchExecutor::~BatchExecutor() { Stop(); }

Status BatchExecutor::Start() {
  if (passthrough()) return Status::Ok();
  if (!workers_.empty()) return Status::AlreadyExists("executor started");
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  stopping_.store(false);
  // Threads start only after every Worker slot exists: WorkerLoop never
  // sees a resizing vector.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  }
  return Status::Ok();
}

void BatchExecutor::Stop() {
  if (stopping_.exchange(true)) return;
  for (auto& worker : workers_) {
    worker->cv.notify_all();
    if (worker->thread.joinable()) worker->thread.join();
  }
}

StatusOr<std::future<BatchExecutor::Result>> BatchExecutor::SubmitAsync(
    const RecommendRequest& request, Trace* trace) {
  if (workers_.empty()) {
    return Status::Unavailable("batch executor not started");
  }
  SERENADE_FAULT_POINT(FaultSite::kBatchQueueFull, {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "injected: batch queue full (overloaded)");
  });
  auto op = std::make_unique<PendingOp>();
  op->request = request;
  op->trace = trace;
  std::future<Result> future = op->promise.get_future();

  Worker& worker =
      *workers_[Fnv1a(request.session_key) % workers_.size()];
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("batch executor is stopped");
    }
    if (worker.queue.size() >= config_.max_queue_per_worker) {
      // Load shedding, not an outage: kResourceExhausted surfaces as HTTP
      // 429 + Retry-After so clients (and the click tap) back off.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("batch queue full (overloaded)");
    }
    worker.queue.push_back(std::move(op));
  }
  worker.cv.notify_one();
  return future;
}

void BatchExecutor::WorkerLoop(Worker& worker) {
  while (true) {
    std::vector<std::unique_ptr<PendingOp>> batch;
    {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.cv.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               !worker.queue.empty();
      });
      // Drain accepted work before exiting: every submitted promise is
      // fulfilled even across Stop().
      if (worker.queue.empty()) return;
      if (config_.max_delay_us > 0 &&
          worker.queue.size() < config_.max_batch_size &&
          !stopping_.load(std::memory_order_relaxed)) {
        clock_->WaitFor(
            worker.cv, lock, config_.max_delay_us, [&] {
              return stopping_.load(std::memory_order_relaxed) ||
                     worker.queue.size() >= config_.max_batch_size;
            });
      }
      while (!worker.queue.empty() && batch.size() < config_.max_batch_size) {
        batch.push_back(std::move(worker.queue.front()));
        worker.queue.pop_front();
      }
    }
    RunBatch(std::move(batch));
  }
}

void BatchExecutor::RunBatch(std::vector<std::unique_ptr<PendingOp>> batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  if (batch_size_hist_ != nullptr) batch_size_hist_->Record(batch.size());

  std::vector<RecommendRequest> requests;
  std::vector<Trace*> traces;
  requests.reserve(batch.size());
  traces.reserve(batch.size());
  for (auto& op : batch) {
    const uint64_t waited = op->queued.ElapsedMicros();
    if (queue_wait_micros_ != nullptr) queue_wait_micros_->Record(waited);
    if (op->trace != nullptr) {
      op->trace->Record(TraceStage::kQueueWait, waited);
    }
    requests.push_back(op->request);
    traces.push_back(op->trace);
  }

  std::vector<Result> results =
      service_->HandleUpdateAndRecommendBatch(requests, traces);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->promise.set_value(std::move(results[i]));
  }
}

std::vector<BatchExecutor::Result> BatchExecutor::RunInline(
    const std::vector<RecommendRequest>& requests, Trace* trace) {
  return service_->HandleUpdateAndRecommendBatch(
      requests, std::vector<Trace*>(requests.size(), trace));
}

BatchExecutor::Result BatchExecutor::Execute(const RecommendRequest& request,
                                             Trace* trace) {
  if (passthrough()) return std::move(RunInline({request}, trace)[0]);
  auto pending = SubmitAsync(request, trace);
  if (!pending.ok()) return pending.status();
  return pending->get();
}

std::vector<BatchExecutor::Result> BatchExecutor::ExecuteBatch(
    const std::vector<RecommendRequest>& requests, Trace* trace) {
  if (passthrough()) {
    // Still amortised: the whole client batch runs as one service batch
    // (and counts as one, so the coalescing metrics stay truthful).
    batches_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(requests.size(), std::memory_order_relaxed);
    if (batch_size_hist_ != nullptr) {
      batch_size_hist_->Record(requests.size());
    }
    return RunInline(requests, trace);
  }
  // Scatter across the worker queues (session-key affinity keeps
  // duplicate keys ordered), then gather in slot order.
  std::vector<Result> results;
  results.reserve(requests.size());
  std::vector<std::pair<size_t, std::future<Result>>> pending;
  pending.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results.push_back(Status::Internal("batch slot not filled"));
    auto submitted = SubmitAsync(requests[i], nullptr);
    if (!submitted.ok()) {
      results[i] = submitted.status();
      continue;
    }
    pending.emplace_back(i, std::move(submitted).value());
  }
  for (auto& [slot, future] : pending) {
    results[slot] = future.get();
  }
  return results;
}

}  // namespace serenade
