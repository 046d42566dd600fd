#include "serving/service.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <utility>

#include "common/stopwatch.h"

namespace serenade {

const char* EngineName(EngineKind engine) {
  return engine == EngineKind::kAnn ? "ann" : "vmis";
}

std::optional<EngineKind> ParseEngineKind(const std::string& text) {
  if (text.empty()) return EngineKind::kDefault;
  if (text == "vmis") return EngineKind::kVmis;
  if (text == "ann") return EngineKind::kAnn;
  return std::nullopt;
}

std::string EncodeSession(const EvolvingSession& session) {
  std::string out;
  for (size_t i = 0; i < session.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(session[i]);
  }
  return out;
}

EvolvingSession DecodeSession(const std::string& encoded) {
  EvolvingSession session;
  size_t start = 0;
  while (start < encoded.size()) {
    size_t end = encoded.find(',', start);
    if (end == std::string::npos) end = encoded.size();
    uint32_t item = 0;
    const auto result = std::from_chars(encoded.data() + start,
                                        encoded.data() + end, item);
    if (result.ec == std::errc() && result.ptr == encoded.data() + end) {
      session.push_back(item);
    }
    start = end + 1;
  }
  return session;
}

SerenadeService::SerenadeService(std::shared_ptr<IndexManager> manager,
                                 ItemCatalog catalog, ServiceConfig config)
    : manager_(std::move(manager)),
      catalog_(std::move(catalog)),
      config_(config) {}

StatusOr<std::unique_ptr<SerenadeService>> SerenadeService::Create(
    std::shared_ptr<IndexManager> manager, ItemCatalog catalog,
    ServiceConfig config) {
  if (manager == nullptr) {
    return Status::InvalidArgument("index manager must not be null");
  }
  // Validates the boot snapshot and guards every future reload (same
  // InvalidArgument as a direct ValidateIndexForKnn failure).
  SERENADE_RETURN_IF_ERROR(
      manager->RequireKnnCompatibility(config.knn.m));
  auto service = std::unique_ptr<SerenadeService>(
      new SerenadeService(std::move(manager), std::move(catalog), config));
  auto store = SessionStore::Open(config.store);
  if (!store.ok()) return store.status();
  service->store_ = std::move(store).value();
  return service;
}

StatusOr<std::unique_ptr<SerenadeService>> SerenadeService::Create(
    std::shared_ptr<const SessionIndex> index, ItemCatalog catalog,
    ServiceConfig config) {
  if (index == nullptr) {
    return Status::InvalidArgument("index must not be null");
  }
  return Create(IndexManager::CreateFromIndex(std::move(index)),
                std::move(catalog), config);
}

Status SerenadeService::ReloadIndex(const std::string& path) {
  SERENADE_RETURN_IF_ERROR(manager_->ReloadFromFile(path));
  Prewarm(prewarm_count_.load(std::memory_order_relaxed));
  return Status::Ok();
}

Status SerenadeService::ReloadEmbeddings(const std::string& path) {
  if (embeddings_ == nullptr) {
    return Status::Unavailable("this pod has no embedding manager attached");
  }
  return embeddings_->ReloadFromFile(path);
}

EngineKind SerenadeService::ResolveEngine(EngineKind requested) {
  if (requested != EngineKind::kAnn) return EngineKind::kVmis;
  ann_requests_.fetch_add(1, std::memory_order_relaxed);
  if (ann_available()) return EngineKind::kAnn;
  ann_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return EngineKind::kVmis;
}

Status SerenadeService::ApplyDelta(const IndexDelta& delta,
                                   IndexManager::DeltaApplyInfo* info) {
  SERENADE_RETURN_IF_ERROR(manager_->ApplyDelta(delta, info));
  Prewarm(prewarm_count_.load(std::memory_order_relaxed));
  return Status::Ok();
}

SerenadeService::PooledRecommender SerenadeService::AcquireRecommender(
    const std::shared_ptr<const IndexSnapshot>& snapshot) {
  const uint64_t version = snapshot->version();
  std::vector<PooledRecommender> stale;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    while (!recommender_pool_.empty()) {
      PooledRecommender entry = std::move(recommender_pool_.back());
      recommender_pool_.pop_back();
      if (entry.version == version) return entry;
      // Built against a retired snapshot: destroy outside the lock.
      stale.push_back(std::move(entry));
    }
  }
  stale.clear();
  PooledRecommender fresh;
  fresh.version = version;
  fresh.snapshot = snapshot;
  fresh.recommender =
      std::make_unique<VmisKnn>(&snapshot->index(), config_.knn);
  return fresh;
}

void SerenadeService::ReleaseRecommender(PooledRecommender entry) {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    // Only pool scratch matching the live snapshot, and only up to the
    // configured cap — a burst of concurrent requests must not grow the
    // pool without bound, and a swapped-out index must not be pinned by
    // idle scratch.
    if (entry.version == manager_->current_version() &&
        recommender_pool_.size() < config_.max_pooled_recommenders) {
      recommender_pool_.push_back(std::move(entry));
      return;
    }
  }
  // Dropped: entry (and its snapshot pin) destructs here, outside the lock.
}

void SerenadeService::Prewarm(size_t count) {
  const std::shared_ptr<const IndexSnapshot> snapshot = manager_->Current();
  // Declared before the lock, so retired entries (and the snapshots they
  // pin) are destroyed after it is released.
  std::vector<PooledRecommender> stale;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  prewarm_count_.store(count, std::memory_order_relaxed);
  auto keep_end = std::partition(
      recommender_pool_.begin(), recommender_pool_.end(),
      [&](const PooledRecommender& entry) {
        return entry.version == snapshot->version();
      });
  stale.assign(std::make_move_iterator(keep_end),
               std::make_move_iterator(recommender_pool_.end()));
  recommender_pool_.erase(keep_end, recommender_pool_.end());
  const size_t target = std::min(count, config_.max_pooled_recommenders);
  while (recommender_pool_.size() < target) {
    recommender_pool_.push_back(PooledRecommender{
        snapshot->version(), snapshot,
        std::make_unique<VmisKnn>(&snapshot->index(), config_.knn)});
  }
}

size_t SerenadeService::PooledRecommenders() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return recommender_pool_.size();
}

StatusOr<std::vector<ScoredItem>> SerenadeService::HandleUpdateAndRecommend(
    const RecommendRequest& request, Trace* trace) {
  return std::move(HandleUpdateAndRecommendBatch({request}, {trace})[0]);
}

std::vector<StatusOr<std::vector<ScoredItem>>>
SerenadeService::HandleUpdateAndRecommendBatch(
    const std::vector<RecommendRequest>& requests,
    const std::vector<Trace*>& traces) {
  std::vector<StatusOr<std::vector<ScoredItem>>> results(
      requests.size(), Status::Internal("batch slot not filled"));
  auto trace_for = [&](size_t i) -> Trace* {
    return i < traces.size() ? traces[i] : nullptr;
  };

  // Validate every slot first; only valid slots reach the store.
  std::vector<size_t> valid;
  std::vector<std::string> keys;
  valid.reserve(requests.size());
  keys.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].item == kInvalidItem) {
      results[i] = Status::InvalidArgument("missing item id");
    } else if (requests[i].session_key.empty()) {
      results[i] = Status::InvalidArgument("missing session key");
    } else {
      valid.push_back(i);
      keys.push_back(requests[i].session_key);
    }
  }
  if (valid.empty()) return results;

  // Batch-wide stages are timed once and recorded once into each distinct
  // trace, however many of the batch's slots share it.
  std::vector<Trace*> batch_traces;
  for (size_t i : valid) {
    if (Trace* trace = trace_for(i)) batch_traces.push_back(trace);
  }
  std::sort(batch_traces.begin(), batch_traces.end());
  batch_traces.erase(std::unique(batch_traces.begin(), batch_traces.end()),
                     batch_traces.end());
  auto record_batch_stage = [&](TraceStage stage, const Stopwatch& watch) {
    const uint64_t micros = watch.ElapsedMicros();
    for (Trace* trace : batch_traces) trace->Record(stage, micros);
  };

  // Step 2 (Figure 1): append every click to its evolving session in one
  // atomic machine-local read-modify-write. Duplicate keys chain in slot
  // order, and `predict[i]` is the session as of slot i's click, so a
  // later click on the same key never leaks into an earlier prediction.
  std::vector<EvolvingSession> predict(requests.size());
  Stopwatch put_watch;
  const Status put_status = store_->MultiUpdate(
      keys, [&](size_t j, const std::string& current) {
        const RecommendRequest& request = requests[valid[j]];
        EvolvingSession evolving = DecodeSession(current);
        evolving.push_back(request.item);
        if (evolving.size() > config_.max_stored_session_length) {
          evolving.erase(evolving.begin(),
                         evolving.end() -
                             static_cast<ptrdiff_t>(
                                 config_.max_stored_session_length));
        }
        std::string encoded = EncodeSession(evolving);
        // Depersonalisation (Section 4.2): without consent, only the
        // currently displayed item feeds the prediction.
        predict[valid[j]] = request.consent ? std::move(evolving)
                                            : EvolvingSession{request.item};
        return encoded;
      });
  record_batch_stage(TraceStage::kStorePut, put_watch);
  if (!put_status.ok()) {
    for (size_t i : valid) results[i] = put_status;
    return results;
  }

  // Step 3: one snapshot pin per retrieval family the batch uses and one
  // pooled recommender serve every slot. Slots resolve their engine
  // independently, so one batch can mix A/B arms. The pins outlive the
  // scoring pass, so a concurrent hot swap never frees an index under us.
  std::vector<EngineKind> resolved(requests.size(), EngineKind::kVmis);
  bool any_ann = false;
  for (size_t i : valid) {
    resolved[i] = ResolveEngine(requests[i].engine);
    any_ann |= resolved[i] == EngineKind::kAnn;
  }
  Stopwatch pin_watch;
  PooledRecommender entry = AcquireRecommender(manager_->Current());
  std::shared_ptr<const EmbeddingSnapshot> embedding_snapshot;
  std::unique_ptr<AnnRecommender> ann;
  if (any_ann) {
    embedding_snapshot = embeddings_->Current();
    ann = std::make_unique<AnnRecommender>(&embedding_snapshot->embeddings(),
                                           &embedding_snapshot->ann(),
                                           config_.ann);
  }
  record_batch_stage(TraceStage::kSnapshotPin, pin_watch);

  // Fetch more than the UI needs so the business-rule filters have spare
  // candidates.
  const size_t fetch = config_.rules.max_items * 2 + 8;
  for (size_t i : valid) {
    Trace* trace = trace_for(i);
    Span knn_span(trace, TraceStage::kKnnRetrieve);
    Recommender& engine =
        resolved[i] == EngineKind::kAnn
            ? static_cast<Recommender&>(*ann)
            : static_cast<Recommender&>(*entry.recommender);
    const std::vector<ScoredItem> raw = engine.RecommendNext(predict[i], fetch);
    knn_span.End();
    Span rank_span(trace, TraceStage::kRank);
    results[i] = ApplyBusinessRules(raw, catalog_, config_.rules);
  }
  ReleaseRecommender(std::move(entry));
  return results;
}

StatusOr<EvolvingSession> SerenadeService::GetSession(
    const std::string& session_key) {
  auto value = store_->Get(session_key);
  if (!value.ok()) return value.status();
  return DecodeSession(*value);
}

}  // namespace serenade
