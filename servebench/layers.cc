#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "alloc_counter.h"
#include "core/vmis_knn.h"
#include "index/snapshot.h"
#include "serving/business_rules.h"
#include "store/session_store.h"

namespace servebench {

using serenade::EvolvingSession;
using serenade::Status;
using serenade::StatusOr;
using serenade::TraceStage;

namespace {

double Mean(const std::vector<int64_t>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (int64_t v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size());
}

double MeanUs(const std::vector<int64_t>& ns) { return Mean(ns) / 1e3; }
double P99Us(const std::vector<int64_t>& ns) {
  return Percentile(ns, 0.99) / 1e3;
}

// The service's append step: the click joins the stored session, which
// keeps its most recent max_stored_session_length items.
void Append(EvolvingSession* session, serenade::ItemId item, size_t cap) {
  session->push_back(item);
  if (session->size() > cap) {
    session->erase(session->begin(),
                   session->end() - static_cast<ptrdiff_t>(cap));
  }
}

std::string ScratchWal(const std::string& work_dir, const Stack& stack,
                       const char* layer) {
  if (!stack.spec().fleet) return "";
  const std::string path =
      work_dir + "/" + stack.spec().name + "-" + layer + ".wal";
  std::remove(path.c_str());
  return path;
}

}  // namespace

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const SpanRecord& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%u}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 span.request);
  }
  return std::fclose(file) == 0;
}

StatusOr<LayerStats> ReplayLayers(const Stack& stack, const Plan& plan,
                                  size_t max_clicks,
                                  const std::string& work_dir,
                                  SpanLog* spans) {
  const serenade::ServiceConfig& config = stack.service_config();
  const size_t cap = config.max_stored_session_length;
  const size_t fetch = config.rules.max_items * 2 + 8;

  // The calls replayed, their keys built up front (outside every span).
  size_t num_calls = 0, num_clicks = 0;
  while (num_calls < plan.calls.size() && num_clicks < max_clicks) {
    num_clicks += plan.calls[num_calls++].count;
  }
  std::vector<std::string> keys(num_clicks);
  for (size_t i = 0; i < num_clicks; ++i) {
    keys[i] = plan.Key(plan.clicks[i].session);
  }
  std::vector<std::string> prefill_keys, prefill_values;
  for (uint32_t session = 0; session < plan.prefill.size(); ++session) {
    prefill_keys.push_back(plan.Key(session));
    prefill_values.push_back(serenade::EncodeSession(plan.prefill[session]));
  }
  LayerStats stats;

  // --- SerenadeService, the pod's whole in-process path ---------------------
  {
    serenade::ServiceConfig service_config = config;
    service_config.store.wal_path = ScratchWal(work_dir, stack, "service");
    auto created = serenade::SerenadeService::Create(
        stack.index(), stack.catalog(), service_config);
    SERENADE_RETURN_IF_ERROR(created.status());
    serenade::SerenadeService& service = **created;
    for (size_t i = 0; i < prefill_keys.size(); ++i) {
      SERENADE_RETURN_IF_ERROR(
          service.session_store().Put(prefill_keys[i], prefill_values[i]));
    }
    const int64_t begin = spans->Now();
    const int32_t pass = spans->Add("replay.service", begin, begin, -1, 0);
    std::vector<int64_t> call_ns, self_ns;
    uint64_t allocs = 0;
    for (size_t c = 0; c < num_calls; ++c) {
      const Call& call = plan.calls[c];
      std::vector<serenade::RecommendRequest> requests;
      for (uint32_t i = 0; i < call.count; ++i) {
        const Click& click = plan.clicks[call.first + i];
        requests.push_back(serenade::RecommendRequest{
            keys[call.first + i], click.item, click.consent,
            serenade::EngineKind::kDefault});
      }
      std::vector<serenade::Trace> traces(call.count);
      std::vector<serenade::Trace*> trace_ptrs;
      for (auto& trace : traces) trace_ptrs.push_back(&trace);

      const uint64_t allocs_before = ThreadAllocations();
      const int64_t start = spans->Now();
      bool ok = true;
      if (plan.batch) {
        for (const auto& result :
             service.HandleUpdateAndRecommendBatch(requests, trace_ptrs)) {
          ok &= result.ok();
        }
      } else {
        ok = service.HandleUpdateAndRecommend(requests[0], &traces[0]).ok();
      }
      const int64_t end = spans->Now();
      allocs += ThreadAllocations() - allocs_before;
      if (!ok) return Status::Internal("in-process service call failed");
      spans->Add("service.call", start, end, pass, static_cast<uint32_t>(c));

      // Batch-wide stages are recorded into every slot; count them once.
      int64_t staged_us = 0;
      for (TraceStage stage : {TraceStage::kStoreGet, TraceStage::kStorePut,
                               TraceStage::kSnapshotPin}) {
        staged_us += static_cast<int64_t>(traces[0].StageMicros(stage));
      }
      for (const auto& trace : traces) {
        staged_us +=
            static_cast<int64_t>(trace.StageMicros(TraceStage::kKnnRetrieve) +
                                 trace.StageMicros(TraceStage::kRank));
      }
      call_ns.push_back(end - start);
      self_ns.push_back(end - start - staged_us * 1000);
    }
    spans->at(pass).end_ns = spans->Now();
    stats.service_mean_us = MeanUs(call_ns);
    stats.service_p99_us = P99Us(call_ns);
    stats.service_self_mean_us = MeanUs(self_ns);
    stats.service_allocs_per_call =
        static_cast<double>(allocs) / static_cast<double>(num_calls);
  }

  // --- SessionStore: Update per click, MultiGet + MultiPut per batch --------
  {
    serenade::SessionStoreOptions options = config.store;
    options.wal_path = ScratchWal(work_dir, stack, "update");
    auto store = serenade::SessionStore::Open(options);
    SERENADE_RETURN_IF_ERROR(store.status());
    for (size_t i = 0; i < prefill_keys.size(); ++i) {
      SERENADE_RETURN_IF_ERROR((*store)->Put(prefill_keys[i], prefill_values[i]));
    }
    const int64_t begin = spans->Now();
    const int32_t pass = spans->Add("replay.store.update", begin, begin, -1, 0);
    std::vector<int64_t> update_ns;
    uint64_t allocs = 0, value_bytes = 0;
    for (size_t c = 0; c < num_calls; ++c) {
      const Call& call = plan.calls[c];
      for (uint32_t i = 0; i < call.count; ++i) {
        const serenade::ItemId item = plan.clicks[call.first + i].item;
        size_t bytes = 0;
        const uint64_t allocs_before = ThreadAllocations();
        const int64_t start = spans->Now();
        const Status updated = (*store)->Update(
            keys[call.first + i], [&](const std::string& current) {
              EvolvingSession session = serenade::DecodeSession(current);
              Append(&session, item, cap);
              std::string encoded = serenade::EncodeSession(session);
              bytes = encoded.size();
              return encoded;
            });
        const int64_t end = spans->Now();
        allocs += ThreadAllocations() - allocs_before;
        SERENADE_RETURN_IF_ERROR(updated);
        spans->Add("store.update", start, end, pass, static_cast<uint32_t>(c));
        update_ns.push_back(end - start);
        value_bytes += bytes;
      }
    }
    spans->at(pass).end_ns = spans->Now();
    stats.store_update_mean_us = MeanUs(update_ns);
    stats.store_update_p99_us = P99Us(update_ns);
    stats.store_value_bytes_mean =
        static_cast<double>(value_bytes) / static_cast<double>(num_clicks);
    stats.store_allocs_per_update =
        static_cast<double>(allocs) / static_cast<double>(num_clicks);
  }
  // Only the batch path calls MultiGet/MultiPut; on single-GET plans the
  // batched figures stay 0.
  if (plan.batch) {
    serenade::SessionStoreOptions options = config.store;
    options.wal_path = ScratchWal(work_dir, stack, "multi");
    auto store = serenade::SessionStore::Open(options);
    SERENADE_RETURN_IF_ERROR(store.status());
    for (size_t i = 0; i < prefill_keys.size(); ++i) {
      SERENADE_RETURN_IF_ERROR((*store)->Put(prefill_keys[i], prefill_values[i]));
    }
    const int64_t begin = spans->Now();
    const int32_t pass = spans->Add("replay.store.multi", begin, begin, -1, 0);
    std::vector<int64_t> multi_ns, rmw_ns;
    for (size_t c = 0; c < num_calls; ++c) {
      const Call& call = plan.calls[c];
      std::vector<std::string> call_keys;
      for (uint32_t i = 0; i < call.count; ++i) {
        const std::string& key = keys[call.first + i];
        if (std::find(call_keys.begin(), call_keys.end(), key) ==
            call_keys.end()) {
          call_keys.push_back(key);
        }
      }
      std::vector<std::string> values;
      std::vector<bool> found;
      const int64_t get_start = spans->Now();
      (*store)->MultiGet(call_keys, &values, &found);
      const int64_t get_end = spans->Now();
      std::vector<EvolvingSession> sessions(call_keys.size());
      for (size_t k = 0; k < call_keys.size(); ++k) {
        if (found[k]) sessions[k] = serenade::DecodeSession(values[k]);
      }
      for (uint32_t i = 0; i < call.count; ++i) {
        const size_t k = static_cast<size_t>(
            std::find(call_keys.begin(), call_keys.end(),
                      keys[call.first + i]) -
            call_keys.begin());
        Append(&sessions[k], plan.clicks[call.first + i].item, cap);
      }
      std::vector<std::pair<std::string, std::string>> entries;
      for (size_t k = 0; k < call_keys.size(); ++k) {
        entries.emplace_back(call_keys[k], serenade::EncodeSession(sessions[k]));
      }
      const int64_t put_start = spans->Now();
      const Status put = (*store)->MultiPut(entries);
      const int64_t put_end = spans->Now();
      SERENADE_RETURN_IF_ERROR(put);
      spans->Add("store.multi_get", get_start, get_end, pass,
                 static_cast<uint32_t>(c));
      spans->Add("store.multi_put", put_start, put_end, pass,
                 static_cast<uint32_t>(c));
      multi_ns.push_back((get_end - get_start) + (put_end - put_start));
      rmw_ns.push_back(put_end - get_start);
    }
    spans->at(pass).end_ns = spans->Now();
    stats.store_multi_mean_us = MeanUs(multi_ns);
    stats.store_multi_rmw_mean_us = MeanUs(rmw_ns);
  }

  // --- IndexManager::Current: the snapshot pin -------------------------------
  {
    auto manager = serenade::IndexManager::CreateFromIndex(stack.index());
    const int64_t begin = spans->Now();
    const int32_t pass = spans->Add("replay.index.pin", begin, begin, -1, 0);
    std::vector<int64_t> pin_ns;
    for (size_t c = 0; c < num_calls; ++c) {
      const int64_t start = spans->Now();
      const auto snapshot = manager->Current();
      const int64_t end = spans->Now();
      if (snapshot == nullptr) return Status::Internal("no index snapshot");
      spans->Add("index.pin", start, end, pass, static_cast<uint32_t>(c));
      pin_ns.push_back(end - start);
    }
    spans->at(pass).end_ns = spans->Now();
    stats.index_pin_mean_us = MeanUs(pin_ns);
  }

  // --- VmisKnn::RecommendNext, then ApplyBusinessRules on its output --------
  {
    const serenade::SessionIndex& index = *stack.index();
    serenade::VmisKnn knn(&index, config.knn);
    // Size the scoring slots outside the measurement, like a pooled
    // recommender on a warm pod.
    (void)knn.RecommendNext(EvolvingSession{plan.clicks.front().item}, fetch);

    std::unordered_map<uint32_t, EvolvingSession> sessions;
    for (uint32_t session = 0; session < plan.prefill.size(); ++session) {
      sessions[session] = plan.prefill[session];
    }
    const int64_t begin = spans->Now();
    const int32_t knn_pass =
        spans->Add("replay.core.retrieve", begin, begin, -1, 0);
    std::vector<int64_t> retrieve_ns;
    std::vector<std::vector<serenade::ScoredItem>> raw(num_clicks);
    uint64_t allocs = 0, postings = 0;
    for (size_t c = 0; c < num_calls; ++c) {
      const Call& call = plan.calls[c];
      for (uint32_t i = 0; i < call.count; ++i) {
        const Click& click = plan.clicks[call.first + i];
        EvolvingSession& stored = sessions[click.session];
        Append(&stored, click.item, cap);
        const EvolvingSession query =
            click.consent ? stored : EvolvingSession{click.item};
        const uint64_t allocs_before = ThreadAllocations();
        const int64_t start = spans->Now();
        raw[call.first + i] = knn.RecommendNext(query, fetch);
        const int64_t end = spans->Now();
        allocs += ThreadAllocations() - allocs_before;
        spans->Add("core.retrieve", start, end, knn_pass,
                   static_cast<uint32_t>(c));
        retrieve_ns.push_back(end - start);

        // The postings the query may scan: each distinct item of the
        // truncated session contributes at most m of its sessions.
        const size_t from = query.size() > config.knn.max_session_length
                                ? query.size() - config.knn.max_session_length
                                : 0;
        std::unordered_set<serenade::ItemId> distinct(query.begin() + from,
                                                      query.end());
        for (serenade::ItemId item : distinct) {
          postings += std::min(index.SessionsForItem(item).size(),
                               config.knn.m);
        }
      }
    }
    spans->at(knn_pass).end_ns = spans->Now();
    stats.core_retrieve_mean_us = MeanUs(retrieve_ns);
    stats.core_retrieve_p99_us = P99Us(retrieve_ns);
    stats.core_postings_per_query =
        static_cast<double>(postings) / static_cast<double>(num_clicks);
    stats.core_allocs_per_query =
        static_cast<double>(allocs) / static_cast<double>(num_clicks);

    const int64_t rules_begin = spans->Now();
    const int32_t rules_pass =
        spans->Add("replay.serving.rules", rules_begin, rules_begin, -1, 0);
    std::vector<int64_t> rules_ns;
    for (size_t c = 0; c < num_calls; ++c) {
      const Call& call = plan.calls[c];
      for (uint32_t i = 0; i < call.count; ++i) {
        const int64_t start = spans->Now();
        const auto ranked = serenade::ApplyBusinessRules(
            raw[call.first + i], stack.catalog(), config.rules);
        const int64_t end = spans->Now();
        if (ranked.size() > config.rules.max_items) {
          return Status::Internal("business rules returned too many items");
        }
        spans->Add("serving.rules", start, end, rules_pass,
                   static_cast<uint32_t>(c));
        rules_ns.push_back(end - start);
      }
    }
    spans->at(rules_pass).end_ns = spans->Now();
    stats.rules_mean_us = MeanUs(rules_ns);
  }

  for (const char* layer : {"service", "update", "multi"}) {
    const std::string wal = ScratchWal(work_dir, stack, layer);
    if (!wal.empty()) std::remove(wal.c_str());
  }
  return stats;
}

}  // namespace servebench
