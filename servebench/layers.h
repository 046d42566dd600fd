// The in-process half of the traced run: one request sequence replayed on
// one thread, without HTTP, first through SerenadeService (the path a pod
// runs), then through each inner layer's public function on its own:
// SessionStore::Update / MultiGet+MultiPut, IndexManager::Current,
// VmisKnn::RecommendNext and ApplyBusinessRules. Every call is wrapped in
// a span and its heap allocations are counted.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "load.h"
#include "stack.h"

namespace servebench {

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` indexes the enclosing span (-1 for none).
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// In-memory span log, written out once the run ends.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  /// Records a finished span; returns its index.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint32_t request) {
    spans_.push_back(SpanRecord{name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  SpanRecord& at(int32_t index) { return spans_[static_cast<size_t>(index)]; }
  size_t size() const { return spans_.size(); }

  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

/// Per-layer figures of the in-process replay. A "call" is one service
/// call: one click on the single path, one batch on the batch path.
struct LayerStats {
  double service_mean_us = 0, service_p99_us = 0, service_self_mean_us = 0;
  double service_allocs_per_call = 0;
  double store_update_mean_us = 0, store_update_p99_us = 0;
  double store_multi_mean_us = 0;  ///< MultiGet + MultiPut per batch
  /// The whole batched read-modify-write per batch: MultiGet, decode,
  /// append, encode, MultiPut (what Update does per click). Both batch
  /// figures are 0 on single-GET plans.
  double store_multi_rmw_mean_us = 0;
  double store_value_bytes_mean = 0;
  double store_allocs_per_update = 0;
  double index_pin_mean_us = 0;
  double core_retrieve_mean_us = 0, core_retrieve_p99_us = 0;
  double core_postings_per_query = 0, core_allocs_per_query = 0;
  double rules_mean_us = 0;
};

/// Replays the first calls of `plan` (up to about `max_clicks` clicks)
/// through fresh instances of each layer built on `stack`'s index,
/// catalog and configuration. Store WALs go under `work_dir`.
serenade::StatusOr<LayerStats> ReplayLayers(const Stack& stack,
                                            const Plan& plan,
                                            size_t max_clicks,
                                            const std::string& work_dir,
                                            SpanLog* spans);

}  // namespace servebench
