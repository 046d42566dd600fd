// The serving stack under test, assembled in this process from the
// repository's public classes: ClusterGateway (hash ring) -> SerenadeServer
// pods -> BatchExecutor -> SerenadeService -> SessionStore / IndexManager /
// VmisKnn / ApplyBusinessRules. Every tier's worker-thread count is set
// explicitly so results do not follow the machine's core count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/gateway.h"
#include "common/status.h"
#include "core/session_index.h"
#include "data/click_log.h"
#include "data/synthetic.h"
#include "load.h"
#include "serving/server.h"
#include "serving/service.h"

namespace servebench {

/// Tier settings shared by every workload (printed with each result).
constexpr size_t kPodWorkers = 2;
constexpr size_t kGatewayWorkers = 4;
constexpr size_t kFleetPods = 2;
/// Batch plans: returning sessions per connection, and the stored history
/// each one starts from (the service's max_stored_session_length cap).
constexpr size_t kBatchSessionsPerConn = 1024;
constexpr size_t kStoredLength = 100;

/// One workload's shape (servebench/workloads.json holds the values).
struct WorkloadSpec {
  std::string name;
  /// Fleet: client -> gateway -> kFleetPods pods with WAL-backed stores.
  /// Direct: client -> one pod with a volatile store.
  bool fleet = true;
  size_t batch_slots = 0;      ///< 0 = single GETs, else slots per batch
  size_t index_sessions = 0;   ///< historical sessions behind the index
  size_t index_items = 0;
  size_t knn_k = 100;          ///< m is 500 everywhere
  size_t max_clicks = 0;       ///< cut replayed sessions (0 = full length)
  uint64_t slo_us = 2000;      ///< p99 latency limit per HTTP call
  double fixed_rps = 0;        ///< recommendations/s of the fixed phase
  double floor_rps = 0;        ///< max_rps_at_slo search range
  double ceiling_rps = 0;

  size_t pods() const { return fleet ? kFleetPods : 1; }
  size_t slots() const { return batch_slots == 0 ? 1 : batch_slots; }
};

/// Everything set-up builds: inputs, index, and the running tiers.
class Stack {
 public:
  /// Generates the seeded inputs, builds the index, starts the tiers and
  /// warms them up. WAL files go under `work_dir`.
  static serenade::StatusOr<std::unique_ptr<Stack>> Start(
      const WorkloadSpec& spec, uint64_t seed, const std::string& work_dir,
      size_t connections);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// The port clients send to: the gateway, or the single pod.
  uint16_t entry_port() const;
  std::vector<uint16_t> pod_ports() const;
  uint16_t gateway_port() const { return gateway_ ? gateway_->port() : 0; }

  /// Writes each session's stored history into its owning pod's store.
  serenade::Status Prefill(const Plan& plan);

  /// Sessions replayed as visitors (not part of the index).
  const serenade::Dataset& replay() const { return replay_; }
  std::shared_ptr<const serenade::SessionIndex> index() const {
    return index_;
  }
  const serenade::ItemCatalog& catalog() const { return catalog_; }
  const serenade::ServiceConfig& service_config() const {
    return service_config_;
  }
  const WorkloadSpec& spec() const { return spec_; }
  ResponseRules rules() const { return {&catalog_, 21}; }

 private:
  Stack() = default;
  serenade::Status Warm(size_t connections, uint64_t seed);

  WorkloadSpec spec_;
  std::string work_dir_;
  serenade::Dataset replay_;
  std::shared_ptr<const serenade::SessionIndex> index_;
  serenade::ItemCatalog catalog_;
  serenade::ServiceConfig service_config_;
  std::vector<std::unique_ptr<serenade::SerenadeServer>> pods_;
  std::unique_ptr<serenade::ClusterGateway> gateway_;
};

/// GET /v1/metrics from 127.0.0.1:`port`, parsed into sample -> value
/// (the key is the sample name with its labels, as exposed).
serenade::StatusOr<std::map<std::string, double>> ScrapeMetrics(
    uint16_t port);

}  // namespace servebench
