#include "stack.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "serving/http.h"

namespace servebench {

using serenade::Status;
using serenade::StatusOr;

namespace {

constexpr size_t kKnnM = 500;
constexpr size_t kReplaySessions = 20000;

serenade::SyntheticConfig DataConfig(const WorkloadSpec& spec, uint64_t seed,
                                     size_t sessions) {
  serenade::SyntheticConfig config;
  config.seed = seed;
  config.num_items = spec.index_items;
  config.num_sessions = sessions;
  config.num_days = 30;
  return config;
}

}  // namespace

StatusOr<std::unique_ptr<Stack>> Stack::Start(const WorkloadSpec& spec,
                                              uint64_t seed,
                                              const std::string& work_dir,
                                              size_t connections) {
  auto stack = std::unique_ptr<Stack>(new Stack());
  stack->spec_ = spec;
  stack->work_dir_ = work_dir;
  {
    // The history only lives until the index is built.
    const serenade::Dataset history = serenade::GenerateDataset(
        DataConfig(spec, seed * 2 + 1, spec.index_sessions));
    stack->index_ = std::make_shared<const serenade::SessionIndex>(
        serenade::SessionIndex::Build(history, kKnnM));
    stack->catalog_ = serenade::GenerateCatalog(history.num_items(), seed);
  }
  // Visitors browse the same catalog with the same popularity, but their
  // sessions are not in the index.
  stack->replay_ = serenade::GenerateDataset(
      DataConfig(spec, seed * 2 + 2, kReplaySessions));

  serenade::ServiceConfig& service = stack->service_config_;
  service.knn.m = kKnnM;
  service.knn.k = spec.knn_k;

  std::vector<serenade::BackendEndpoint> endpoints;
  for (size_t i = 0; i < spec.pods(); ++i) {
    serenade::ServiceConfig pod_service = service;
    if (spec.fleet) {
      pod_service.store.wal_path =
          work_dir + "/" + spec.name + "-pod" + std::to_string(i) + ".wal";
      std::remove(pod_service.store.wal_path.c_str());
    }
    auto created = serenade::SerenadeService::Create(
        stack->index_, stack->catalog_, pod_service);
    SERENADE_RETURN_IF_ERROR(created.status());
    serenade::ServerConfig server;
    server.http.reactor_threads = 1;
    server.http.worker_threads = kPodWorkers;
    server.batch.num_workers = 1;  // max_batch_size 1: inline pass-through
    stack->pods_.push_back(std::make_unique<serenade::SerenadeServer>(
        std::move(created).value(), server));
    SERENADE_RETURN_IF_ERROR(stack->pods_.back()->Start());
    endpoints.push_back(serenade::BackendEndpoint{
        "pod-" + std::to_string(i), stack->pods_.back()->port()});
  }
  if (spec.fleet) {
    serenade::GatewayConfig gateway;
    gateway.http.reactor_threads = 1;
    gateway.http.worker_threads = kGatewayWorkers;
    // A probe above capacity queues, it does not time out: a failed
    // forward would leave the click's fate unknown.
    gateway.forward_timeout_ms = 10000;
    stack->gateway_ = std::make_unique<serenade::ClusterGateway>(
        std::move(endpoints), gateway, /*fallback=*/nullptr);
    SERENADE_RETURN_IF_ERROR(stack->gateway_->Start());
  }
  SERENADE_RETURN_IF_ERROR(stack->Warm(connections, seed));
  return stack;
}

Stack::~Stack() {
  if (gateway_) gateway_->Stop();
  for (auto& pod : pods_) pod->Stop();
  pods_.clear();  // the stores flush and close their WALs
  if (spec_.fleet) {
    for (size_t i = 0; i < spec_.pods(); ++i) {
      const std::string wal =
          work_dir_ + "/" + spec_.name + "-pod" + std::to_string(i) + ".wal";
      std::remove(wal.c_str());
    }
  }
}

uint16_t Stack::entry_port() const {
  return gateway_ ? gateway_->port() : pods_.front()->port();
}

std::vector<uint16_t> Stack::pod_ports() const {
  std::vector<uint16_t> ports;
  for (const auto& pod : pods_) ports.push_back(pod->port());
  return ports;
}

Status Stack::Prefill(const Plan& plan) {
  for (uint32_t session = 0; session < plan.prefill.size(); ++session) {
    const std::string key = plan.Key(session);
    size_t owner = 0;
    if (gateway_) {
      const std::string name = gateway_->OwnerOf(key);
      owner = static_cast<size_t>(std::atoi(name.c_str() + 4));  // "pod-N"
    }
    SERENADE_RETURN_IF_ERROR(pods_[owner]->service().session_store().Put(
        key, serenade::EncodeSession(plan.prefill[session])));
  }
  return Status::Ok();
}

Status Stack::Warm(size_t connections, uint64_t seed) {
  // A fixed number of closed-loop rounds on every connection (a varying
  // number would show as set-up noise), so the scoring slots are sized and
  // the index and code paths are hot; by then each pod must have pooled
  // one recommender per worker.
  const ClickSource source{&replay_, 0.02};
  for (int round = 0; round < 3; ++round) {
    Plan plan =
        spec_.batch_slots == 0
            ? BuildSinglePlan(source, 2000.0, 0.5, connections, 0,
                              seed + 101 + round,
                              "warm" + std::to_string(round) + "-")
            : BuildBatchPlan(source, 2000.0 / spec_.batch_slots, 0.5,
                             connections, spec_.batch_slots, 64,
                             kStoredLength, seed + 101 + round,
                             "warm" + std::to_string(round) + "-");
    MakeClosedLoop(&plan);
    SERENADE_RETURN_IF_ERROR(Prefill(plan));
    const PhaseResult result =
        RunPlan(plan, entry_port(), connections, rules());
    if (result.failed > 0) {
      return Status::Internal("warm-up request failed: " +
                              result.errors.front());
    }
  }
  for (auto& pod : pods_) {
    if (pod->service().PooledRecommenders() < kPodWorkers) {
      return Status::Internal("warm-up left a pod without one pooled "
                              "recommender per worker");
    }
  }
  return Status::Ok();
}

StatusOr<std::map<std::string, double>> ScrapeMetrics(uint16_t port) {
  serenade::HttpClient client;
  SERENADE_RETURN_IF_ERROR(client.Connect(port));
  auto response = client.Get("/v1/metrics");
  SERENADE_RETURN_IF_ERROR(response.status());
  if (response->status != 200) {
    return Status::Internal("metrics scrape returned " +
                            std::to_string(response->status));
  }
  std::map<std::string, double> samples;
  std::istringstream lines(response->body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                 nullptr);
  }
  return samples;
}

}  // namespace servebench
