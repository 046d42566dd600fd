// Serving benchmark: one workload of the stack in stack.h, driven open
// loop from this process.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               --work-dir DIR [--spans-out FILE] <workload flags>
//   serve_bench --selftest
//
// --trace 0 times the stack: set-up (repeated, median reported), a
// fixed-rate phase (p50 from the scheduled send, CPU per recommendation,
// peak RSS) and a search for the highest rate whose p99 meets the
// workload's latency limit. --trace 1 runs the same workload at the fixed
// rate (p50 and p99) with telemetry deltas and client spans, then replays it through
// each layer in process (layers.h). Both check every response against
// the business rules and replay a seeded sample of sessions through a
// fresh SerenadeService: returned items must match exactly.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> value + unit) and info (settings the run used).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "layers.h"
#include "load.h"
#include "serving/http.h"
#include "stack.h"

using namespace servebench;

namespace {

constexpr size_t kMaxConnections = 4;
constexpr size_t kProbes = 6;  ///< bisection steps of the capacity search
constexpr size_t kSetups = 5;  ///< timed set-ups per run; the median counts
/// Share of --seconds at the fixed rate; the capacity search gets the rest.
constexpr double kFixedShare = 0.4;
/// Share of --seconds the traced run spends at the fixed rate.
constexpr double kTracedShare = 0.7;

struct Options {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir = ".";
  std::string spans_out;
};

bool ParseFlags(int argc, char** argv, Options* options) {
  WorkloadSpec& spec = options->spec;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      options->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    const double number = std::atof(value.c_str());
    const size_t count = static_cast<size_t>(std::atoll(value.c_str()));
    if (flag == "--workload") spec.name = value;
    else if (flag == "--seed") options->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options->seconds = number;
    else if (flag == "--trace") options->trace = value == "1";
    else if (flag == "--work-dir") options->work_dir = value;
    else if (flag == "--spans-out") options->spans_out = value;
    else if (flag == "--topology" && (value == "fleet" || value == "direct")) {
      spec.fleet = value == "fleet";
    }
    else if (flag == "--batch-slots") spec.batch_slots = count;
    else if (flag == "--index-sessions") spec.index_sessions = count;
    else if (flag == "--index-items") spec.index_items = count;
    else if (flag == "--knn-k") spec.knn_k = count;
    else if (flag == "--max-clicks") spec.max_clicks = count;
    else if (flag == "--slo-us") spec.slo_us = count;
    else if (flag == "--fixed-rps") spec.fixed_rps = number;
    else if (flag == "--floor-rps") spec.floor_rps = number;
    else if (flag == "--ceiling-rps") spec.ceiling_rps = number;
    else {
      std::fprintf(stderr, "unknown flag or value: %s %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (options->selftest) return true;
  if (spec.name.empty() || spec.index_sessions == 0 || spec.index_items == 0 ||
      spec.fixed_rps <= 0 || spec.floor_rps <= 0 ||
      spec.ceiling_rps <= spec.floor_rps) {
    std::fprintf(stderr, "incomplete workload flags\n");
    return false;
  }
  return true;
}

/// Metrics in output order, each with its unit.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buffer[512];
      const double value = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buffer, sizeof(buffer), "%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}",
                    i > 0 ? "," : "", entries_[i].name.c_str(), value,
                    entries_[i].unit);
      out += buffer;
    }
    return out + "}";
  }
  void Print() const {
    for (const auto& entry : entries_) {
      std::fprintf(stderr, "  %-40s %14.3f %s\n", entry.name.c_str(),
                   entry.value, entry.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Usage {
  double cpu_s = 0;
  long ctx_switches = 0;
  double max_rss_mb = 0;
};

Usage ReadUsage() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                         usage.ru_stime.tv_usec);
  out.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
  return out;
}

struct Latency {
  double p50_us = 0;
  double p99_us = 0;           ///< interquartile mean of the windows' p99
  double last_window_p50_us = 0;
  double rtt_mean_us = 0, lag_p99_us = 0;
  size_t samples = 0, windows = 0;
};

// Mean of the middle half of the values (all of them when fewer than 4).
double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() >= 4 ? values.size() / 4 : 0;
  double sum = 0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

// Latency from the scheduled send. A failed call misses any limit. The
// p99 is taken per window of kWindowCalls consecutive calls (ten samples
// beyond each p99) and the interquartile mean of the windows is
// reported: a rare whole-host freeze of a few tens of milliseconds spoils
// one window, not the run, and a p99 that sits between two queue depths
// averages out instead of jumping between them.
constexpr size_t kWindowCalls = 1000;

Latency Summarize(const PhaseResult& result) {
  std::vector<int64_t> latency, lag;
  double rtt_sum = 0;
  for (const CallResult& call : result.calls) {
    latency.push_back(call.ok ? call.latency_ns : INT64_MAX / 2);
    lag.push_back(call.lag_ns);
    rtt_sum += static_cast<double>(call.rtt_ns);
  }
  Latency out;
  out.samples = latency.size();
  if (latency.empty()) return out;
  out.windows = std::max<size_t>(1, latency.size() / kWindowCalls);
  std::vector<double> window_p99;
  for (size_t w = 0; w < out.windows; ++w) {
    const std::vector<int64_t> window(
        latency.begin() + static_cast<ptrdiff_t>(w * latency.size() / out.windows),
        latency.begin() +
            static_cast<ptrdiff_t>((w + 1) * latency.size() / out.windows));
    window_p99.push_back(Percentile(window, 0.99) / 1e3);
    if (w + 1 == out.windows) {
      out.last_window_p50_us = Percentile(window, 0.50) / 1e3;
    }
  }
  out.p99_us = InterquartileMean(window_p99);
  out.p50_us = Percentile(latency, 0.50) / 1e3;
  out.lag_p99_us = Percentile(lag, 0.99) / 1e3;
  out.rtt_mean_us = rtt_sum / static_cast<double>(latency.size()) / 1e3;
  return out;
}

Plan BuildPlan(const Stack& stack, double recs_per_s, double seconds,
               size_t connections, uint64_t seed, const std::string& prefix) {
  const WorkloadSpec& spec = stack.spec();
  const ClickSource source{&stack.replay(), 0.02};
  if (spec.batch_slots == 0) {
    return BuildSinglePlan(source, recs_per_s, seconds, connections,
                           spec.max_clicks, seed, prefix);
  }
  return BuildBatchPlan(source, recs_per_s / static_cast<double>(spec.batch_slots),
                        seconds, connections, spec.batch_slots,
                        kBatchSessionsPerConn, kStoredLength, seed, prefix);
}

// Seeded sample of sessions whose responses the correctness check replays.
std::function<bool(uint32_t)> SampleSessions(uint64_t seed) {
  return [seed](uint32_t session) {
    return serenade::Mix64(seed * 0x9e3779b97f4a7c15ULL + session) % 64 == 0;
  };
}

// Replays every sampled session's exact click sequence (slot order for
// batches) through a fresh in-process SerenadeService on the stack's
// index; returns how many clicks got different items from the stack.
uint64_t CheckAgainstReplay(const Stack& stack, const Plan& plan,
                            const PhaseResult& result,
                            const std::function<bool(uint32_t)>& sampled,
                            uint64_t* checked) {
  serenade::ServiceConfig config = stack.service_config();
  config.store.wal_path.clear();
  auto service = serenade::SerenadeService::Create(stack.index(),
                                                   stack.catalog(), config);
  if (!service.ok()) {
    std::fprintf(stderr, "replay service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  for (uint32_t session = 0; session < plan.prefill.size(); ++session) {
    if (!sampled(session)) continue;
    (void)(*service)->session_store().Put(
        plan.Key(session), serenade::EncodeSession(plan.prefill[session]));
  }
  uint64_t mismatches = 0;
  for (const Call& call : plan.calls) {
    for (uint32_t i = 0; i < call.count; ++i) {
      const Click& click = plan.clicks[call.first + i];
      if (!sampled(click.session)) continue;
      const auto expected = (*service)->HandleUpdateAndRecommend(
          serenade::RecommendRequest{plan.Key(click.session), click.item,
                                     click.consent,
                                     serenade::EngineKind::kDefault});
      std::vector<ItemId> want;
      if (expected.ok()) {
        for (const auto& scored : *expected) want.push_back(scored.item);
      }
      ++*checked;
      if (!expected.ok() || want != result.items[call.first + i]) {
        if (mismatches < 4) {
          std::fprintf(stderr,
                       "MISMATCH session %s click %u: stack returned %zu "
                       "items, replay %zu\n",
                       plan.Key(click.session).c_str(), call.first + i,
                       result.items[call.first + i].size(), want.size());
        }
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Generator self-test: a stub server whose handler stalls once for 50 ms.

bool RunSelfTest() {
  std::atomic<int> served{0};
  serenade::HttpServerOptions http;
  http.worker_threads = 1;
  serenade::HttpServer server(
      [&](const serenade::HttpRequest&) {
        if (served.fetch_add(1) == 1000) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        return serenade::HttpResponse::Json("{\"items\":[1],\"scores\":[1]}");
      },
      http);
  if (!server.Start(0).ok()) return false;

  serenade::Dataset sessions = serenade::GenerateDataset([] {
    serenade::SyntheticConfig config;
    config.num_items = 200;
    config.num_sessions = 500;
    return config;
  }());
  const double rate = 2000;
  const Plan plan = BuildSinglePlan(ClickSource{&sessions, 0.0}, rate, 2.0, 1,
                                    0, 7, "self-");
  serenade::ItemCatalog catalog = serenade::GenerateCatalog(200, 1, 0, 0);
  const PhaseResult result =
      RunPlan(plan, server.port(), 1, ResponseRules{&catalog, 21});
  server.Stop();

  size_t carried = 0, slow_rtt = 0;
  double max_latency_ms = 0;
  for (const CallResult& call : result.calls) {
    if (call.latency_ns > 10'000'000) ++carried;
    if (call.rtt_ns > 10'000'000) ++slow_rtt;
    max_latency_ms = std::max(max_latency_ms, call.latency_ns / 1e6);
  }
  const Latency summary = Summarize(result);
  double latency_mean_us = 0;
  for (const CallResult& call : result.calls) latency_mean_us += call.latency_ns / 1e3;
  latency_mean_us /= static_cast<double>(result.calls.size());
  const auto& calls = result.calls;
  const double scheduled =
      static_cast<double>(calls.size() - 1) /
      (static_cast<double>(plan.calls.back().due_ns - plan.calls.front().due_ns) * 1e-9);
  const double realised =
      static_cast<double>(calls.size() - 1) /
      (static_cast<double>(calls.back().send_ns - calls.front().send_ns) * 1e-9);
  const double realised_error = std::abs(realised - scheduled) / scheduled;
  // About rate * 50 ms calls are due during the stall; at least 40 of
  // them must wait more than 10 ms.
  const bool ok = result.failed == 0 && max_latency_ms >= 45.0 &&
                  carried >= static_cast<size_t>(rate * 0.020) &&
                  // The stalled call itself, plus host hiccups that hit
                  // the stub too, but never the calls queued behind.
                  slow_rtt >= 1 && slow_rtt * 10 <= carried &&
                  summary.rtt_mean_us * 4 < latency_mean_us &&
                  realised_error <= 0.01;
  std::fprintf(stderr,
               "selftest: %zu calls, stall carried onto %zu calls (max %.1f ms "
               "from schedule), %zu slow round trips, rtt mean %.1f us vs "
               "scheduled-latency mean %.1f us, send rate %.1f/s vs scheduled "
               "%.1f/s (offered %.0f) -> %s\n",
               calls.size(), carried, max_latency_ms, slow_rtt,
               summary.rtt_mean_us, latency_mean_us, realised, scheduled, rate,
               ok ? "PASS" : "FAIL");
  return ok;
}

// ---------------------------------------------------------------------------
// Telemetry deltas of the stack (the traced run's over-the-stack half).

struct Scrape {
  std::map<std::string, double> gateway;
  std::vector<std::map<std::string, double>> pods;
};

serenade::StatusOr<Scrape> ScrapeStack(const Stack& stack) {
  Scrape scrape;
  if (stack.gateway_port() != 0) {
    auto gateway = ScrapeMetrics(stack.gateway_port());
    SERENADE_RETURN_IF_ERROR(gateway.status());
    scrape.gateway = std::move(gateway).value();
  }
  for (uint16_t port : stack.pod_ports()) {
    auto pod = ScrapeMetrics(port);
    SERENADE_RETURN_IF_ERROR(pod.status());
    scrape.pods.push_back(std::move(pod).value());
  }
  return scrape;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

double PodDelta(const Scrape& before, const Scrape& after,
                const std::string& key) {
  double sum = 0;
  for (size_t i = 0; i < after.pods.size(); ++i) {
    sum += Delta(before.pods[i], after.pods[i], key);
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void AddStackLayers(const Stack& stack, const Scrape& before,
                    const Scrape& after, const Latency& client,
                    double client_calls, double ctx_switches,
                    MetricSet* metrics) {
  const std::string pod_latency = "serenade_recommend_latency_microseconds";
  const double pod_requests = PodDelta(before, after, pod_latency + "_count");
  const double handler_mean =
      Ratio(PodDelta(before, after, pod_latency + "_sum"), pod_requests);

  metrics->Add("client.rtt_mean_us", client.rtt_mean_us, "us");
  metrics->Add("client.send_lag_p99_us", client.lag_p99_us, "us");

  // Gateway: request mean, forward per attempt, forward per request.
  double caller_mean = client.rtt_mean_us;
  double gateway_stage_us = 0;
  {
    const auto& b = before.gateway;
    const auto& a = after.gateway;
    const double requests =
        Delta(b, a, "gateway_request_latency_microseconds_count");
    const double request_mean = Ratio(
        Delta(b, a, "gateway_request_latency_microseconds_sum"), requests);
    const double forward_sum =
        Delta(b, a, "gateway_forward_latency_microseconds_sum");
    const double forward_mean = Ratio(
        forward_sum, Delta(b, a, "gateway_forward_latency_microseconds_count"));
    const bool on_path = stack.gateway_port() != 0;
    if (on_path) caller_mean = forward_mean;
    for (const char* stage : {"parse", "serialize"}) {
      gateway_stage_us += Delta(
          b, a,
          std::string("gateway_stage_duration_microseconds_sum{stage=\"") +
              stage + "\"}");
    }
    // The gateway is bypassed on direct workloads: its layer reads 0.
    metrics->Add("cluster.edge_mean_us",
                 on_path ? client.rtt_mean_us - request_mean : 0, "us");
    metrics->Add("cluster.self_mean_us",
                 on_path ? request_mean - Ratio(forward_sum, requests) : 0, "us");
    metrics->Add("cluster.forward_mean_us", forward_mean, "us");
    metrics->Add("cluster.pool_reuse_ratio",
                 Ratio(Delta(b, a, "gateway_client_reuses_total"),
                       Delta(b, a, "gateway_client_acquires_total")),
                 "ratio");
    metrics->Add("cluster.retries_per_req",
                 Ratio(Delta(b, a, "gateway_retries_total"), requests), "count");
  }

  metrics->Add("serving.http.edge_mean_us", caller_mean - handler_mean, "us");
  metrics->Add("serving.http.handler_mean_us", handler_mean, "us");
  metrics->Add("serving.http.loop_iters_per_req",
               Ratio(PodDelta(before, after,
                              "serenade_reactor_loop_iterations_total"),
                     pod_requests),
               "count");
  metrics->Add("serving.http.ctx_switches_per_req",
               Ratio(ctx_switches, client_calls), "count");
  double pod_stage_us = 0;
  for (const char* stage : {"parse", "store_get", "store_put", "snapshot_pin",
                            "knn_retrieve", "rank", "serialize", "queue_wait"}) {
    const std::string labels = std::string("{stage=\"") + stage + "\"}";
    const std::string family = "serenade_stage_duration_microseconds";
    const double sum = PodDelta(before, after, family + "_sum" + labels);
    pod_stage_us += sum;
    if (std::strcmp(stage, "store_get") == 0 ||
        std::strcmp(stage, "queue_wait") == 0) {
      continue;  // counted into the attribution, not reported on its own
    }
    metrics->Add(std::string("serving.http.stage.") + stage + "_mean_us",
                 Ratio(sum, PodDelta(before, after, family + "_count" + labels)),
                 "us");
  }
  const double attributed = Ratio(gateway_stage_us + pod_stage_us, client_calls);
  metrics->Add("unattributed_pct",
               100.0 * Ratio(client.rtt_mean_us - attributed, client.rtt_mean_us),
               "%");
}

void AddInProcessLayers(const Stack& stack, const LayerStats& layers,
                        MetricSet* metrics) {
  metrics->Add("serving.service.mean_us", layers.service_mean_us, "us");
  metrics->Add("serving.service.p99_us", layers.service_p99_us, "us");
  metrics->Add("serving.service.self_mean_us", layers.service_self_mean_us, "us");
  metrics->Add("serving.service.allocs_per_req", layers.service_allocs_per_call,
               "count");
  metrics->Add("store.update_mean_us", layers.store_update_mean_us, "us");
  metrics->Add("store.update_p99_us", layers.store_update_p99_us, "us");
  metrics->Add("store.multi_mean_us", layers.store_multi_mean_us, "us");
  // The session read-modify-write per recommendation on the workload's
  // own path: Update per click, or one batched cycle per call.
  const double slots = static_cast<double>(stack.spec().slots());
  metrics->Add("store.per_rec_mean_us",
               stack.spec().batch_slots == 0
                   ? layers.store_update_mean_us
                   : layers.store_multi_rmw_mean_us / slots,
               "us");
  metrics->Add("store.value_bytes_mean", layers.store_value_bytes_mean, "bytes");
  metrics->Add("store.allocs_per_update", layers.store_allocs_per_update, "count");
  metrics->Add("index.pin_mean_us", layers.index_pin_mean_us, "us");
  metrics->Add("index.memory_mb",
               static_cast<double>(stack.index()->MemoryBytes()) / 1e6, "MB");
  metrics->Add("core.retrieve_mean_us", layers.core_retrieve_mean_us, "us");
  metrics->Add("core.retrieve_p99_us", layers.core_retrieve_p99_us, "us");
  metrics->Add("core.postings_per_query", layers.core_postings_per_query, "count");
  metrics->Add("core.allocs_per_query", layers.core_allocs_per_query, "count");
  metrics->Add("serving.rules.mean_us", layers.rules_mean_us, "us");
}

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  std::string info;
};

// Sends one measured phase, keeping the sampled sessions' items for
// CheckPhase. The check runs afterwards, so its replay stays out of the
// phase's CPU time and memory readings.
PhaseResult SendPhase(const Stack& stack, const Plan& plan, size_t connections,
                      uint64_t seed) {
  return RunPlan(plan, stack.entry_port(), connections, stack.rules(),
                 SampleSessions(seed));
}

// Folds a sent phase's failures and correctness into `outcome`.
void CheckPhase(const Stack& stack, const Plan& plan, const PhaseResult& result,
                uint64_t seed, Outcome* outcome) {
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "FAILED call: %s\n", error.c_str());
  }
  uint64_t checked = 0;
  const uint64_t mismatches = CheckAgainstReplay(
      stack, plan, result, SampleSessions(seed), &checked);
  std::fprintf(stderr,
               "correctness: %llu sampled clicks replayed, %llu mismatches, "
               "%llu business-rule violations\n",
               static_cast<unsigned long long>(checked),
               static_cast<unsigned long long>(mismatches),
               static_cast<unsigned long long>(result.rule_violations));
  outcome->attempted += plan.calls.size();
  outcome->failed += result.failed + mismatches;
  if (mismatches > 0 || result.rule_violations > 0) outcome->correct = false;
}

int Run(const Options& options) {
  const WorkloadSpec& spec = options.spec;
  const size_t connections = std::min<size_t>(
      kMaxConnections, std::max(1u, std::thread::hardware_concurrency()));
  Outcome outcome;

  // Set-up, repeated; the last stack stays up for the measured phases.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  const size_t setups = options.trace ? 1 : kSetups;
  for (size_t i = 0; i < setups; ++i) {
    stack.reset();
    const auto start = std::chrono::steady_clock::now();
    auto started = Stack::Start(spec, options.seed, options.work_dir, connections);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    stack = std::move(started).value();
    setup_s.push_back(Seconds(start));
    std::fprintf(stderr, "setup %zu: %.3f s\n", i + 1, setup_s.back());
  }

  const double fixed_seconds = options.seconds * kFixedShare;
  char info[1024];
  std::snprintf(info, sizeof(info),
                "\"workload\":\"%s\",\"seed\":%llu,\"build_type\":\"%s\","
                "\"nproc\":%u,\"connections\":%zu,\"pod_workers\":%zu,"
                "\"gateway_workers\":%zu,\"pods\":%zu,\"gateway\":%s,"
                "\"slo_us\":%llu,\"fixed_rps\":%.0f,\"setups\":%zu",
                spec.name.c_str(), static_cast<unsigned long long>(options.seed),
                SERVEBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                connections, kPodWorkers, spec.fleet ? kGatewayWorkers : 0,
                spec.pods(), spec.fleet ? "true" : "false",
                static_cast<unsigned long long>(spec.slo_us), spec.fixed_rps,
                setups);
  outcome.info = info;

  if (!options.trace) {
    // Fixed offered rate. CPU and peak RSS are read before the correctness
    // replay, and before the search, whose reach (and buffers) vary with
    // the host.
    Plan plan = BuildPlan(*stack, spec.fixed_rps, fixed_seconds, connections,
                          options.seed * 1000 + 1, "fx-");
    if (!stack->Prefill(plan).ok()) return 2;
    const Usage before = ReadUsage();
    const PhaseResult fixed = SendPhase(*stack, plan, connections, options.seed);
    const Usage after = ReadUsage();
    CheckPhase(*stack, plan, fixed, options.seed, &outcome);
    const Latency latency = Summarize(fixed);
    const double peak_rss_mb = after.max_rss_mb;
    std::fprintf(stderr,
                 "fixed: %zu calls at %.0f rec/s, p50 %.1f us, p99 %.1f us, "
                 "send lag p99 %.1f us\n",
                 latency.samples, spec.fixed_rps, latency.p50_us,
                 latency.p99_us, latency.lag_p99_us);

    // Search for the highest rate meeting the latency limit.
    const double probe_seconds =
        (options.seconds - fixed_seconds) / static_cast<double>(kProbes);
    // Bisect in log space; a probed rate keeps its best p99.
    double lo = spec.floor_rps, hi = spec.ceiling_rps;
    double lo_p99 = 0, hi_p99 = 0;
    bool any_pass = false, any_fail = false;
    const double limit = static_cast<double>(spec.slo_us);
    std::string probes;
    uint64_t probe_seed = options.seed * 1000 + 10;
    size_t retries_left = kProbes / 2;
    for (size_t p = 0; p < kProbes; ++p) {
      const double rate = std::sqrt(lo * hi);
      // A rate fails only if two probes in a row miss the limit, so one
      // host freeze during a short probe does not end the search low
      // (at most probes/2 retries per search, to bound its length).
      bool pass = false;
      double best_p99 = 0;
      for (int attempt = 0;
           !pass && attempt < 2 && (attempt == 0 || retries_left > 0);
           ++attempt) {
        if (attempt > 0) --retries_left;
        Plan probe = BuildPlan(*stack, rate, probe_seconds, connections,
                               probe_seed, "p" + std::to_string(probe_seed) + "-");
        ++probe_seed;
        if (!stack->Prefill(probe).ok()) return 2;
        const PhaseResult result =
            RunPlan(probe, stack->entry_port(), connections, stack->rules());
        const Latency l = Summarize(result);
        // A growing backlog shows as a late last window.
        pass = result.failed == 0 && l.p99_us <= limit &&
               l.last_window_p50_us <= limit;
        best_p99 = attempt == 0 ? l.p99_us : std::min(best_p99, l.p99_us);
        std::fprintf(stderr, "probe %.0f rec/s: p99 %.1f us (%zu windows), "
                     "last-window p50 %.1f us, %llu failed -> %s\n", rate,
                     l.p99_us, l.windows, l.last_window_p50_us,
                     static_cast<unsigned long long>(result.failed),
                     pass ? "pass" : "fail");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      char entry[96];
      std::snprintf(entry, sizeof(entry), "%s[%.0f,%.0f,%s]", p ? "," : "",
                    rate, best_p99, pass ? "true" : "false");
      probes += entry;
      if (pass) {
        lo = rate;
        lo_p99 = best_p99;
        any_pass = true;
      } else {
        hi = rate;
        hi_p99 = best_p99;
        any_fail = true;
      }
    }
    // A search that never failed a probe measured its ceiling, not the
    // stack, so the run is invalid. Noise only fails probes, so this
    // cannot come from a busy host. One that never passed reports the
    // floor unverified; it is flagged and never recorded as a baseline.
    const char* search_end = !any_fail ? "ceiling" : !any_pass ? "floor" : "inside";
    if (!any_fail) {
      std::fprintf(stderr, "ERROR: the search never failed a probe; raise "
                   "the ceiling of %s\n", spec.name.c_str());
      outcome.correct = false;
    } else if (!any_pass) {
      std::fprintf(stderr, "WARNING: the search never passed a probe; "
                   "max_rps_at_slo reads the floor of %s\n", spec.name.c_str());
    }
    outcome.info += std::string(",\"search_end\":\"") + search_end + "\"";
    // Between the last passing and the first failing rate, the limit is
    // crossed where log p99 reaches log limit (linear in log rate).
    double max_rps = lo;
    if (lo_p99 > 0 && hi_p99 > lo_p99) {
      const double t = std::clamp(std::log(limit / lo_p99) /
                                      std::log(hi_p99 / lo_p99),
                                  0.0, 1.0);
      max_rps = lo * std::pow(hi / lo, t);
    }
    outcome.info += ",\"probes\":[" + probes + "]";
    outcome.info += ",\"p99_samples\":" + std::to_string(latency.samples);

    outcome.metrics.Add("setup_s", Median(setup_s), "s");
    outcome.metrics.Add("p50_us", latency.p50_us, "us");
    outcome.metrics.Add("max_rps_at_slo", max_rps, "rec/s");
    outcome.metrics.Add("cpu_us_per_req",
                        1e6 * (after.cpu_s - before.cpu_s) /
                            static_cast<double>(plan.recommendations()),
                        "us");
    outcome.metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    stack.reset();
  } else {
    // The traced phase over the stack. Its spans are built from the call
    // results afterwards and the scrapes sit outside it, so it runs with
    // the same instrumentation as the timed run: trace.p50_us can be set
    // against p50_us directly, and there is no tracing overhead to report.
    Plan plan = BuildPlan(*stack, spec.fixed_rps, options.seconds * kTracedShare,
                          connections, options.seed * 1000 + 3, "tr-");
    if (!stack->Prefill(plan).ok()) return 2;
    auto before = ScrapeStack(*stack);
    const Usage usage_before = ReadUsage();
    const PhaseResult traced = SendPhase(*stack, plan, connections, options.seed);
    const Usage usage_after = ReadUsage();
    auto after = ScrapeStack(*stack);
    if (!before.ok() || !after.ok()) {
      std::fprintf(stderr, "metrics scrape failed\n");
      return 2;
    }
    CheckPhase(*stack, plan, traced, options.seed, &outcome);
    SpanLog spans;
    for (size_t i = 0; i < traced.calls.size(); ++i) {
      const CallResult& call = traced.calls[i];
      spans.Add("client.call", call.send_ns, call.send_ns + call.rtt_ns, -1,
                static_cast<uint32_t>(i));
    }
    const Latency latency = Summarize(traced);
    AddStackLayers(*stack, *before, *after, latency,
                   static_cast<double>(plan.calls.size()),
                   static_cast<double>(usage_after.ctx_switches -
                                       usage_before.ctx_switches),
                   &outcome.metrics);

    auto layers = ReplayLayers(*stack, plan, 3000, options.work_dir, &spans);
    if (!layers.ok()) {
      std::fprintf(stderr, "layer replay failed: %s\n",
                   layers.status().ToString().c_str());
      return 2;
    }
    AddInProcessLayers(*stack, *layers, &outcome.metrics);
    outcome.metrics.Add("trace.p50_us", latency.p50_us, "us");
    outcome.metrics.Add("trace.p99_us", latency.p99_us, "us");
    stack.reset();

    const bool selftest = RunSelfTest();
    if (!selftest) outcome.correct = false;
    outcome.info += ",\"selftest\":" + std::string(selftest ? "true" : "false");
    if (!options.spans_out.empty() && !spans.WriteJsonl(options.spans_out)) {
      std::fprintf(stderr, "could not write %s\n", options.spans_out.c_str());
    }
  }

  std::fprintf(stderr, "%s (seed %llu, %s):\n", spec.name.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? "traced" : "timed");
  outcome.metrics.Print();
  std::fprintf(stderr, "attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               outcome.correct ? "true" : "false");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s,\"info\":{%s}}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.metrics.Json().c_str(), outcome.info.c_str());
  return outcome.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (!ParseFlags(argc, argv, &options)) return 2;
  if (options.selftest) return RunSelfTest() ? 0 : 1;
  return Run(options);
}
