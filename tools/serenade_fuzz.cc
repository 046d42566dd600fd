// serenade_fuzz — time-bounded differential fuzzing of the retrieval
// engine families:
//   * diff: VS-kNN vs VMIS-kNN vs VMIS-no-opt vs the micro-batched
//     service path (testing/differential.h), scores and ranks
//     bit-identical;
//   * ann: HNSW vs brute-force exact top-k (testing/ann_oracle.h),
//     mean recall@k >= 0.95 per generated case.
//
//   serenade_fuzz [--family diff|ann|both] [--seed N] [--seconds N]
//                 [--kernel-only]
//
// SERENADE_FUZZ_SECONDS overrides the budget (the CI smoke pins 30 s; a
// nightly-style run sets it to minutes); `both` splits it evenly. Every
// case derives its seed as base_seed + case_index, so a failure
// reproduces with `serenade_fuzz --family <f> --seed <printed case seed>
// --seconds 1` — or directly in a unit test via GenerateDiffCase /
// GenerateAnnCase with Rng(seed).
//
// Exit status: 0 = every case agreed; 1 = divergence or recall violation
// (minimal reproducer printed); 2 = bad usage.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "testing/ann_oracle.h"
#include "testing/differential.h"
#include "flags.h"

namespace serenade {
namespace {

using Clock = std::chrono::steady_clock;

// Batches keep the deadline check off the per-case hot path while the
// per-case seeds stay a pure function of (seed, case index).
constexpr uint64_t kBatch = 8;

int RunDiffFamily(uint64_t seed, Clock::time_point deadline,
                  bool kernel_only) {
  DiffSpec spec;
  spec.include_service = !kernel_only;
  DiffFuzzStats stats;
  uint64_t next_case = 0;
  const auto start = Clock::now();
  while (Clock::now() < deadline) {
    const auto reproducer =
        RunDiffFuzz(spec, seed + next_case, kBatch, &stats);
    if (reproducer.has_value()) {
      std::cout << *reproducer;
      std::cout << "FAIL [diff] after " << stats.cases << " cases ("
                << stats.sessions << " sessions, " << stats.queries
                << " queries)" << std::endl;
      return 1;
    }
    next_case += kBatch;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - start)
                           .count();
  std::cout << "OK [diff]: " << stats.cases << " cases, " << stats.sessions
            << " sessions, " << stats.queries
            << " queries, zero divergence in " << elapsed << " ms"
            << std::endl;
  return 0;
}

int RunAnnFamily(uint64_t seed, Clock::time_point deadline) {
  AnnOracleSpec spec;
  AnnFuzzStats stats;
  uint64_t next_case = 0;
  const auto start = Clock::now();
  while (Clock::now() < deadline) {
    const auto reproducer =
        RunAnnFuzz(spec, seed + next_case, kBatch, &stats);
    if (reproducer.has_value()) {
      std::cout << *reproducer;
      std::cout << "FAIL [ann] after " << stats.cases << " cases ("
                << stats.items << " items, " << stats.queries << " queries)"
                << std::endl;
      return 1;
    }
    next_case += kBatch;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - start)
                           .count();
  std::cout << "OK [ann]: " << stats.cases << " cases, " << stats.items
            << " corpus items, " << stats.queries << " queries, recall@"
            << spec.k << " >= " << spec.min_recall << " throughout in "
            << elapsed << " ms" << std::endl;
  return 0;
}

int Run(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const uint64_t seed = flags.GetInt("seed", 20260806);
  const bool kernel_only = flags.GetBool("kernel-only", false);
  const std::string family = flags.GetString("family", "diff");
  uint64_t seconds = flags.GetInt("seconds", 30);
  flags.RejectUnread();
  if (family != "diff" && family != "ann" && family != "both") {
    std::cerr << "unknown --family \"" << family
              << "\" (expected diff|ann|both)" << std::endl;
    return 2;
  }
  if (const char* env = std::getenv("SERENADE_FUZZ_SECONDS")) {
    seconds = std::strtoull(env, nullptr, 10);
  }
  if (seconds == 0) seconds = 1;

  std::cout << "serenade_fuzz: family=" << family << " seed=" << seed
            << " budget=" << seconds << "s service_path="
            << (kernel_only ? "off" : "on") << std::endl;

  const auto start = Clock::now();
  if (family == "diff") {
    return RunDiffFamily(seed, start + std::chrono::seconds(seconds),
                         kernel_only);
  }
  if (family == "ann") {
    return RunAnnFamily(seed, start + std::chrono::seconds(seconds));
  }
  // both: split the budget evenly; first failure wins.
  const auto half = std::chrono::milliseconds(seconds * 1000 / 2);
  if (int rc = RunDiffFamily(seed, start + half, kernel_only); rc != 0) {
    return rc;
  }
  return RunAnnFamily(seed, Clock::now() + half);
}

}  // namespace
}  // namespace serenade

int main(int argc, char** argv) { return serenade::Run(argc, argv); }
