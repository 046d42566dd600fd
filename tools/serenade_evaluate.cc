// CLI: offline evaluation of VMIS-kNN and the baseline recommenders on a
// click log, using the paper's protocol (last day held out, metrics @20).
//
//   serenade_evaluate --clicks clicks.csv [--m 500] [--k 100]
//       [--cutoff 20] [--test-days 1] [--max-sessions 0]
//       [--models vmis-knn,sr,ar,markov,popularity,item-knn]
//
// Without --clicks a synthetic dataset is used.
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/item_knn.h"
#include "baselines/popularity.h"
#include "baselines/rules.h"
#include "core/session_index.h"
#include "core/vmis_knn.h"
#include "data/csv.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "flags.h"

using namespace serenade;

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const std::string clicks_path = flags.GetString("clicks");
  SyntheticConfig synthetic;
  if (clicks_path.empty()) {
    synthetic.seed = flags.GetInt("seed", 42);
    synthetic.num_sessions = flags.GetInt("synthetic-sessions", 30000);
    synthetic.num_items = flags.GetInt("synthetic-items", 5000);
    synthetic.num_days = flags.GetInt("synthetic-days", 14);
  }
  const size_t test_days = flags.GetInt("test-days", 1);
  KnnConfig knn_config;
  knn_config.m = flags.GetInt("m", 500);
  knn_config.k = flags.GetInt("k", 100);
  std::stringstream wanted(flags.GetString(
      "models", "vmis-knn,sr,ar,markov,popularity,item-knn"));
  EvalOptions options;
  options.cutoff = flags.GetInt("cutoff", 20);
  options.max_sessions = flags.GetInt("max-sessions", 0);
  options.record_latency = true;
  flags.RejectUnread();

  Dataset dataset;
  if (!clicks_path.empty()) {
    auto clicks = ReadClicksCsv(clicks_path);
    if (!clicks.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", clicks_path.c_str(),
                   clicks.status().ToString().c_str());
      return 1;
    }
    dataset = Dataset::FromClicks(std::move(clicks).value());
  } else {
    std::printf("no --clicks given; generating synthetic data\n");
    dataset = GenerateDataset(synthetic);
  }

  TrainTestSplit split = SplitLastDays(dataset, test_days);
  std::printf("train %zu sessions | test %zu sessions\n",
              split.train.num_sessions(), split.test.num_sessions());
  if (split.test.num_sessions() == 0) {
    std::fprintf(stderr, "no test sessions after the split\n");
    return 1;
  }

  SessionIndex index = SessionIndex::Build(split.train, knn_config.m);

  std::vector<std::pair<std::string, std::unique_ptr<Recommender>>> models;
  std::string name;
  while (std::getline(wanted, name, ',')) {
    if (name == "vmis-knn") {
      models.emplace_back(name, std::make_unique<VmisKnn>(&index, knn_config));
    } else if (name == "sr") {
      models.emplace_back(
          name, std::make_unique<SequentialRules>(split.train, RulesConfig{}));
    } else if (name == "ar") {
      models.emplace_back(name, std::make_unique<AssociationRules>(
                                    split.train, RulesConfig{}));
    } else if (name == "markov") {
      models.emplace_back(name,
                          std::make_unique<MarkovRecommender>(split.train));
    } else if (name == "popularity") {
      models.emplace_back(
          name, std::make_unique<PopularityRecommender>(split.train));
    } else if (name == "item-knn") {
      models.emplace_back(name, std::make_unique<ItemKnnRecommender>(
                                    split.train, ItemKnnConfig{}));
    } else {
      std::fprintf(stderr, "unknown model: %s\n", name.c_str());
      return 2;
    }
  }

  std::printf("\n%-14s %8s %8s %8s %8s %8s %12s\n", "model", "MRR", "HR",
              "P", "R", "MAP", "p90 latency");
  for (auto& [model_name, model] : models) {
    const EvalResult result =
        EvaluateRecommender(*model, split.test, options);
    std::printf("%-14s %8.4f %8.4f %8.4f %8.4f %8.4f %9llu us\n",
                model_name.c_str(), result.metrics.Mrr(),
                result.metrics.HitRate(), result.metrics.Precision(),
                result.metrics.Recall(), result.metrics.Map(),
                static_cast<unsigned long long>(
                    result.latency_micros.Percentile(0.9)));
  }
  return 0;
}
