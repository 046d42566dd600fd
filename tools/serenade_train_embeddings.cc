// CLI: train the item2vec embedding artifact for the ANN retrieval
// family (DESIGN.md §13).
//
//   serenade_train_embeddings --out items.emb
//       [--sessions 20000] [--items 2000] [--data-seed 42]
//       [--dim 32] [--window 3] [--negatives 5] [--epochs 3]
//       [--lr 0.05] [--train-seed 42] [--threads 0]
//       [--version 1] [--build-id ID] [--source NAME]
//
// Trains deterministic skip-gram embeddings over the synthetic
// clickstream (the same generator the index builder uses) and writes the
// SRNEMB1 artifact plus its `.manifest` sidecar — the unit a pod loads
// with `serenade_server --embeddings items.emb` or hot-swaps via
// POST /v1/admin/embeddings/reload. Training is byte-identical for a
// fixed (--data-seed, --train-seed) no matter --threads, so rebuilt
// artifacts carry the same manifest CRC (see embedding_determinism_test).
//
// --threads 0 uses the hardware concurrency.
#include <cstdio>
#include <string>
#include <thread>

#include "baselines/item2vec.h"
#include "data/synthetic.h"
#include "flags.h"
#include "index/embedding_format.h"
#include "index/snapshot.h"

using namespace serenade;

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const std::string out_path = flags.GetString("out");
  SyntheticConfig synth;
  synth.seed = flags.GetInt("data-seed", 42);
  synth.num_sessions = flags.GetInt("sessions", 20000);
  synth.num_items = flags.GetInt("items", 2000);

  Item2VecConfig config;
  config.dim = flags.GetInt("dim", 32);
  config.window = flags.GetInt("window", 3);
  config.negatives = flags.GetInt("negatives", 5);
  config.epochs = flags.GetInt("epochs", 3);
  config.learning_rate = static_cast<float>(flags.GetDouble("lr", 0.05));
  config.seed = flags.GetInt("train-seed", 42);
  config.num_threads = flags.GetInt("threads", 0);
  if (config.num_threads == 0) {
    config.num_threads = std::max(1u, std::thread::hardware_concurrency());
  }

  IndexManifest stamp;
  stamp.version = flags.GetInt("version", 1);
  stamp.build_id = flags.GetString("build-id");
  stamp.source = flags.GetString("source");
  if (stamp.source.empty()) {
    stamp.source = "synthetic-" + std::to_string(synth.seed);
  }
  flags.RejectUnread();

  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: serenade_train_embeddings --out items.emb "
                 "[--sessions N] [--items N] [--dim D] [--epochs E]\n");
    return 2;
  }
  const Dataset train = GenerateDataset(synth);
  std::printf("clickstream: %zu sessions, %zu items, %zu clicks\n",
              train.num_sessions(), train.num_items(), train.num_clicks());

  double total_loss = 0.0;
  auto embeddings = TrainItemEmbeddings(train, config, &total_loss);
  if (!embeddings.ok()) {
    std::fprintf(stderr, "training: %s\n",
                 embeddings.status().ToString().c_str());
    return 1;
  }
  std::printf("trained %zu x %zu embeddings (%zu threads, loss %.4f)\n",
              embeddings->num_items, embeddings->dim, config.num_threads,
              total_loss);

  auto manifest = WriteEmbeddingsWithManifest(out_path, *embeddings, stamp);
  if (!manifest.ok()) {
    std::fprintf(stderr, "write: %s\n", manifest.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (version %llu, crc32 %08x, %llu bytes) + sidecar %s\n",
              out_path.c_str(),
              static_cast<unsigned long long>(manifest->version),
              manifest->index_crc32,
              static_cast<unsigned long long>(manifest->index_bytes),
              ManifestPathFor(out_path).c_str());
  return 0;
}
