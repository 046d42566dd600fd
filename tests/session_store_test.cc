#include "store/session_store.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "store/wal.h"
#include "testing/fault_injection.h"

namespace serenade {
namespace {

// A controllable clock shared with the store under test (atomic so tests
// may advance time from a different thread than the store's callers).
struct ManualClock {
  std::atomic<uint64_t> now{1000};
  ClockFn Fn() {
    return [this] { return now.load(); };
  }
};

std::string TempPath(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

SessionStoreOptions VolatileOptions(ManualClock& clock) {
  SessionStoreOptions options;
  options.clock = clock.Fn();
  return options;
}

TEST(SessionStoreTest, PutGetRoundTrip) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("session-1", "1,2,3").ok());
  auto value = (*store)->Get("session-1");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "1,2,3");
}

TEST(SessionStoreTest, MissingKeyIsNotFound) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Get("ghost").status().code(), StatusCode::kNotFound);
}

TEST(SessionStoreTest, DeleteRemoves) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  ASSERT_TRUE((*store)->Delete("k").ok());
  EXPECT_FALSE((*store)->Get("k").ok());
  // Idempotent.
  EXPECT_TRUE((*store)->Delete("k").ok());
}

TEST(SessionStoreTest, MultiGetMixesHitsAndMisses) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  ASSERT_TRUE((*store)->Put("b", "2").ok());

  std::vector<std::string> values;
  std::vector<bool> found;
  (*store)->MultiGet({"a", "ghost", "b", "a"}, &values, &found);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(found, (std::vector<bool>{true, false, true, true}));
  EXPECT_EQ(values[0], "1");
  EXPECT_EQ(values[2], "2");
  EXPECT_EQ(values[3], "1");  // duplicate keys each get the value
}

TEST(SessionStoreTest, MultiGetHonoursTtlAndRefreshesIt) {
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 100;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("fresh", "f").ok());
  clock.now += 60;
  ASSERT_TRUE((*store)->Put("stale", "s").ok());
  clock.now += 60;  // "fresh" is now 120s old, "stale" 60s

  std::vector<std::string> values;
  std::vector<bool> found;
  (*store)->MultiGet({"fresh", "stale"}, &values, &found);
  EXPECT_EQ(found, (std::vector<bool>{false, true}));

  // The batch read refreshed "stale"'s TTL like a single Get would.
  clock.now += 60;
  EXPECT_TRUE((*store)->Get("stale").ok());
}

TEST(SessionStoreTest, MultiPutWritesAllAndLastDuplicateWins) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->MultiPut({{"x", "1"}, {"y", "2"}, {"x", "1,5"}})
                  .ok());
  EXPECT_EQ(*(*store)->Get("x"), "1,5");  // batch order: later wins
  EXPECT_EQ(*(*store)->Get("y"), "2");
  EXPECT_EQ((*store)->Stats().writes, 3u);
}

TEST(SessionStoreTest, MultiPutIsWalDurable) {
  const std::string path = TempPath("multiput.wal");
  ManualClock clock;
  {
    SessionStoreOptions options = VolatileOptions(clock);
    options.wal_path = path;
    auto store = SessionStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->MultiPut({{"m1", "7"}, {"m2", "8,9"}}).ok());
  }
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->Get("m1"), "7");
  EXPECT_EQ(*(*reopened)->Get("m2"), "8,9");
}

TEST(SessionStoreTest, MultiGetExpiredDuplicatesStayDeadWithinTheBatch) {
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 100;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("dead", "d").ok());
  clock.now += 150;  // "dead" expires
  ASSERT_TRUE((*store)->Put("live", "l").ok());

  // The expired key appears twice in one batch, sandwiching a live one:
  // both occurrences must miss identically, and the miss itself must not
  // refresh the corpse back to life for a later read.
  std::vector<std::string> values;
  std::vector<bool> found;
  (*store)->MultiGet({"dead", "live", "dead"}, &values, &found);
  EXPECT_EQ(found, (std::vector<bool>{false, true, false}));
  EXPECT_TRUE(values[0].empty());
  EXPECT_EQ(values[1], "l");
  EXPECT_TRUE(values[2].empty());
  EXPECT_EQ((*store)->Get("dead").status().code(), StatusCode::kNotFound);
}

TEST(SessionStoreTest, SweepExpiredRacingMultiPutLosesNoFreshWrite) {
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 100;
  auto opened = SessionStore::Open(options);
  ASSERT_TRUE(opened.ok());
  SessionStore& store = **opened;

  constexpr size_t kKeys = 16;
  std::vector<std::pair<std::string, std::string>> batch;
  for (size_t k = 0; k < kKeys; ++k) {
    batch.emplace_back("old-" + std::to_string(k), "stamped-1000");
  }
  ASSERT_TRUE(store.MultiPut(batch).ok());
  clock.now = 1200;  // every preloaded entry is now expired

  // The sweeper races batched rewrites of the very keys it wants to
  // evict. Time is frozen at 1200, so the race has a deterministic
  // outcome: a sweep may only claim entries still stamped 1000 — any key
  // a MultiPut has touched is stamped 1200 and untouchable until 1300.
  std::thread sweeper([&] {
    for (int i = 0; i < 50; ++i) store.SweepExpired();
  });
  std::thread writer([&] {
    for (int b = 0; b < 50; ++b) {
      for (auto& entry : batch) entry.second = "batch-" + std::to_string(b);
      EXPECT_TRUE(store.MultiPut(batch).ok());
    }
  });
  sweeper.join();
  writer.join();

  for (size_t k = 0; k < kKeys; ++k) {
    auto value = store.Get("old-" + std::to_string(k));
    ASSERT_TRUE(value.ok()) << "eviction swallowed a fresh write to old-"
                            << k << ": " << value.status().ToString();
    EXPECT_EQ(*value, "batch-49");
  }
  EXPECT_EQ(store.SweepExpired(), 0u);
  EXPECT_EQ(store.Stats().live_entries, kKeys);
}

TEST(SessionStoreTest, InjectedMultiPutFailureIsAllOrNothing) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("keep", "1").ok());

  ScopedFaultInjector injector(31);
  injector->Arm(FaultSite::kStoreMultiPut, FaultRule{1.0, 1, 0});
  const Status rejected =
      (*store)->MultiPut({{"keep", "2"}, {"fresh", "x"}});
  EXPECT_EQ(rejected.code(), StatusCode::kIoError);
  // Rejected means rejected: no half-applied batch.
  EXPECT_EQ(*(*store)->Get("keep"), "1");
  EXPECT_EQ((*store)->Get("fresh").status().code(), StatusCode::kNotFound);

  // Budget spent; the same batch goes through whole.
  ASSERT_TRUE((*store)->MultiPut({{"keep", "2"}, {"fresh", "x"}}).ok());
  EXPECT_EQ(*(*store)->Get("keep"), "2");
  EXPECT_EQ(*(*store)->Get("fresh"), "x");
}

TEST(SessionStoreTest, TtlExpiresInactiveSessions) {
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 100;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("idle", "x").ok());
  clock.now += 101;
  EXPECT_EQ((*store)->Get("idle").status().code(), StatusCode::kNotFound);
}

TEST(SessionStoreTest, GetRefreshesTtl) {
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 100;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("active", "x").ok());
  for (int i = 0; i < 5; ++i) {
    clock.now += 90;  // always touched before expiry
    ASSERT_TRUE((*store)->Get("active").ok()) << "iteration " << i;
  }
}

TEST(SessionStoreTest, SweepEvictsOnlyExpired) {
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 100;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("old", "x").ok());
  clock.now += 60;
  ASSERT_TRUE((*store)->Put("fresh", "y").ok());
  clock.now += 60;  // "old" is now 120s idle, "fresh" 60s
  EXPECT_EQ((*store)->SweepExpired(), 1u);
  EXPECT_FALSE((*store)->Get("old").ok());
  EXPECT_TRUE((*store)->Get("fresh").ok());
}

TEST(SessionStoreTest, UpdateAppendsAtomically) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*store)
                    ->Update("s",
                             [&](const std::string& current) {
                               return current + (current.empty() ? "" : ",") +
                                      std::to_string(i);
                             })
                    .ok());
  }
  auto value = (*store)->Get("s");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "0,1,2");
}

TEST(SessionStoreTest, StatsAreCounted) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  (void)(*store)->Put("a", "1");
  (void)(*store)->Get("a");
  (void)(*store)->Get("missing");
  (void)(*store)->Delete("a");
  const SessionStoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.read_misses, 1u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.live_entries, 0u);
}

TEST(SessionStoreTest, ConcurrentUpdatesAreAtomic) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  constexpr int kThreads = 8, kIncrements = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        (void)(*store)->Update("counter", [](const std::string& current) {
          const int value = current.empty() ? 0 : std::stoi(current);
          return std::to_string(value + 1);
        });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto value = (*store)->Get("counter");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::stoi(*value), kThreads * kIncrements);
}

TEST(SessionStoreTest, MultiUpdateChainsDuplicateKeysInArgumentOrder) {
  ManualClock clock;
  auto store = SessionStore::Open(VolatileOptions(clock));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "0").ok());
  const std::vector<std::string> keys = {"a", "b", "a", "a"};
  std::vector<std::string> seen;
  ASSERT_TRUE((*store)
                  ->MultiUpdate(keys,
                                [&](size_t i, const std::string& current) {
                                  seen.push_back(current);
                                  return current + std::to_string(i);
                                })
                  .ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"0", "", "00", "002"}));
  EXPECT_EQ(*(*store)->Get("a"), "0023");
  EXPECT_EQ(*(*store)->Get("b"), "1");
  EXPECT_EQ((*store)->Stats().writes, 5u);
}

TEST(SessionStoreTest, FailedWalAppendLeavesMemoryUntouched) {
  const std::string path = TempPath("append-fail-memory.wal");
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());

  ScopedFaultInjector injector(41);
  injector->Arm(FaultSite::kWalAppendFail, FaultRule{1.0, 3, 0});
  auto append = [](const std::string& current) { return current + "x"; };
  EXPECT_EQ((*store)->Update("a", append).code(), StatusCode::kIoError);
  EXPECT_EQ((*store)->Put("b", "2").code(), StatusCode::kIoError);
  EXPECT_EQ((*store)
                ->MultiUpdate({"a", "c"},
                              [&](size_t, const std::string& current) {
                                return append(current);
                              })
                .code(),
            StatusCode::kIoError);
  // Nothing was acknowledged, so nothing is visible.
  EXPECT_EQ(*(*store)->Get("a"), "1");
  EXPECT_EQ((*store)->Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*store)->Get("c").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*store)->Stats().writes, 1u);
}

// Two threads race Updates on one key; the WAL must end with the value
// memory ended with. Each round uses a fresh key, and one reopen at the
// end replays every round's key.
TEST(SessionStoreTest, ConcurrentUpdatesReachTheWalInMemoryOrder) {
  const std::string path = TempPath("update-order.wal");
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  constexpr int kRounds = 1000, kThreads = 2, kUpdates = 40;
  std::vector<std::string> acknowledged(kRounds);
  {
    auto store = SessionStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int round = 0; round < kRounds; ++round) {
      const std::string key = "order-" + std::to_string(round);
      std::atomic<int> ready{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
          ready.fetch_add(1);
          while (ready.load() < kThreads) std::this_thread::yield();
          for (int i = 0; i < kUpdates; ++i) {
            (void)(*store)->Update(key, [](const std::string& current) {
              const int value = current.empty() ? 0 : std::stoi(current);
              return std::to_string(value + 1);
            });
          }
        });
      }
      for (auto& thread : threads) thread.join();
      acknowledged[round] = *(*store)->Get(key);
    }
  }
  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  int diverged = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto recovered = (*reopened)->Get("order-" + std::to_string(round));
    if (!recovered.ok() || *recovered != acknowledged[round]) ++diverged;
  }
  EXPECT_EQ(diverged, 0) << "of " << kRounds << " rounds";
  std::filesystem::remove(path);
}

// Compact takes every shard lock before the WAL lock, the write path's
// order; batched writes across shards racing it must neither deadlock
// nor lose a write from the rewritten log.
TEST(SessionStoreTest, CompactionRacingMultiUpdatesKeepsEveryWrite) {
  const std::string path = TempPath("compact-race.wal");
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  options.num_shards = 4;
  std::vector<std::string> live;
  {
    auto store = SessionStore::Open(options);
    ASSERT_TRUE(store.ok());
    std::atomic<bool> done{false};
    std::thread compactor([&] {
      while (!done.load()) ASSERT_TRUE((*store)->Compact().ok());
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < 300; ++i) {
          const std::vector<std::string> keys = {
              "w" + std::to_string(t) + "-" + std::to_string(i % 7),
              "shared-" + std::to_string(i % 5),
              "w" + std::to_string(t) + "-" + std::to_string(i % 3)};
          ASSERT_TRUE((*store)
                          ->MultiUpdate(keys,
                                        [](size_t, const std::string& value) {
                                          return value + ".";
                                        })
                          .ok());
        }
      });
    }
    for (auto& writer : writers) writer.join();
    done.store(true);
    compactor.join();
    for (const auto& entry : (*store)->DumpEntries()) {
      live.push_back(entry.key + "=" + entry.value);
    }
  }
  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<std::string> recovered;
  for (const auto& entry : (*reopened)->DumpEntries()) {
    recovered.push_back(entry.key + "=" + entry.value);
  }
  std::sort(live.begin(), live.end());
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, live);
  std::filesystem::remove(path);
}

TEST(SessionStoreTest, ConcurrentMixedOpsWithSweeperDoNotRace) {
  // Readers, writers, deleters and a TTL sweeper hammer overlapping keys;
  // the invariant under test is freedom from crashes/deadlocks plus
  // consistent final bookkeeping (runs under the sanitizers in CI-style
  // builds).
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.ttl_seconds = 5;
  options.num_shards = 4;
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ticks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 23);
        switch (i % 4) {
          case 0:
            (void)(*store)->Put(key, "v");
            break;
          case 1:
            (void)(*store)->Get(key);
            break;
          case 2:
            (void)(*store)->Update(
                key, [](const std::string& v) { return v + "x"; });
            break;
          default:
            (void)(*store)->Delete(key);
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      clock.now += 1;  // advance time so TTL expiry actually triggers
      (void)(*store)->SweepExpired();
      ticks.fetch_add(1);
    }
  });
  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads.back().join();

  const SessionStoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.writes, 4u * 2000u);  // 4 threads x (1000 puts + 1000 updates)
  EXPECT_EQ(stats.reads, 4u * 1000u);
  EXPECT_LE(stats.live_entries, 23u);
}

// --- durability -------------------------------------------------------------

TEST(SessionStoreTest, RecoversFromWal) {
  const std::string path = TempPath("recover.wal");
  ManualClock clock;
  {
    SessionStoreOptions options = VolatileOptions(clock);
    options.wal_path = path;
    auto store = SessionStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Put("b", "2").ok());
    ASSERT_TRUE((*store)->Delete("a").ok());
  }
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->Get("a").ok());
  auto b = (*reopened)->Get("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "2");
}

TEST(SessionStoreTest, RecoveryDropsEntriesExpiredWhileDown) {
  const std::string path = TempPath("expire.wal");
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  options.ttl_seconds = 100;
  {
    auto store = SessionStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("s", "v").ok());
  }
  clock.now += 1000;  // store was "down" past the TTL
  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->Get("s").ok());
}

TEST(SessionStoreTest, TornWalTailIsTolerated) {
  const std::string path = TempPath("torn.wal");
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  {
    auto store = SessionStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Put("b", "2").ok());
  }
  // Simulate a crash mid-write: chop bytes off the tail.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->Get("a").ok());   // first record intact
  EXPECT_FALSE((*reopened)->Get("b").ok());  // torn record dropped
}

TEST(SessionStoreTest, CompactionShrinksWalAndPreservesState) {
  const std::string path = TempPath("compact.wal");
  ManualClock clock;
  SessionStoreOptions options = VolatileOptions(clock);
  options.wal_path = path;
  options.sync_every_write = true;  // make file sizes observable
  auto store = SessionStore::Open(options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("key", "value-" + std::to_string(i)).ok());
  }
  const auto before = std::filesystem::file_size(path);
  ASSERT_TRUE((*store)->Compact().ok());
  const auto after = std::filesystem::file_size(path);
  EXPECT_LT(after, before / 10);

  // State survives compaction and a reopen.
  store->reset();
  auto reopened = SessionStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto value = (*reopened)->Get("key");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "value-99");
}

TEST(WalTest, ReplayEmptyMissingFile) {
  auto result = ReplayWal("/nonexistent/file.wal", [](const WalRecord&) {});
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(WalTest, ReplayInOrder) {
  const std::string path = TempPath("order.wal");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer
                    .Append(WalRecord{WalRecordType::kPut,
                                      "k" + std::to_string(i),
                                      "v" + std::to_string(i),
                                      static_cast<uint64_t>(i)})
                    .ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  int next = 0;
  auto replayed = ReplayWal(path, [&](const WalRecord& record) {
    EXPECT_EQ(record.key, "k" + std::to_string(next));
    EXPECT_EQ(record.value, "v" + std::to_string(next));
    EXPECT_EQ(record.timestamp, static_cast<uint64_t>(next));
    ++next;
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 10u);
}

TEST(WalTest, MidFileCorruptionIsReported) {
  const std::string path = TempPath("midcorrupt.wal");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        writer.Append(WalRecord{WalRecordType::kPut, "key", "value", 1}).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  writer.Close();

  // Flip a byte inside the second record's payload.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  auto result = ReplayWal(path, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace serenade
