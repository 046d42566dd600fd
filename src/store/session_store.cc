#include "store/session_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common/hash.h"
#include "testing/fault_injection.h"

namespace serenade {

uint64_t SystemClockSeconds() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

SessionStore::SessionStore(SessionStoreOptions options)
    : options_(std::move(options)), shards_(options_.num_shards) {}

SessionStore::~SessionStore() {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (wal_.is_open()) wal_.Sync();
}

StatusOr<std::unique_ptr<SessionStore>> SessionStore::Open(
    SessionStoreOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be > 0");
  }
  auto store = std::unique_ptr<SessionStore>(new SessionStore(options));

  if (!options.wal_path.empty()) {
    // Recover existing state (a missing file is a fresh store).
    const uint64_t now = store->options_.clock();
    uint64_t valid_bytes = 0;
    auto replayed = ReplayWal(
        options.wal_path,
        [&](const WalRecord& record) {
          Shard& shard = store->ShardFor(record.key);
          if (record.type == WalRecordType::kDelete) {
            shard.table.erase(record.key);
          } else {
            shard.table[record.key] = Entry{record.value, record.timestamp};
          }
        },
        &valid_bytes);
    if (!replayed.ok() &&
        replayed.status().code() != StatusCode::kIoError) {
      return replayed.status();  // corruption: refuse to open silently
    }
    if (replayed.ok()) {
      // Chop any torn tail before reopening for append. Without this, a
      // post-crash write would land after the garbage bytes and the next
      // replay would stop at the tear — silently losing every write
      // acknowledged after recovery.
      std::error_code ec;
      const auto size = std::filesystem::file_size(options.wal_path, ec);
      if (!ec && size > valid_bytes) {
        std::filesystem::resize_file(options.wal_path, valid_bytes, ec);
        if (ec) {
          return Status::IoError("cannot truncate torn WAL tail at " +
                                 options.wal_path + ": " + ec.message());
        }
      }
    }
    // Drop entries that expired while the store was down.
    for (Shard& shard : store->shards_) {
      std::erase_if(shard.table, [&](const auto& kv) {
        return store->IsExpired(kv.second, now);
      });
    }
    SERENADE_RETURN_IF_ERROR(store->wal_.Open(options.wal_path));
  }
  return store;
}

SessionStore::Shard& SessionStore::ShardFor(const std::string& key) {
  return shards_[Fnv1a(key) % shards_.size()];
}

bool SessionStore::IsExpired(const Entry& entry, uint64_t now) const {
  return now > entry.last_access &&
         now - entry.last_access > options_.ttl_seconds;
}

Status SessionStore::AppendToWal(const std::vector<WalRecord>& records) {
  if (options_.wal_path.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lock(wal_mutex_);
  for (const WalRecord& record : records) {
    SERENADE_RETURN_IF_ERROR(wal_.Append(record));
  }
  if (options_.sync_every_write) return wal_.Sync();
  return Status::Ok();
}

Status SessionStore::LockedWrite(const std::vector<std::string>& keys,
                                 const MultiMutator& mutator,
                                 uint64_t stamp) {
  std::vector<size_t> shard_of(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    shard_of[i] = Fnv1a(keys[i]) % shards_.size();
  }
  std::vector<size_t> order = shard_of;
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(order.size());
  for (size_t s : order) locks.emplace_back(shards_[s].mutex);

  // Stage each new value in its WAL record; a repeated key chains on the
  // value its latest earlier occurrence staged.
  static const std::string kAbsent;
  std::vector<WalRecord> records;
  records.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string* current = &kAbsent;
    const auto& table = shards_[shard_of[i]].table;
    auto earlier = std::find_if(
        records.rbegin(), records.rend(),
        [&](const WalRecord& record) { return record.key == keys[i]; });
    if (earlier != records.rend()) {
      current = &earlier->value;
    } else if (auto it = table.find(keys[i]);
               it != table.end() && !IsExpired(it->second, stamp)) {
      current = &it->second.value;
    }
    records.push_back(
        WalRecord{WalRecordType::kPut, keys[i], mutator(i, *current), stamp});
  }

  // Durable first, visible second: a failed append leaves the tables as
  // they were, and nothing can reach the WAL between the two steps.
  SERENADE_RETURN_IF_ERROR(AppendToWal(records));
  for (size_t i = 0; i < keys.size(); ++i) {
    shards_[shard_of[i]].table[keys[i]] =
        Entry{std::move(records[i].value), stamp};
  }
  writes_.fetch_add(keys.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status SessionStore::Put(const std::string& key, const std::string& value) {
  return LockedWrite(
      {key}, [&value](size_t, const std::string&) { return value; },
      options_.clock());
}

StatusOr<std::string> SessionStore::Get(const std::string& key,
                                        Trace* trace) {
  Span span(trace, TraceStage::kStoreGet);
  const uint64_t now = options_.clock();
  reads_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.table.find(key);
  if (it == shard.table.end()) {
    read_misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound(key);
  }
  if (IsExpired(it->second, now)) {
    shard.table.erase(it);
    read_misses_.fetch_add(1, std::memory_order_relaxed);
    expirations_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound(key + " (expired)");
  }
  it->second.last_access = now;  // touch: active sessions stay alive
  return it->second.value;
}

Status SessionStore::Delete(const std::string& key) {
  const uint64_t now = options_.clock();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  SERENADE_RETURN_IF_ERROR(
      AppendToWal({WalRecord{WalRecordType::kDelete, key, "", now}}));
  shard.table.erase(key);
  deletes_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status SessionStore::Update(
    const std::string& key,
    const std::function<std::string(const std::string&)>& mutator,
    Trace* trace) {
  Span span(trace, TraceStage::kStorePut);
  return LockedWrite(
      {key},
      [&mutator](size_t, const std::string& current) {
        return mutator(current);
      },
      options_.clock());
}

Status SessionStore::MultiUpdate(const std::vector<std::string>& keys,
                                 const MultiMutator& mutator) {
  return LockedWrite(keys, mutator, options_.clock());
}

void SessionStore::MultiGet(const std::vector<std::string>& keys,
                            std::vector<std::string>* values,
                            std::vector<bool>* found, Trace* trace) {
  Span span(trace, TraceStage::kStoreGet);
  const uint64_t now = options_.clock();
  values->assign(keys.size(), std::string());
  found->assign(keys.size(), false);
  reads_.fetch_add(keys.size(), std::memory_order_relaxed);

  // Group key positions by shard so each shard mutex is locked once.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    by_shard[Fnv1a(keys[i]) % shards_.size()].push_back(i);
  }

  uint64_t misses = 0, expired = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (size_t i : by_shard[s]) {
      auto it = shard.table.find(keys[i]);
      if (it == shard.table.end()) {
        ++misses;
        continue;
      }
      if (IsExpired(it->second, now)) {
        shard.table.erase(it);
        ++misses;
        ++expired;
        continue;
      }
      it->second.last_access = now;  // touch: active sessions stay alive
      (*values)[i] = it->second.value;
      (*found)[i] = true;
    }
  }
  read_misses_.fetch_add(misses, std::memory_order_relaxed);
  expirations_.fetch_add(expired, std::memory_order_relaxed);
}

Status SessionStore::MultiPut(
    const std::vector<std::pair<std::string, std::string>>& entries,
    Trace* trace) {
  Span span(trace, TraceStage::kStorePut);
  // Fails before any shard is locked, so a rejected batch is
  // all-or-nothing from the caller's view: no ack, no visible writes.
  SERENADE_FAULT_POINT(FaultSite::kStoreMultiPut, {
    return Status::IoError("injected: batched write rejected");
  });
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (const auto& entry : entries) keys.push_back(entry.first);
  return LockedWrite(
      keys,
      [&entries](size_t i, const std::string&) { return entries[i].second; },
      options_.clock());
}

std::vector<SessionStore::RestoreEntry> SessionStore::DumpEntries() const {
  const uint64_t now = options_.clock();
  std::vector<RestoreEntry> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.table) {
      if (IsExpired(entry, now)) continue;
      out.push_back(RestoreEntry{key, entry.value, entry.last_access});
    }
  }
  return out;
}

std::optional<SessionStore::RestoreEntry> SessionStore::PeekEntry(
    const std::string& key) {
  const uint64_t now = options_.clock();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.table.find(key);
  if (it == shard.table.end() || IsExpired(it->second, now)) {
    return std::nullopt;
  }
  return RestoreEntry{key, it->second.value, it->second.last_access};
}

StatusOr<size_t> SessionStore::Restore(
    const std::vector<RestoreEntry>& entries) {
  const uint64_t now = options_.clock();
  size_t applied = 0;
  for (const RestoreEntry& incoming : entries) {
    if (IsExpired(Entry{incoming.value, incoming.last_access}, now)) {
      continue;  // never resurrect a session past its TTL
    }
    SERENADE_RETURN_IF_ERROR(LockedWrite(
        {incoming.key},
        [&incoming](size_t, const std::string&) { return incoming.value; },
        incoming.last_access));
    ++applied;
  }
  return applied;
}

Status SessionStore::SyncWal() {
  if (options_.wal_path.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lock(wal_mutex_);
  if (!wal_.is_open()) return Status::Ok();
  return wal_.Sync();
}

size_t SessionStore::SweepExpired() {
  const uint64_t now = options_.clock();
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    evicted += std::erase_if(shard.table, [&](const auto& kv) {
      return IsExpired(kv.second, now);
    });
  }
  expirations_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

Status SessionStore::Compact() {
  if (options_.wal_path.empty()) return Status::Ok();
  const uint64_t now = options_.clock();
  // The write path's lock order: every shard, in index order, then the WAL.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (Shard& shard : shards_) shard_locks.emplace_back(shard.mutex);
  std::lock_guard<std::mutex> wal_lock(wal_mutex_);
  SERENADE_RETURN_IF_ERROR(wal_.Open(options_.wal_path + ".tmp",
                                     /*truncate=*/true));
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.table) {
      if (IsExpired(entry, now)) continue;
      SERENADE_RETURN_IF_ERROR(wal_.Append(
          WalRecord{WalRecordType::kPut, key, entry.value,
                    entry.last_access}));
    }
  }
  SERENADE_RETURN_IF_ERROR(wal_.Sync());
  wal_.Close();
  if (std::rename((options_.wal_path + ".tmp").c_str(),
                  options_.wal_path.c_str()) != 0) {
    return Status::IoError("compaction rename failed");
  }
  wal_generation_.fetch_add(1, std::memory_order_acq_rel);
  return wal_.Open(options_.wal_path);
}

SessionStoreStats SessionStore::Stats() const {
  SessionStoreStats stats;
  stats.reads = reads_.load(std::memory_order_relaxed);
  stats.read_misses = read_misses_.load(std::memory_order_relaxed);
  stats.writes = writes_.load(std::memory_order_relaxed);
  stats.deletes = deletes_.load(std::memory_order_relaxed);
  stats.expirations = expirations_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.live_entries += shard.table.size();
  }
  return stats;
}

}  // namespace serenade
