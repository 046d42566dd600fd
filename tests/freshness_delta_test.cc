// Delta artifact codec and overlay application (index/index_format.h,
// index/snapshot.h) — the distribution half of the streaming freshness
// pipeline (DESIGN.md §9). Pinned invariants:
//   * delta serialization is deterministic and round-trips losslessly,
//   * any truncation or bit flip is rejected as corruption (section CRCs),
//   * structurally invalid deltas (regressing end times, unsorted items,
//     version <= base) never deserialize,
//   * ApplyDeltaToIndex is byte-identical to a full rebuild over
//     base + delta sessions — the central equivalence the overlay path
//     rests on,
//   * IndexManager::ApplyDelta enforces lineage (base version and CRC),
//     treats re-delivery as idempotent, layers cumulative deltas over the
//     pinned base (not over each other), and never disturbs a pinned
//     reader snapshot,
//   * manifest sidecars round-trip the delta lineage fields and
//     CheckManifestOverwrite refuses version regressions.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/session_index.h"
#include "data/click_log.h"
#include "index/index_format.h"
#include "index/snapshot.h"

namespace serenade {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Six base sessions over items 1..6; item 1 is popular enough that a
// small m truncates its postings list (exercising the merge cap).
std::vector<Click> BaseClicks() {
  return {
      Click{0, 1, 10}, Click{0, 2, 11},                  // end 11
      Click{1, 1, 20}, Click{1, 3, 21},                  // end 21
      Click{2, 1, 30}, Click{2, 4, 31},                  // end 31
      Click{3, 2, 40}, Click{3, 5, 41},                  // end 41
      Click{4, 1, 50}, Click{4, 6, 51},                  // end 51
      Click{5, 3, 60}, Click{5, 5, 61}, Click{5, 6, 62}, // end 62
  };
}

// Three streamed sessions strictly above the base horizon (end 62); the
// last one introduces item 9, growing the vocabulary.
std::vector<DeltaSession> StreamedSessions() {
  return {
      DeltaSession{{1, 2, 5}, /*end_time=*/63, /*observed_unix_ms=*/1063},
      DeltaSession{{1, 4}, /*end_time=*/64, /*observed_unix_ms=*/1064},
      DeltaSession{{2, 6, 9}, /*end_time=*/65, /*observed_unix_ms=*/1065},
  };
}

IndexDelta MakeDelta(std::vector<DeltaSession> sessions,
                     uint64_t base_version = 1, uint32_t base_crc32 = 0,
                     uint64_t delta_version = 2) {
  IndexDelta delta;
  delta.base_version = base_version;
  delta.base_crc32 = base_crc32;
  delta.delta_version = delta_version;
  delta.sessions = std::move(sessions);
  uint64_t watermark = 0;
  for (const DeltaSession& s : delta.sessions) {
    watermark = std::max(watermark, s.observed_unix_ms);
  }
  delta.watermark_unix_ms = watermark;
  return delta;
}

TEST(DeltaCodecTest, DifferentArtifactsGetDifferentCrcs) {
  // Regression pin: raw section CRCs made the whole-file CRC a constant
  // of the framing, so same-shaped deltas collided. Item 2 -> 3 keeps
  // every varint the same width, so only the content differs.
  std::vector<DeltaSession> changed = StreamedSessions();
  changed[0].items = {1, 3, 5};
  const std::string a = SerializeDelta(MakeDelta(StreamedSessions()));
  const std::string b = SerializeDelta(MakeDelta(changed));
  ASSERT_NE(a, b);
  ASSERT_EQ(a.size(), b.size())
      << "same shape must frame to the same size for this pin to bite";
  EXPECT_NE(Crc32(a.data(), a.size()), Crc32(b.data(), b.size()));
}

TEST(DeltaCodecTest, RawCrcVersion1ArtifactStillLoads) {
  // Re-frame a current artifact as a version-1 writer framed it: version
  // 1, raw payload CRCs. Published deltas outlive the binary that wrote
  // them, so readers keep accepting it.
  const IndexDelta delta = MakeDelta(StreamedSessions());
  const std::string current = SerializeDelta(delta);
  constexpr size_t kHeader = 8 + 4;  // magic | version
  std::string v1 = current.substr(0, kHeader);
  const uint32_t version = 1;
  std::memcpy(&v1[8], &version, sizeof(version));
  size_t cursor = kHeader;
  for (int section = 0; section < 2; ++section) {
    uint64_t size = 0;
    std::memcpy(&size, &current[cursor], sizeof(size));
    v1.append(current, cursor, 8 + size);
    const uint32_t raw_crc = Crc32(current.data() + cursor + 8, size);
    v1.append(reinterpret_cast<const char*>(&raw_crc), sizeof(raw_crc));
    cursor += 8 + size + 4;
  }
  ASSERT_EQ(cursor, current.size());

  auto decoded = DeserializeDelta(v1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SerializeDelta(*decoded), current);
}

TEST(DeltaCodecTest, RoundTripsLosslesslyAndDeterministically) {
  const IndexDelta delta = MakeDelta(StreamedSessions());
  const std::string bytes = SerializeDelta(delta);
  EXPECT_EQ(bytes, SerializeDelta(delta)) << "serialization must be stable";

  auto decoded = DeserializeDelta(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->base_version, delta.base_version);
  EXPECT_EQ(decoded->base_crc32, delta.base_crc32);
  EXPECT_EQ(decoded->delta_version, delta.delta_version);
  EXPECT_EQ(decoded->watermark_unix_ms, delta.watermark_unix_ms);
  ASSERT_EQ(decoded->sessions.size(), delta.sessions.size());
  for (size_t s = 0; s < delta.sessions.size(); ++s) {
    EXPECT_EQ(decoded->sessions[s].items, delta.sessions[s].items);
    EXPECT_EQ(decoded->sessions[s].end_time, delta.sessions[s].end_time);
    EXPECT_EQ(decoded->sessions[s].observed_unix_ms,
              delta.sessions[s].observed_unix_ms);
  }
  EXPECT_EQ(SerializeDelta(*decoded), bytes);
}

TEST(DeltaCodecTest, EveryTruncationIsRejected) {
  const std::string bytes = SerializeDelta(MakeDelta(StreamedSessions()));
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DeserializeDelta(bytes.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
  }
  // Trailing garbage is corruption too, not silently ignored.
  EXPECT_FALSE(DeserializeDelta(bytes + "x").ok());
}

TEST(DeltaCodecTest, BitFlipsAreCaughtBySectionCrcs) {
  const std::string clean = SerializeDelta(MakeDelta(StreamedSessions()));
  // Flip one bit in every byte past the magic; each flip must either be
  // rejected or (for length/CRC fields) fail structurally — never decode
  // to a *different* accepted delta.
  for (size_t pos = 8; pos < clean.size(); ++pos) {
    std::string bytes = clean;
    bytes[pos] ^= 0x01;
    auto decoded = DeserializeDelta(bytes);
    if (decoded.ok()) {
      EXPECT_EQ(SerializeDelta(*decoded), clean)
          << "flip at byte " << pos << " decoded to a different delta";
    }
  }
}

TEST(DeltaCodecTest, StructurallyInvalidDeltasNeverDeserialize) {
  // Version must exceed the base it layers over.
  EXPECT_FALSE(
      DeserializeDelta(
          SerializeDelta(MakeDelta(StreamedSessions(), 5, 0, /*delta=*/5)))
          .ok());

  // End times may not regress across sessions.
  auto regressing = StreamedSessions();
  regressing[2].end_time = regressing[0].end_time - 1;
  EXPECT_FALSE(
      DeserializeDelta(SerializeDelta(MakeDelta(std::move(regressing)))).ok());

  // Items must be strictly ascending (gap coding doubles as the check).
  auto duplicated = StreamedSessions();
  duplicated[0].items = {3, 3};
  EXPECT_FALSE(
      DeserializeDelta(SerializeDelta(MakeDelta(std::move(duplicated)))).ok());

  // Empty sessions carry no signal and are rejected.
  auto empty = StreamedSessions();
  empty[1].items.clear();
  EXPECT_FALSE(
      DeserializeDelta(SerializeDelta(MakeDelta(std::move(empty)))).ok());
}

TEST(DeltaCodecTest, DeltaFileRoundTrips) {
  const std::string path = TempPath("roundtrip.srndelta");
  const IndexDelta delta = MakeDelta(StreamedSessions());
  ASSERT_TRUE(WriteDeltaFile(path, delta).ok());
  auto read = ReadDeltaFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(SerializeDelta(*read), SerializeDelta(delta));
}

TEST(ApplyDeltaTest, DeltaFromSessionsMeetsTheMergeInvariants) {
  // Click-order items with repeats, one end time below the base horizon
  // and one that regresses: the delta must come out sorted, distinct and
  // non-decreasing at or above the horizon, so the merge accepts it.
  std::vector<SessionData> sessions(3);
  sessions[0].items = {5, 1, 5, 2};
  sessions[0].end_time = 70;
  sessions[1].items = {4, 4};
  sessions[1].end_time = 66;  // regresses below its predecessor
  sessions[2].items = {9, 1};
  sessions[2].end_time = 80;
  const IndexDelta delta = DeltaFromSessions(sessions, /*base_max=*/75);
  ASSERT_EQ(delta.sessions.size(), 3u);
  EXPECT_EQ(delta.sessions[0].items, (std::vector<ItemId>{1, 2, 5}));
  EXPECT_EQ(delta.sessions[1].items, (std::vector<ItemId>{4}));
  EXPECT_EQ(delta.sessions[2].items, (std::vector<ItemId>{1, 9}));
  EXPECT_EQ(delta.sessions[0].end_time, 75u);
  EXPECT_EQ(delta.sessions[1].end_time, 75u);
  EXPECT_EQ(delta.sessions[2].end_time, 80u);

  const SessionIndex base = SessionIndex::Build(
      Dataset::FromClicks(BaseClicks(), 2), /*max_sessions_per_item=*/3);
  auto merged = ApplyDeltaToIndex(base, DeltaFromSessions(sessions, 62));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->num_sessions(), base.num_sessions() + 3);
  EXPECT_EQ(merged->num_items(), 10u);

  // No fresh sessions: the merge reproduces the base byte for byte.
  auto unchanged = ApplyDeltaToIndex(base, DeltaFromSessions({}, 62));
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_EQ(SerializeIndex(*unchanged), SerializeIndex(base));
}

TEST(ApplyDeltaTest, MergedIndexIsByteIdenticalToFullRebuild) {
  // m = 3 forces postings truncation for item 1 (base frequency 4, plus
  // two more delta sessions), so the "delta newest first, base tail
  // truncated" merge order is actually load-bearing here.
  const size_t m = 3;
  const Dataset base_data = Dataset::FromClicks(BaseClicks(), 2);
  const SessionIndex base = SessionIndex::Build(base_data, m);
  ASSERT_TRUE(base.has_frequencies());

  const IndexDelta delta = MakeDelta(StreamedSessions());
  auto merged = ApplyDeltaToIndex(base, delta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  // The oracle: rebuild from scratch over base clicks + streamed clicks
  // (each streamed session's clicks share its end_time).
  std::vector<Click> all_clicks = BaseClicks();
  SessionId next_session = 100;
  for (const DeltaSession& session : StreamedSessions()) {
    for (ItemId item : session.items) {
      all_clicks.push_back(
          Click{next_session, item, static_cast<Timestamp>(session.end_time)});
    }
    ++next_session;
  }
  const SessionIndex full =
      SessionIndex::Build(Dataset::FromClicks(std::move(all_clicks), 2), m);

  EXPECT_EQ(SerializeIndex(*merged), SerializeIndex(full))
      << "base + overlay must be indistinguishable from a full rebuild";

  // Spot checks readable without decoding bytes.
  EXPECT_EQ(merged->num_sessions(), base.num_sessions() + 3);
  EXPECT_EQ(merged->num_items(), size_t{10});  // item 9 extended the space
  EXPECT_EQ(merged->ItemFrequency(1), base.ItemFrequency(1) + 2);
  EXPECT_EQ(merged->ItemFrequency(9), 1u);
}

TEST(ApplyDeltaTest, RejectsBasesAndSessionsItCannotMergeSafely) {
  const SessionIndex base =
      SessionIndex::Build(Dataset::FromClicks(BaseClicks(), 2), 3);

  // A format-v1 base (no exact frequencies) cannot take overlays.
  SessionIndex::Raw raw = base.ToRaw();
  raw.item_frequencies.clear();
  const SessionIndex v1_base = SessionIndex::FromRaw(std::move(raw));
  ASSERT_FALSE(v1_base.has_frequencies());
  EXPECT_EQ(
      ApplyDeltaToIndex(v1_base, MakeDelta(StreamedSessions())).status().code(),
      StatusCode::kInvalidArgument);

  // Sessions below the base horizon would corrupt recency ordering.
  auto stale = StreamedSessions();
  stale[0].end_time = 5;
  stale[1].end_time = 63;
  stale[2].end_time = 64;
  EXPECT_EQ(ApplyDeltaToIndex(base, MakeDelta(std::move(stale))).status().code(),
            StatusCode::kInvalidArgument);

  // Unsorted items (the codec rejects these too; the merge re-checks for
  // callers that build IndexDelta structs directly).
  auto unsorted = StreamedSessions();
  unsorted[0].items = {5, 2};
  EXPECT_EQ(
      ApplyDeltaToIndex(base, MakeDelta(std::move(unsorted))).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(IndexManagerDeltaTest, LayersCumulativeDeltasOverThePinnedBase) {
  auto index = std::make_shared<const SessionIndex>(
      SessionIndex::Build(Dataset::FromClicks(BaseClicks(), 2), 3));
  auto manager = IndexManager::CreateFromIndex(index, /*version=*/1);
  const auto pinned_base = manager->Current();  // a reader mid-request

  // Delta v2: first two streamed sessions.
  auto streamed = StreamedSessions();
  IndexDelta v2 = MakeDelta({streamed[0], streamed[1]});
  IndexManager::DeltaApplyInfo info;
  ASSERT_TRUE(manager->ApplyDelta(v2, &info).ok());
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.sessions_applied, 2u);
  ASSERT_EQ(info.observed_unix_ms.size(), 2u);
  EXPECT_EQ(info.observed_unix_ms[0], 1063u);
  EXPECT_EQ(manager->current_version(), 2u);
  EXPECT_EQ(manager->applied_delta_version(), 2u);
  EXPECT_EQ(manager->base_version(), 1u);
  EXPECT_EQ(manager->deltas_applied_total(), 1u);
  EXPECT_EQ(manager->freshness_watermark_unix_ms(), 1064u);
  EXPECT_EQ(manager->Current()->manifest().kind, "delta");
  EXPECT_EQ(manager->Current()->manifest().base_version, 1u);

  // Idempotent re-delivery: same version again is covered, not a reject.
  EXPECT_EQ(manager->ApplyDelta(v2).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(manager->delta_rejects_total(), 0u);

  // Delta v3 is cumulative (all three sessions) and must merge over the
  // *base*, not over the v2 overlay: total sessions = base + 3, not + 5.
  IndexDelta v3 = MakeDelta(StreamedSessions(), 1, 0, /*delta_version=*/3);
  ASSERT_TRUE(manager->ApplyDelta(v3, &info).ok());
  EXPECT_EQ(info.sessions_applied, 1u)  // only the genuinely new session
      << "cumulative re-delivery must not re-count covered sessions";
  ASSERT_EQ(info.observed_unix_ms.size(), 1u);
  EXPECT_EQ(info.observed_unix_ms[0], 1065u);
  EXPECT_EQ(manager->Current()->index().num_sessions(),
            index->num_sessions() + 3);
  EXPECT_EQ(manager->freshness_watermark_unix_ms(), 1065u);

  // The reader's pinned snapshot never moved under it.
  EXPECT_EQ(pinned_base->version(), 1u);
  EXPECT_EQ(pinned_base->index().num_sessions(), index->num_sessions());
}

TEST(IndexManagerDeltaTest, RejectsLineageMismatches) {
  auto index = std::make_shared<const SessionIndex>(
      SessionIndex::Build(Dataset::FromClicks(BaseClicks(), 2), 3));
  auto manager = IndexManager::CreateFromIndex(index, /*version=*/4);
  const uint64_t before = manager->current_version();

  // Wrong base version: the delta was cut against someone else's snapshot.
  IndexDelta wrong_base =
      MakeDelta(StreamedSessions(), /*base_version=*/3, 0, /*delta=*/5);
  EXPECT_EQ(manager->ApplyDelta(wrong_base).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager->delta_rejects_total(), 1u);
  EXPECT_EQ(manager->current_version(), before);
  EXPECT_EQ(manager->applied_delta_version(), 0u);
}

TEST(IndexManagerDeltaTest, RejectsBaseCrcMismatchForFileBackedBases) {
  const std::string path = TempPath("crc-base.index");
  const SessionIndex index =
      SessionIndex::Build(Dataset::FromClicks(BaseClicks(), 2), 3);
  IndexManifest manifest;
  manifest.version = 7;
  manifest.build_id = "crc-test";
  auto written = WriteIndexWithManifest(path, index, manifest);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_NE(written->index_crc32, 0u);

  auto manager = IndexManager::CreateFromFile(path);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  // Right version, wrong artifact CRC: same-numbered rollout, different
  // bytes — exactly the split-brain lineage check exists to catch.
  IndexDelta bad_crc = MakeDelta(StreamedSessions(), /*base_version=*/7,
                                 written->index_crc32 ^ 0xdeadbeef,
                                 /*delta=*/8);
  EXPECT_EQ((*manager)->ApplyDelta(bad_crc).code(), StatusCode::kCorruption);
  EXPECT_EQ((*manager)->delta_rejects_total(), 1u);

  // Matching CRC (or an unstamped 0) is accepted.
  IndexDelta good = MakeDelta(StreamedSessions(), /*base_version=*/7,
                              written->index_crc32, /*delta=*/8);
  EXPECT_TRUE((*manager)->ApplyDelta(good).ok());
  EXPECT_EQ((*manager)->applied_delta_version(), 8u);
}

TEST(ManifestTest, DeltaLineageFieldsRoundTrip) {
  const std::string path = TempPath("delta-lineage.manifest");
  IndexManifest manifest;
  manifest.version = 12;
  manifest.build_id = "delta-12";
  manifest.kind = "delta";
  manifest.base_version = 7;
  manifest.base_crc32 = 0xabcdef01;
  manifest.watermark_unix_ms = 1723000000123ull;
  ASSERT_TRUE(WriteManifestFile(path, manifest).ok());

  auto read = ReadManifestFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->kind, "delta");
  EXPECT_EQ(read->base_version, 7u);
  EXPECT_EQ(read->base_crc32, 0xabcdef01u);
  EXPECT_EQ(read->watermark_unix_ms, 1723000000123ull);
}

TEST(ManifestTest, CheckManifestOverwriteGuardsVersionRegressions) {
  const std::string index_path = TempPath("overwrite-guard.index");

  // No sidecar: nothing to clobber.
  EXPECT_TRUE(CheckManifestOverwrite(index_path + ".nosuch", 1).ok());

  IndexManifest manifest;
  manifest.version = 5;
  ASSERT_TRUE(WriteManifestFile(ManifestPathFor(index_path), manifest).ok());

  EXPECT_EQ(CheckManifestOverwrite(index_path, 4).code(),
            StatusCode::kAlreadyExists);  // regression
  EXPECT_EQ(CheckManifestOverwrite(index_path, 5).code(),
            StatusCode::kAlreadyExists);  // same version re-run
  EXPECT_TRUE(CheckManifestOverwrite(index_path, 6).ok());
}

}  // namespace
}  // namespace serenade
