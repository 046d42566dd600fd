#include "index/index_format.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "data/synthetic.h"
#include "index/index_builder.h"
#include "index/snapshot.h"

namespace serenade {
namespace {

Dataset MakeData(uint64_t seed = 19) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_items = 400;
  config.num_sessions = 3000;
  config.num_days = 7;
  return GenerateDataset(config);
}

void ExpectIndexesEqual(const SessionIndex& a, const SessionIndex& b) {
  ASSERT_EQ(a.num_sessions(), b.num_sessions());
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_postings(), b.num_postings());
  ASSERT_EQ(a.max_sessions_per_item(), b.max_sessions_per_item());
  for (ItemId item = 0; item < a.num_items(); ++item) {
    const auto pa = a.SessionsForItem(item);
    const auto pb = b.SessionsForItem(item);
    ASSERT_EQ(std::vector<SessionId>(pa.begin(), pa.end()),
              std::vector<SessionId>(pb.begin(), pb.end()))
        << "item " << item;
    ASSERT_FLOAT_EQ(a.Idf(item), b.Idf(item)) << "item " << item;
  }
  for (SessionId s = 0; s < a.num_sessions(); ++s) {
    ASSERT_EQ(a.SessionTimestamp(s), b.SessionTimestamp(s));
    const auto ia = a.ItemsForSession(s);
    const auto ib = b.ItemsForSession(s);
    ASSERT_EQ(std::vector<ItemId>(ia.begin(), ia.end()),
              std::vector<ItemId>(ib.begin(), ib.end()));
  }
}

TEST(IndexFormatTest, SerializeRoundTrip) {
  SessionIndex index = SessionIndex::Build(MakeData(), 50);
  const std::string bytes = SerializeIndex(index);
  auto restored = DeserializeIndex(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIndexesEqual(index, *restored);
}

TEST(IndexFormatTest, FileRoundTrip) {
  SessionIndex index = SessionIndex::Build(MakeData(), 50);
  const std::string path = testing::TempDir() + "/index.srn";
  ASSERT_TRUE(WriteIndexFile(path, index).ok());
  auto restored = ReadIndexFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIndexesEqual(index, *restored);
}

TEST(IndexFormatTest, CompressionShrinksIndex) {
  SessionIndex index = SessionIndex::Build(MakeData(), 500);
  const std::string bytes = SerializeIndex(index);
  EXPECT_LT(bytes.size(), index.MemoryBytes());
}

TEST(IndexFormatTest, EmptyIndexRoundTrip) {
  SessionIndex index = SessionIndex::Build(Dataset(), 10);
  auto restored = DeserializeIndex(SerializeIndex(index));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_sessions(), 0u);
}

TEST(IndexFormatTest, RejectsBadMagic) {
  SessionIndex index = SessionIndex::Build(MakeData(), 20);
  std::string bytes = SerializeIndex(index);
  bytes[0] = 'X';
  EXPECT_EQ(DeserializeIndex(bytes).status().code(), StatusCode::kCorruption);
}

TEST(IndexFormatTest, RejectsTruncation) {
  SessionIndex index = SessionIndex::Build(MakeData(), 20);
  const std::string bytes = SerializeIndex(index);
  for (double fraction : {0.1, 0.5, 0.9, 0.99}) {
    const std::string truncated =
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction));
    EXPECT_FALSE(DeserializeIndex(truncated).ok()) << fraction;
  }
}

TEST(IndexFormatTest, RejectsBitFlips) {
  SessionIndex index = SessionIndex::Build(MakeData(), 20);
  const std::string bytes = SerializeIndex(index);
  // Flip a byte in several positions scattered through the payload; CRC
  // or structural validation must catch every one of them.
  for (size_t position :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 10}) {
    std::string corrupted = bytes;
    corrupted[position] = static_cast<char>(corrupted[position] ^ 0x40);
    EXPECT_FALSE(DeserializeIndex(corrupted).ok()) << "position " << position;
  }
}

TEST(IndexFormatTest, DifferentArtifactsGetDifferentManifestCrcs) {
  // Regression pin: with each raw section CRC stored right after its
  // payload, the whole-file CRC is a constant of the framing (CRC is
  // linear over GF(2)), so every same-shaped index collided in the
  // manifest's index_crc32. Masked section CRCs break that.
  const SessionIndex a = SessionIndex::Build(MakeData(), 50);
  SessionIndex::Raw raw = a.ToRaw();
  ASSERT_FALSE(raw.item_idf.empty());
  raw.item_idf[0] += 0.25f;  // fixed-width section: the size stays put
  const SessionIndex b = SessionIndex::FromRaw(std::move(raw));

  IndexManifest stamp;
  auto manifest_a = WriteIndexWithManifest(
      testing::TempDir() + "/crc-a.srn", a, stamp);
  auto manifest_b = WriteIndexWithManifest(
      testing::TempDir() + "/crc-b.srn", b, stamp);
  ASSERT_TRUE(manifest_a.ok() && manifest_b.ok());
  EXPECT_EQ(manifest_a->index_bytes, manifest_b->index_bytes)
      << "same shape must frame to the same size for this pin to bite";
  EXPECT_NE(manifest_a->index_crc32, manifest_b->index_crc32);
}

TEST(IndexFormatTest, RawCrcVersion2ArtifactStillLoads) {
  // Version-2 artifacts, written before section CRCs were masked, must
  // keep loading. Re-frame a current artifact the way a v2 writer framed
  // it: same header and payloads, version 2, raw payload CRCs.
  const SessionIndex index = SessionIndex::Build(MakeData(), 50);
  const std::string current = SerializeIndex(index);
  constexpr size_t kHeader = 8 + 4 + 8;  // magic | version | m
  std::string v2 = current.substr(0, kHeader);
  const uint32_t version = 2;
  std::memcpy(&v2[8], &version, sizeof(version));
  size_t cursor = kHeader;
  for (int section = 0; section < 7; ++section) {
    uint64_t size = 0;
    std::memcpy(&size, &current[cursor], sizeof(size));
    v2.append(current, cursor, 8 + size);
    const uint32_t raw_crc = Crc32(current.data() + cursor + 8, size);
    v2.append(reinterpret_cast<const char*>(&raw_crc), sizeof(raw_crc));
    cursor += 8 + size + 4;
  }
  ASSERT_EQ(cursor, current.size());
  ASSERT_EQ(v2.size(), current.size());
  ASSERT_NE(v2.substr(kHeader), current.substr(kHeader));

  auto restored = DeserializeIndex(v2);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIndexesEqual(index, *restored);
  EXPECT_EQ(SerializeIndex(*restored), current);

  // The version selects the CRC mode: raw CRCs under the current version
  // are corruption.
  std::string mislabelled = v2;
  std::memcpy(&mislabelled[8], &current[8], sizeof(version));
  EXPECT_EQ(DeserializeIndex(mislabelled).status().code(),
            StatusCode::kCorruption);
}

TEST(IndexFormatTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadIndexFile("/nonexistent/index.srn").status().code(),
            StatusCode::kIoError);
}

TEST(IndexBuilderTest, ParallelMatchesSerial) {
  Dataset dataset = MakeData(23);
  for (size_t m : {1u, 10u, 100u, 5000u}) {
    SessionIndex serial = SessionIndex::Build(dataset, m);
    IndexBuilderOptions options;
    options.max_sessions_per_item = m;
    options.num_threads = 4;
    SessionIndex parallel = BuildIndexParallel(dataset, options);
    ExpectIndexesEqual(serial, parallel);
  }
}

TEST(IndexBuilderTest, SinglePartition) {
  Dataset dataset = MakeData(29);
  IndexBuilderOptions options;
  options.max_sessions_per_item = 50;
  options.num_threads = 2;
  options.num_partitions = 1;
  ExpectIndexesEqual(SessionIndex::Build(dataset, 50),
                     BuildIndexParallel(dataset, options));
}

TEST(IndexBuilderTest, MorePartitionsThanItems) {
  std::vector<Click> clicks = {{1, 0, 10}, {1, 1, 20}, {2, 0, 30}, {2, 1, 40}};
  Dataset dataset = Dataset::FromClicks(clicks);
  IndexBuilderOptions options;
  options.max_sessions_per_item = 5;
  options.num_threads = 4;
  options.num_partitions = 64;
  ExpectIndexesEqual(SessionIndex::Build(dataset, 5),
                     BuildIndexParallel(dataset, options));
}

TEST(IndexBuilderTest, EmptyDataset) {
  IndexBuilderOptions options;
  options.max_sessions_per_item = 5;
  SessionIndex index = BuildIndexParallel(Dataset(), options);
  EXPECT_EQ(index.num_sessions(), 0u);
  EXPECT_EQ(index.num_items(), 0u);
}

}  // namespace
}  // namespace serenade
