#include "index/embedding_format.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "index/section_codec.h"

namespace serenade {

namespace {

constexpr char kMagic[8] = {'S', 'R', 'N', 'E', 'M', 'B', '1', '\0'};
constexpr uint32_t kVersion = 1;

}  // namespace

std::string SerializeEmbeddings(const ItemEmbeddings& embeddings) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, kVersion);

  std::string header;
  PutVarint(&header, embeddings.num_items);
  PutVarint(&header, embeddings.dim);
  AppendSection(&out, header);

  std::string vectors;
  PutVarint(&vectors, embeddings.values.size());
  vectors.append(reinterpret_cast<const char*>(embeddings.values.data()),
                 embeddings.values.size() * sizeof(float));
  AppendSection(&out, vectors);
  return out;
}

StatusOr<ItemEmbeddings> DeserializeEmbeddings(const std::string& bytes) {
  const char* cursor = bytes.data();
  const char* end = bytes.data() + bytes.size();
  if (end - cursor < static_cast<ptrdiff_t>(sizeof(kMagic) + 4)) {
    return Status::Corruption("embedding file too short");
  }
  if (std::memcmp(cursor, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad embedding magic");
  }
  cursor += sizeof(kMagic);
  uint32_t version = 0;
  std::memcpy(&version, cursor, 4);
  cursor += 4;
  if (version != kVersion) {
    return Status::Corruption("unsupported embedding version " +
                              std::to_string(version));
  }

  const char* header = nullptr;
  size_t header_size = 0;
  SERENADE_RETURN_IF_ERROR(
      ReadSection(&cursor, end, SectionCrc::kMasked, &header, &header_size));
  const char* header_cursor = header;
  const char* header_end = header + header_size;
  uint64_t num_items = 0, dim = 0;
  if (!GetVarint(&header_cursor, header_end, &num_items) ||
      !GetVarint(&header_cursor, header_end, &dim)) {
    return Status::Corruption("embedding header truncated");
  }
  if (header_cursor != header_end) {
    return Status::Corruption("embedding header has trailing bytes");
  }

  const char* vectors = nullptr;
  size_t vectors_size = 0;
  SERENADE_RETURN_IF_ERROR(ReadSection(&cursor, end, SectionCrc::kMasked,
                                       &vectors, &vectors_size));
  if (cursor != end) {
    return Status::Corruption("trailing bytes after embedding sections");
  }
  const char* vec_cursor = vectors;
  const char* vec_end = vectors + vectors_size;
  uint64_t count = 0;
  if (!GetVarint(&vec_cursor, vec_end, &count)) {
    return Status::Corruption("embedding vector count truncated");
  }
  if (count != num_items * dim) {
    return Status::Corruption("embedding vector count mismatch");
  }
  if (static_cast<uint64_t>(vec_end - vec_cursor) != count * sizeof(float)) {
    return Status::Corruption("embedding vector payload size mismatch");
  }

  ItemEmbeddings embeddings;
  embeddings.num_items = static_cast<size_t>(num_items);
  embeddings.dim = static_cast<size_t>(dim);
  embeddings.values.resize(static_cast<size_t>(count));
  if (count > 0) {
    std::memcpy(embeddings.values.data(), vec_cursor,
                static_cast<size_t>(count) * sizeof(float));
  }
  SERENADE_RETURN_IF_ERROR(ValidateEmbeddings(embeddings));
  return embeddings;
}

Status WriteEmbeddingsFile(const std::string& path,
                           const ItemEmbeddings& embeddings) {
  const std::string bytes = SerializeEmbeddings(embeddings);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) return Status::IoError("write failure on " + path);
  return Status::Ok();
}

StatusOr<ItemEmbeddings> ReadEmbeddingsFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) return Status::IoError("read failure on " + path);
  return DeserializeEmbeddings(buffer.str());
}

StatusOr<IndexManifest> WriteEmbeddingsWithManifest(
    const std::string& path, const ItemEmbeddings& embeddings,
    IndexManifest manifest) {
  SERENADE_RETURN_IF_ERROR(ValidateEmbeddings(embeddings));
  const std::string bytes = SerializeEmbeddings(embeddings);
  manifest.kind = "embedding";
  manifest.num_items = embeddings.num_items;
  manifest.embedding_dim = embeddings.dim;
  manifest.num_sessions = 0;
  manifest.num_postings = 0;
  manifest.index_bytes = bytes.size();
  manifest.index_crc32 = Crc32(bytes.data(), bytes.size());

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file) return Status::IoError("write failure on " + path);

  SERENADE_RETURN_IF_ERROR(WriteManifestFile(ManifestPathFor(path), manifest));
  return manifest;
}

}  // namespace serenade
