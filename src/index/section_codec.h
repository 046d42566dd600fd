// Framing shared by the three sectioned artifact formats: the session
// index (SRNIDX1), the index delta (SRNDLT1) and the item embeddings
// (SRNEMB1). Each artifact is a magic + version header followed by
// sections framed as
//
//   u64 payload length | payload | u32 CRC-32 of the payload
//
// all little-endian, with varint-coded integers inside the payloads.
//
// Section CRCs are stored *masked* (rotate + add a constant, after
// LevelDB). Storing a raw CRC right after its payload makes the whole
// file's CRC a constant function of the framing: CRC is linear over
// GF(2), so `payload || crc(payload)` always leaves the same residue,
// and two different artifacts of the same shape collide in the
// manifest's whole-file index_crc32 (and in a delta's base_crc32
// lineage guard). The addition carries are non-linear, which breaks
// that cancellation. Index artifacts before version 3 and delta
// artifacts before version 2 carry raw CRCs; their readers verify them
// with SectionCrc::kRaw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace serenade {

void PutVarint(std::string* out, uint64_t value);
/// Decodes one varint at `*cursor` and advances it; false when the bytes
/// run out before the varint ends (or it overflows 64 bits).
bool GetVarint(const char** cursor, const char* end, uint64_t* value);
void PutFixed32(std::string* out, uint32_t value);
void PutFixed64(std::string* out, uint64_t value);

/// How a section's trailing CRC was stored.
enum class SectionCrc { kMasked, kRaw };

/// Appends one section with a masked CRC (writers emit nothing else).
void AppendSection(std::string* out, const std::string& payload);

/// Reads the section at `*cursor`, advances past it and points
/// `payload` into the input. kCorruption on truncation or CRC mismatch.
Status ReadSection(const char** cursor, const char* end, SectionCrc crc,
                   const char** payload, size_t* payload_size);

}  // namespace serenade
