#include "index/section_codec.h"

#include <cstring>

#include "common/crc32.h"

namespace serenade {

namespace {

constexpr uint32_t kCrcMaskDelta = 0xa282ead8u;

uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kCrcMaskDelta;
}

}  // namespace

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(const char** cursor, const char* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*cursor < end && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(**cursor);
    ++*cursor;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

void PutFixed32(std::string* out, uint32_t value) {
  char buf[4];
  std::memcpy(buf, &value, 4);
  out->append(buf, 4);
}

void PutFixed64(std::string* out, uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  out->append(buf, 8);
}

void AppendSection(std::string* out, const std::string& payload) {
  PutFixed64(out, payload.size());
  out->append(payload);
  PutFixed32(out, MaskCrc(Crc32(payload.data(), payload.size())));
}

Status ReadSection(const char** cursor, const char* end, SectionCrc crc,
                   const char** payload, size_t* payload_size) {
  if (end - *cursor < 8) return Status::Corruption("section length");
  uint64_t size = 0;
  std::memcpy(&size, *cursor, 8);
  *cursor += 8;
  const auto remaining = static_cast<uint64_t>(end - *cursor);
  if (remaining < 4 || size > remaining - 4) {
    return Status::Corruption("section payload truncated");
  }
  *payload = *cursor;
  *payload_size = static_cast<size_t>(size);
  *cursor += size;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, *cursor, 4);
  *cursor += 4;
  uint32_t actual_crc = Crc32(*payload, *payload_size);
  if (crc == SectionCrc::kMasked) actual_crc = MaskCrc(actual_crc);
  if (actual_crc != stored_crc) {
    return Status::Corruption("section CRC mismatch");
  }
  return Status::Ok();
}

}  // namespace serenade
