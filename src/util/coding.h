// Little-endian fixed-width integer coding for the durability file
// formats (service/wal, service/snapshot), plus the one string-list
// coding both use for records and the snapshot's schema. Byte-order
// explicit so the files are portable across hosts; bounds-checked Get*
// so a corrupt length field fails the decode instead of reading past
// the buffer.

#ifndef MERGEPURGE_UTIL_CODING_H_
#define MERGEPURGE_UTIL_CODING_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mergepurge {

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

// Reads a u32/u64 at *pos, advancing it; false when fewer bytes remain.
inline bool GetU32(std::string_view data, size_t* pos, uint32_t* out) {
  if (data.size() < 4 || *pos > data.size() - 4) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[*pos + i]))
         << (8 * i);
  }
  *pos += 4;
  *out = v;
  return true;
}

inline bool GetU64(std::string_view data, size_t* pos, uint64_t* out) {
  if (data.size() < 8 || *pos > data.size() - 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[*pos + i]))
         << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

// A string list: a u32 count, then each string as a u32 length and its
// bytes. A record is written as the list of its fields.
inline void PutStringList(std::string* out,
                          const std::vector<std::string>& strings) {
  PutU32(out, static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) {
    PutU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  }
}

// Reads a list written by PutStringList at *pos into *out, advancing
// *pos; false when the list runs past the end of `data`.
inline bool GetStringList(std::string_view data, size_t* pos,
                          std::vector<std::string>* out) {
  uint32_t count = 0;
  if (!GetU32(data, pos, &count)) return false;
  out->clear();
  // Each string takes at least its 4-byte length, which bounds the count
  // a corrupt header can make us reserve.
  out->reserve(std::min<size_t>(count, (data.size() - *pos) / 4));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!GetU32(data, pos, &len) || data.size() - *pos < len) return false;
    out->emplace_back(data.substr(*pos, len));
    *pos += len;
  }
  return true;
}

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_CODING_H_
