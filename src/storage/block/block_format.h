#pragma once

/// On-"disk" layout of an immutable columnar block — the persistent unit of
/// the tiered storage layer (docs/STORAGE.md has the annotated diagram).
///
/// A block holds one sorted row slice of a table, column at a time:
///
///   [magic u64]
///   [page 0][page 1]...[page N-1]        column payload + validity
///   [footer]                             schema, page table, zone maps
///   [footer_size u32][footer_checksum u64][magic u64]
///
/// Each payload page is stored in the smallest encoding its type has
/// (PageKind): an int64 page plain or frame-of-reference bit-packed, a
/// string page plain or as a dictionary plus bit-packed codes; double and
/// validity pages are always plain. Every page and the footer carry a
/// Checksum64; the reader verifies every one (including pages a projected
/// read does not decode) before handing bytes to the engine, and checks a
/// packed page's header against its size before unpacking it, so a corrupt
/// spill file surfaces as a Status instead of wrong query results. All
/// integers are fixed-width little-endian so blocks round-trip across
/// toolchains.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "storage/types.h"
#include "storage/zone_map.h"

namespace costdb {
namespace block {

/// "CDBBLK1\0" — leading and trailing magic of every block file.
inline constexpr uint64_t kBlockMagic = 0x0031'4B4C'4242'4443ULL;
/// Version 3: bit-packed int64 and dictionary string pages. Readers accept
/// only the current version: blocks live in spill files that never outlive
/// the process that wrote them.
inline constexpr uint32_t kBlockFormatVersion = 3;
/// Sentinel page index meaning "column has no validity page" (all valid).
inline constexpr uint32_t kNoPage = 0xFFFFFFFFu;
/// Most rows one block holds. The writer never cuts a bigger block, and the
/// reader rejects a footer that claims more: a bit-packed page of width 0
/// stores no bytes per row, so only this bound keeps a forged row count
/// from sizing the decoder's allocations.
inline constexpr uint64_t kMaxBlockRows = uint64_t{1} << 20;

/// What a page stores. Validity is one byte per row (1 = valid, 0 = NULL),
/// mirroring ColumnVector's in-memory mask exactly; a NULL slot's payload
/// is the type-default filler and is encoded like any other value.
enum class PageKind : uint8_t {
  kInt64 = 0,     // rows × 8 bytes: the flat payload
  kDouble = 1,    // rows × 8 bytes: the flat payload
  kString = 2,    // per row: u32 length, bytes
  kValidity = 3,  // rows × 1 byte
  // [base u64][width u8][PackedBytes(rows, width)]: value − base, in
  // `width` bits, base = the page minimum.
  kInt64Packed = 4,
  // [entries u32][entries × (u32 length, bytes)][PackedBytes(rows, w)]:
  // the distinct values in order of first appearance, then each row's
  // code at w = BitWidth(entries − 1) bits.
  kStringDict = 5,
};

inline constexpr size_t kPackedHeaderBytes = 8 + 1;  // kInt64Packed
inline constexpr size_t kDictHeaderBytes = 4;        // kStringDict

/// Bits needed to store `v`: 0 for 0, 64 for values with the top bit set.
inline uint32_t BitWidth(uint64_t v) {
  uint32_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// Bytes of `rows` values bit-packed at `width` bits: ⌈rows·width/64⌉ u64
/// words, value i in bits [i·width, (i+1)·width) of the little-endian word
/// stream (LSB first). Callers bound rows by kMaxBlockRows and width by 64
/// first, so the product cannot overflow.
inline uint64_t PackedBytes(uint64_t rows, uint32_t width) {
  return (rows * width + 63) / 64 * 8;
}

/// One entry of the footer's page table.
struct PageEntry {
  uint64_t offset = 0;  // from start of block
  uint64_t size = 0;    // payload bytes
  uint64_t checksum = 0;
  PageKind kind = PageKind::kInt64;
  uint32_t column = 0;  // owning column index
};

/// Per-column schema entry in the footer.
struct ColumnEntry {
  LogicalType type = LogicalType::kInt64;
  uint32_t payload_page = kNoPage;
  uint32_t validity_page = kNoPage;  // kNoPage when the column is all-valid
};

/// Decoded footer: everything needed to interpret the pages, plus the
/// block's zone maps (kept resident so pruning never touches cold bytes).
struct BlockFooter {
  uint32_t version = kBlockFormatVersion;
  uint64_t rows = 0;
  std::vector<ColumnEntry> columns;
  std::vector<PageEntry> pages;
  std::vector<ZoneMapEntry> zones;  // one per column
};

namespace checksum_detail {
inline constexpr uint64_t kPrime = 0x9E3779B97F4A7C15ULL;  // odd

/// One absorb step. For a fixed state, `word -> Mix(l, word)` is a
/// bijection (xor, multiply by an odd constant, xorshift are each
/// invertible), and so is `l -> Mix(l, word)` for a fixed word.
inline uint64_t Mix(uint64_t l, uint64_t word) {
  l = (l ^ word) * kPrime;
  return l ^ (l >> 29);
}

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}
}  // namespace checksum_detail

/// 64-bit word-at-a-time checksum over a byte range — the page and footer
/// checksum of the block format and of the wire format (net/wire.h). Four
/// independent lanes absorb 32-byte stripes; leftover whole words go to
/// lanes 0..2 and the last 1..7 bytes, zero-padded, to lane 3; the lanes
/// are then folded in order into a state seeded with the length.
///
/// Every step is a bijection of the state it updates, so changing any
/// single byte (which lands in exactly one word of one lane) always changes
/// the result, and the length fold separates inputs that differ only in
/// trailing zero bytes. Not cryptographic: it catches torn writes and bit
/// rot, the failure modes a spill directory or a socket actually has.
inline uint64_t Checksum64(const char* data, size_t n) {
  using checksum_detail::LoadWord;
  using checksum_detail::Mix;
  uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                      0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = Mix(lane[0], LoadWord(data + i));
    lane[1] = Mix(lane[1], LoadWord(data + i + 8));
    lane[2] = Mix(lane[2], LoadWord(data + i + 16));
    lane[3] = Mix(lane[3], LoadWord(data + i + 24));
  }
  for (size_t k = 0; i + 8 <= n; i += 8, ++k) {
    lane[k] = Mix(lane[k], LoadWord(data + i));
  }
  if (i < n) {
    uint64_t tail = 0;
    std::memcpy(&tail, data + i, n - i);
    lane[3] = Mix(lane[3], tail);
  }
  uint64_t h = Mix(0, static_cast<uint64_t>(n));
  for (uint64_t l : lane) h = Mix(h, l);
  return h;
}

// -- Little-endian primitives ----------------------------------------------
// memcpy-based so they are safe on any alignment; the compiler folds them
// to plain loads/stores on little-endian targets.

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

/// Bounds-checked little-endian cursor used by the reader; `ok` latches
/// false on any out-of-range read so decode loops can check once at the end.
struct ByteCursor {
  const char* data = nullptr;
  size_t size = 0;
  size_t pos = 0;
  bool ok = true;

  bool Need(size_t n) {
    if (!ok || size - pos < n || pos > size) {
      ok = false;
      return false;
    }
    return true;
  }
  uint32_t GetU32() {
    if (!Need(4)) return 0;
    uint32_t v;
    std::memcpy(&v, data + pos, 4);
    pos += 4;
    return v;
  }
  uint64_t GetU64() {
    if (!Need(8)) return 0;
    uint64_t v;
    std::memcpy(&v, data + pos, 8);
    pos += 8;
    return v;
  }
  double GetDouble() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string GetBytes(size_t n) {
    if (!Need(n)) return {};
    std::string s(data + pos, n);
    pos += n;
    return s;
  }
};

}  // namespace block
}  // namespace costdb
