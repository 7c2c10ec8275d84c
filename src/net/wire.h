#pragma once

/// Wire format of one DataChunk crossing an exchange transport — the
/// serialized twin of the block format's column pages (docs/TRANSPORT.md
/// has the annotated diagram):
///
///   [magic u64]
///   [version u32][columns u32][rows u64]
///   per column:
///     [logical type u8][has_validity u8]
///     [payload_size u64][payload][payload_checksum u64]
///     [validity_size u64][validity bytes][validity_checksum u64]
///                                               only when has_validity
///   [body_checksum u64][magic u64]
///
/// Payload pages reuse the block conventions exactly: fixed-width payloads
/// are rows*8 little-endian bytes (doubles bit-cast), strings are
/// u32-length-prefixed, validity is one byte per row (1 = valid, 0 = NULL)
/// mirroring ColumnVector's in-memory mask. Every page carries a
/// block::Checksum64 and the whole body a second one, so a torn or
/// corrupted frame surfaces as a Status on the receiving side instead of
/// wrong rows.
/// Encode/Decode round-trip bit-identically — the sharded engine's
/// cross-transport parity depends on it (tested in net_test).

#include <string>

#include "common/result.h"
#include "storage/data_chunk.h"

namespace costdb {
namespace wire {

/// "CDBWIR1\0" — leading and trailing magic of every frame.
inline constexpr uint64_t kWireMagic = 0x0031'5249'5742'4443ULL;
inline constexpr uint32_t kWireFormatVersion = 1;

/// Serialize `chunk` onto `out` (appends; callers reuse buffers).
void EncodeChunk(const DataChunk& chunk, std::string* out);

/// Decode one frame produced by EncodeChunk. Rejects truncated frames,
/// bad magic/version, malformed pages, and checksum mismatches with
/// kInvalidArgument — never returns partially-decoded rows.
Result<DataChunk> DecodeChunk(const char* data, size_t size);

inline Result<DataChunk> DecodeChunk(const std::string& bytes) {
  return DecodeChunk(bytes.data(), bytes.size());
}

}  // namespace wire
}  // namespace costdb
