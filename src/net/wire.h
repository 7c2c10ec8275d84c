#pragma once

/// Wire format v2 of one DataChunk slice crossing an exchange transport:
/// block v3 pages, written and read by the block format's page codec
/// (storage/block/page_codec.h). docs/TRANSPORT.md has the annotated
/// diagram:
///
///   [magic u64]
///   [version u32][columns u32][rows u64]
///   per column:
///     [logical type u8][has_validity u8][page kind u8]
///     [payload_size u64][payload][payload_checksum u64]
///     [validity_size u64][validity bytes][validity_checksum u64]
///                                               only when has_validity
///   [body_checksum u64][magic u64]
///
/// Each payload page is in the smallest encoding its type has (PageKind);
/// validity is one byte per row (1 = valid, 0 = NULL). Every page carries a
/// block::Checksum64 and the whole body a second one, so a torn or
/// corrupted frame surfaces as a Status on the receiving side instead of
/// wrong rows. Encode/Decode round-trip bit-identically — the sharded
/// engine's cross-transport parity depends on it (tested in net_test).

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/block/block_format.h"
#include "storage/data_chunk.h"

namespace costdb {
namespace wire {

/// "CDBWIR1\0" — leading and trailing magic of every frame.
inline constexpr uint64_t kWireMagic = 0x0031'5249'5742'4443ULL;
/// Version 2: block v3 pages tagged with their PageKind (v1 is not read).
inline constexpr uint32_t kWireFormatVersion = 2;
/// Most rows one frame carries, bounding what a header can size: a width-0
/// page ties no row count to the frame size. Larger partitions travel as
/// several frames.
inline constexpr uint64_t kMaxFrameRows = block::kMaxBlockRows;
/// Most plain payload bytes (8 per fixed-width value, 4 + length per
/// string) one frame decodes to, unless the frame itself is larger: a
/// one-entry dictionary of a long string ties no string bytes to the frame
/// size either. FrameEnd cuts partitions so every honest frame fits.
inline constexpr uint64_t kMaxFramePlainBytes = uint64_t{16} << 20;

/// End of the frame that starts at row `begin` of `chunk`: as many rows as
/// kMaxFrameRows and kMaxFramePlainBytes allow, and at least one (a single
/// row's pages are never smaller than its plain bytes, so it always fits).
size_t FrameEnd(const DataChunk& chunk, size_t begin);

/// Serialize rows [begin, end) of `chunk` (at most one FrameEnd slice)
/// onto `out` as one frame (appends; callers reuse buffers). Returns the
/// plain payload bytes it carries, the unit the cost model's link terms
/// price.
size_t EncodeChunk(const DataChunk& chunk, size_t begin, size_t end,
                   std::string* out);

inline size_t EncodeChunk(const DataChunk& chunk, std::string* out) {
  return EncodeChunk(chunk, 0, chunk.num_rows(), out);
}

/// Decode one frame produced by EncodeChunk whose columns must have the
/// types of `schema`, the one the receiving exchange expects. Rejects
/// truncated frames, bad magic/version, row counts past kMaxFrameRows,
/// schema mismatches, pages that together expand past
/// max(kMaxFramePlainBytes, size) plain bytes, malformed pages, and
/// checksum mismatches with kInvalidArgument — never returns
/// partially-decoded rows.
Result<DataChunk> DecodeChunk(const char* data, size_t size,
                              const std::vector<LogicalType>& schema);

inline Result<DataChunk> DecodeChunk(const std::string& bytes,
                                     const std::vector<LogicalType>& schema) {
  return DecodeChunk(bytes.data(), bytes.size(), schema);
}

}  // namespace wire
}  // namespace costdb
