#pragma once

/// BlockReader — verifies and decodes a block file image back into a
/// DataChunk whose columns feed the borrowed-column ChunkView scan path
/// unchanged. Internal to the storage layer (see block_writer.h).

#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/block/block_format.h"
#include "storage/data_chunk.h"

namespace costdb {
namespace block {

/// A decoded block: the requested columns plus the footer's zone maps.
struct DecodedBlock {
  DataChunk chunk;  // column i is the block's column `columns[i]`
  std::vector<ZoneMapEntry> zones;
};

class BlockReader {
 public:
  /// Parse and checksum-verify only the footer (magic, schema, page table,
  /// zone maps). Cheap relative to payload decode; used to rebuild resident
  /// manifests and by tests.
  static Result<BlockFooter> ReadFooter(std::string_view bytes);

  /// Read the footer, check the schema against `expected_types` (the table
  /// schema) and verify every page checksum: a block is intact or rejected
  /// as a whole. The footer it returns is what DecodeVerified needs.
  static Result<BlockFooter> Verify(
      std::string_view bytes, const std::vector<LogicalType>& expected_types);

  /// Decode only `columns` (schema indices, in the order given) of a block
  /// Verify accepted, in place from `bytes`; fixed-width pages are one bulk
  /// copy each. The chunk's zones are left empty.
  static Result<DecodedBlock> DecodeVerified(
      std::string_view bytes, const BlockFooter& footer,
      const std::vector<size_t>& columns);

  /// Verify, then DecodeVerified, with the footer's zone maps: mismatches
  /// and any corruption — in a requested page or not — come back as a
  /// non-OK Status, never as wrong data.
  static Result<DecodedBlock> Decode(
      std::string_view bytes, const std::vector<LogicalType>& expected_types,
      const std::vector<size_t>& columns);
};

}  // namespace block
}  // namespace costdb
