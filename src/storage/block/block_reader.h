#pragma once

/// BlockReader — verifies and decodes a block file image back into a
/// DataChunk whose columns feed the borrowed-column ChunkView scan path
/// unchanged. Internal to the storage layer (see block_writer.h).

#include <string>
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
  static Result<BlockFooter> ReadFooter(const std::string& bytes);

  /// Verify every page checksum of the block, then decode only `columns`
  /// (schema indices, in the order given); fixed-width pages are one bulk
  /// copy each. Column types must match `expected_types` (the table
  /// schema); mismatches and any corruption — in a requested page or not —
  /// come back as a non-OK Status, never as wrong data.
  static Result<DecodedBlock> Decode(
      const std::string& bytes, const std::vector<LogicalType>& expected_types,
      const std::vector<size_t>& columns);
};

}  // namespace block
}  // namespace costdb
