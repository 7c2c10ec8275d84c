#pragma once

/// BlockWriter — encodes one immutable columnar block (see block_format.h).
/// Internal to the storage layer: only src/storage/ and src/catalog/ may
/// include this (ci/check_layering.py rule "storage-internal"); engines and
/// the service layer reach blocks through Table::PinRowGroup.

#include <string>
#include <vector>

#include "storage/block/block_format.h"
#include "storage/data_chunk.h"
#include "storage/zone_map.h"

namespace costdb {
namespace block {

/// Size accounting of one encoded block. The image is stored compressed,
/// but a decoded column occupies its plain size in RAM, so the cache and
/// EstimateColumnBytes charge plain bytes while object packing and GETs
/// count the image.
struct BlockLayout {
  size_t rows = 0;
  double total_bytes = 0.0;  // the whole encoded image, incl. footer
  /// Plain bytes per column: 8 per row of a fixed-width column, 4 + length
  /// per string, plus 1 per row when the column has a validity page.
  std::vector<double> column_bytes;
};

/// Serialize `footer` (schema, page table, zone maps) in the layout
/// BlockReader::ReadFooter parses. Encode writes every block's footer with
/// it; tests use it to forge footer fields behind a matching checksum.
std::string EncodeFooter(const BlockFooter& footer);

class BlockWriter {
 public:
  explicit BlockWriter(std::vector<LogicalType> types)
      : types_(std::move(types)) {}

  /// Encode `chunk` (whose columns must match the writer's types, at most
  /// kMaxBlockRows rows) into a self-contained block file image, each page
  /// in its smallest encoding. Zone maps are built per column and embedded
  /// in the footer; `zones_out`/`layout_out` receive copies for the
  /// resident manifest (either may be null).
  std::string Encode(const DataChunk& chunk,
                     std::vector<ZoneMapEntry>* zones_out,
                     BlockLayout* layout_out) const;

  const std::vector<LogicalType>& types() const { return types_; }

 private:
  std::vector<LogicalType> types_;
};

}  // namespace block
}  // namespace costdb
