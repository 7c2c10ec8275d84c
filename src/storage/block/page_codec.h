#pragma once

/// The page codec of the block format and of the exchange wire format
/// (net/wire.h): a column's payload in its smallest PageKind, and the
/// checked decode back. Decoders check a page's kind, header and exact
/// size against the row count before they allocate or read a value, and
/// return InvalidArgument, which each framing re-labels as its own error.
/// Callers bound the row count by kMaxBlockRows first, and the plain bytes
/// by a budget: a width-0 packed page or a one-entry dictionary holds any
/// number of rows in a few bytes.

#include <string>

#include "common/status.h"
#include "storage/block/block_format.h"
#include "storage/column_vector.h"

namespace costdb {
namespace block {

/// One encoded payload page and the plain size of what it holds: 8 bytes
/// per fixed-width value, 4 + length per string.
struct EncodedPage {
  PageKind kind = PageKind::kInt64;
  std::string payload;
  size_t plain_bytes = 0;
};

/// Rows [begin, begin + rows) of `col`'s payload (validity travels as a
/// kValidity page of the mask bytes).
EncodedPage EncodePayload(const ColumnVector& col, size_t begin, size_t rows);

/// Decode a `kind` payload page of `size` bytes holding `rows` values into
/// `col`, an empty column of the page's logical type. The values' plain
/// bytes are spent from `*plain_budget`; a page that would overspend it is
/// rejected before it stores more than the budget, so the pages decoded
/// against one budget expand to at most its starting value together.
Status DecodePayload(const char* page, uint64_t size, PageKind kind,
                     size_t rows, uint64_t* plain_budget, ColumnVector* col);

/// Decode a validity page into `col`'s mask: `rows` bytes, each 0 or 1.
Status DecodeValidity(const char* page, uint64_t size, size_t rows,
                      ColumnVector* col);

}  // namespace block
}  // namespace costdb
