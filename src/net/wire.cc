#include "net/wire.h"

#include <algorithm>
#include <cassert>

#include "storage/block/page_codec.h"

namespace costdb {
namespace wire {

namespace {

using block::ByteCursor;
using block::Checksum64;
using block::PutU32;
using block::PutU64;

void AppendPage(std::string* out, const char* data, size_t n) {
  PutU64(out, n);
  out->append(data, n);
  PutU64(out, Checksum64(data, n));
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("wire frame rejected: " + what);
}

/// Read one [size u64][bytes][checksum u64] page at `cur` and verify it.
Status ReadPage(ByteCursor* cur, const char** page, uint64_t* size) {
  *size = cur->GetU64();
  if (!cur->Need(*size)) return Corrupt("truncated page");
  *page = cur->data + cur->pos;
  cur->pos += *size;
  const uint64_t checksum = cur->GetU64();
  if (!cur->ok) return Corrupt("truncated page");
  if (Checksum64(*page, *size) != checksum) {
    return Corrupt("page checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

size_t FrameEnd(const DataChunk& chunk, size_t begin) {
  const size_t end = std::min<size_t>(chunk.num_rows(), begin + kMaxFrameRows);
  uint64_t fixed = 0;  // plain bytes of a row's fixed-width values
  std::vector<const std::string*> strings;
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const ColumnVector& col = chunk.column(c);
    if (col.physical_type() == PhysicalType::kString) {
      strings.push_back(col.strings().data());
    } else {
      fixed += 8;
    }
  }
  if (strings.empty()) {
    const uint64_t fit =
        fixed == 0 ? kMaxFrameRows : kMaxFramePlainBytes / fixed;
    return std::min<size_t>(end, begin + std::max<uint64_t>(fit, 1));
  }
  uint64_t plain = 0;
  for (size_t r = begin; r < end; ++r) {
    uint64_t row = fixed;
    for (const std::string* s : strings) row += 4 + s[r].size();
    plain += row;
    if (plain > kMaxFramePlainBytes && r > begin) return r;
  }
  return end;
}

size_t EncodeChunk(const DataChunk& chunk, size_t begin, size_t end,
                   std::string* out) {
  const size_t rows = end - begin;
  assert(begin <= end && end <= chunk.num_rows() && rows <= kMaxFrameRows);
  const size_t body_start_after_magic = out->size() + 8;
  PutU64(out, kWireMagic);
  PutU32(out, kWireFormatVersion);
  PutU32(out, static_cast<uint32_t>(chunk.num_columns()));
  PutU64(out, rows);
  size_t plain_bytes = 0;
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const ColumnVector& col = chunk.column(c);
    const block::EncodedPage page = block::EncodePayload(col, begin, rows);
    plain_bytes += page.plain_bytes;
    out->push_back(static_cast<char>(col.type()));
    out->push_back(col.has_nulls() ? 1 : 0);
    out->push_back(static_cast<char>(page.kind));
    AppendPage(out, page.payload.data(), page.payload.size());
    if (col.has_nulls()) {
      AppendPage(out,
                 reinterpret_cast<const char*>(col.validity().data() + begin),
                 rows);
    }
  }
  // Body checksum covers everything after the leading magic, so header
  // corruption (a flipped row count, a forged page size) is caught even
  // when every page checksum still matches its (re-sized) slice.
  PutU64(out, Checksum64(out->data() + body_start_after_magic,
                         out->size() - body_start_after_magic));
  PutU64(out, kWireMagic);
  return plain_bytes;
}

Result<DataChunk> DecodeChunk(const char* data, size_t size,
                              const std::vector<LogicalType>& schema) {
  // magic + version/columns + rows + body checksum + magic is the minimal
  // frame.
  if (size < 8 + 4 + 4 + 8 + 8 + 8) return Corrupt("truncated frame");
  ByteCursor head{data, size, 0, true};
  if (head.GetU64() != kWireMagic) return Corrupt("bad leading magic");
  ByteCursor tail{data, size, size - 16, true};
  const uint64_t body_checksum = tail.GetU64();
  if (tail.GetU64() != kWireMagic) return Corrupt("bad trailing magic");
  if (Checksum64(data + 8, size - 8 - 16) != body_checksum) {
    return Corrupt("body checksum mismatch");
  }

  ByteCursor cur{data, size - 16, 8, true};  // body only; footer excluded
  const uint32_t version = cur.GetU32();
  if (version != kWireFormatVersion) return Corrupt("unsupported version");
  const uint64_t columns = cur.GetU32();
  const uint64_t rows = cur.GetU64();
  // Both bounds hold before anything is sized by the header.
  if (!cur.ok || rows > kMaxFrameRows) return Corrupt("row count out of range");
  if (columns != schema.size()) {
    return Corrupt("column count does not match the exchange schema");
  }

  // The plain bytes every page decodes to are spent from one budget, so
  // the whole frame expands to at most this much.
  uint64_t plain_budget = std::max<uint64_t>(kMaxFramePlainBytes, size);
  DataChunk chunk;
  for (uint64_t c = 0; c < columns; ++c) {
    if (!cur.Need(3)) return Corrupt("truncated column header");
    const uint8_t type_byte = static_cast<uint8_t>(cur.data[cur.pos++]);
    const uint8_t has_validity = static_cast<uint8_t>(cur.data[cur.pos++]);
    const auto kind = static_cast<block::PageKind>(cur.data[cur.pos++]);
    if (type_byte != static_cast<uint8_t>(schema[c])) {
      return Corrupt("column type does not match the exchange schema");
    }
    if (has_validity > 1) return Corrupt("bad column header");
    ColumnVector col(schema[c]);
    const char* page = nullptr;
    uint64_t page_size = 0;
    COSTDB_RETURN_NOT_OK(ReadPage(&cur, &page, &page_size));
    Status decoded = block::DecodePayload(page, page_size, kind, rows,
                                           &plain_budget, &col);
    if (decoded.ok() && has_validity) {
      COSTDB_RETURN_NOT_OK(ReadPage(&cur, &page, &page_size));
      decoded = block::DecodeValidity(page, page_size, rows, &col);
    }
    if (!decoded.ok()) return Corrupt(decoded.message());
    chunk.AddColumn(std::move(col));
  }
  if (!cur.ok || cur.pos != size - 16) return Corrupt("trailing garbage");
  return chunk;
}

}  // namespace wire
}  // namespace costdb
