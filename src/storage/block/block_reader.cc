#include "storage/block/block_reader.h"

#include "storage/block/page_codec.h"

namespace costdb {
namespace block {

namespace {

Value GetValueBound(ByteCursor* cur) {
  if (!cur->Need(1)) return Value::Null();
  const uint8_t tag = static_cast<uint8_t>(cur->data[cur->pos++]);
  switch (tag) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(cur->GetU64()));
    case 2:
      return Value(cur->GetDouble());
    case 3: {
      const uint32_t len = cur->GetU32();
      return Value(cur->GetBytes(len));
    }
    default:
      cur->ok = false;
      return Value::Null();
  }
}

Status Corrupt(const std::string& what) {
  return Status::Internal("block decode: " + what);
}

}  // namespace

Result<BlockFooter> BlockReader::ReadFooter(std::string_view bytes) {
  // Trailer: [footer_size u32][footer_checksum u64][magic u64].
  constexpr size_t kTrailer = 4 + 8 + 8;
  if (bytes.size() < 8 + kTrailer) return Corrupt("file too small");

  ByteCursor head{bytes.data(), bytes.size(), 0, true};
  if (head.GetU64() != kBlockMagic) return Corrupt("bad leading magic");

  ByteCursor tail{bytes.data(), bytes.size(), bytes.size() - kTrailer, true};
  const uint32_t footer_size = tail.GetU32();
  const uint64_t footer_checksum = tail.GetU64();
  if (tail.GetU64() != kBlockMagic) return Corrupt("bad trailing magic");

  const size_t footer_end = bytes.size() - kTrailer;
  if (footer_size > footer_end - 8) return Corrupt("footer size out of range");
  const size_t footer_begin = footer_end - footer_size;
  if (Checksum64(bytes.data() + footer_begin, footer_size) !=
      footer_checksum) {
    return Corrupt("footer checksum mismatch");
  }

  ByteCursor cur{bytes.data(), footer_end, footer_begin, true};
  BlockFooter footer;
  footer.version = cur.GetU32();
  if (footer.version != kBlockFormatVersion) {
    return Corrupt("unsupported format version");
  }
  footer.rows = cur.GetU64();
  if (footer.rows > kMaxBlockRows) return Corrupt("row count out of range");
  // Counts are bounded by the footer bytes their entries need (9 per
  // column, 29 per page) before anything is sized by them.
  const uint32_t num_columns = cur.GetU32();
  if (!cur.ok || num_columns > (footer_end - cur.pos) / 9) {
    return Corrupt("bad column count");
  }
  footer.columns.resize(num_columns);
  for (ColumnEntry& ce : footer.columns) {
    if (!cur.Need(1)) return Corrupt("truncated schema");
    ce.type = static_cast<LogicalType>(cur.data[cur.pos++]);
    ce.payload_page = cur.GetU32();
    ce.validity_page = cur.GetU32();
  }
  const uint32_t num_pages = cur.GetU32();
  if (!cur.ok || num_pages > (footer_end - cur.pos) / 29) {
    return Corrupt("bad page count");
  }
  footer.pages.resize(num_pages);
  for (PageEntry& pe : footer.pages) {
    pe.offset = cur.GetU64();
    pe.size = cur.GetU64();
    pe.checksum = cur.GetU64();
    if (!cur.Need(1)) return Corrupt("truncated page table");
    pe.kind = static_cast<PageKind>(cur.data[cur.pos++]);
    pe.column = cur.GetU32();
    // Bound each operand before adding: offset + size may wrap.
    if (!cur.ok || pe.offset < 8 || pe.size > footer_begin ||
        pe.offset > footer_begin - pe.size) {
      return Corrupt("page out of range");
    }
  }
  footer.zones.resize(num_columns);
  for (ZoneMapEntry& z : footer.zones) {
    z.min = GetValueBound(&cur);
    z.max = GetValueBound(&cur);
  }
  if (!cur.ok) return Corrupt("truncated footer");
  return footer;
}

Result<BlockFooter> BlockReader::Verify(
    std::string_view bytes, const std::vector<LogicalType>& expected_types) {
  BlockFooter footer;
  COSTDB_ASSIGN_OR_RETURN(footer, ReadFooter(bytes));
  if (footer.columns.size() != expected_types.size()) {
    return Corrupt("column count does not match table schema");
  }
  for (size_t c = 0; c < footer.columns.size(); ++c) {
    const ColumnEntry& ce = footer.columns[c];
    if (ce.type != expected_types[c]) {
      return Corrupt("column type does not match table schema");
    }
    if (ce.payload_page >= footer.pages.size()) {
      return Corrupt("payload page index out of range");
    }
    if (ce.validity_page != kNoPage &&
        ce.validity_page >= footer.pages.size()) {
      return Corrupt("validity page index out of range");
    }
  }

  // Verify every page — requested or not — before decoding any of them:
  // a block is either intact or rejected as a whole.
  for (const PageEntry& pe : footer.pages) {
    if (Checksum64(bytes.data() + pe.offset, pe.size) != pe.checksum) {
      return Corrupt("page checksum mismatch");
    }
  }
  return footer;
}

Result<DecodedBlock> BlockReader::Decode(
    std::string_view bytes, const std::vector<LogicalType>& expected_types,
    const std::vector<size_t>& columns) {
  BlockFooter footer;
  COSTDB_ASSIGN_OR_RETURN(footer, Verify(bytes, expected_types));
  DecodedBlock out;
  COSTDB_ASSIGN_OR_RETURN(out, DecodeVerified(bytes, footer, columns));
  out.zones = std::move(footer.zones);
  return out;
}

Result<DecodedBlock> BlockReader::DecodeVerified(
    std::string_view bytes, const BlockFooter& footer,
    const std::vector<size_t>& columns) {
  DecodedBlock out;
  // ReadFooter bounds the row count too; checked again so no footer handed
  // in here can overflow PackedBytes or size an allocation.
  if (footer.rows > kMaxBlockRows) return Corrupt("row count out of range");
  const size_t rows = footer.rows;
  // Blocks come from spill files this process wrote and checksummed, and
  // the writer cuts them by rows only, so their pages may expand freely
  // (a wire frame is bounded instead).
  uint64_t plain_budget = ~uint64_t{0};
  for (size_t c : columns) {
    if (c >= footer.columns.size()) {
      return Status::InvalidArgument("block decode: no column " +
                                     std::to_string(c));
    }
    const ColumnEntry& ce = footer.columns[c];
    const PageEntry& pe = footer.pages[ce.payload_page];
    const char* page = bytes.data() + pe.offset;

    // Each page is checked against its kind, header and size before a
    // value is read from it.
    ColumnVector col(ce.type);
    Status decoded =
        DecodePayload(page, pe.size, pe.kind, rows, &plain_budget, &col);
    if (decoded.ok() && ce.validity_page != kNoPage) {
      const PageEntry& vp = footer.pages[ce.validity_page];
      decoded = vp.kind == PageKind::kValidity
                    ? DecodeValidity(bytes.data() + vp.offset, vp.size, rows,
                                     &col)
                    : Status::InvalidArgument("validity page kind mismatch");
    }
    if (!decoded.ok()) return Corrupt(decoded.message());
    out.chunk.AddColumn(std::move(col));
  }
  return out;
}

}  // namespace block
}  // namespace costdb
