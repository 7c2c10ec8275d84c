#include "storage/block/block_reader.h"

#include <cstring>

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

Result<BlockFooter> BlockReader::ReadFooter(const std::string& bytes) {
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
  const uint32_t num_columns = cur.GetU32();
  if (!cur.ok || num_columns > 1u << 16) return Corrupt("bad column count");
  footer.columns.resize(num_columns);
  for (ColumnEntry& ce : footer.columns) {
    if (!cur.Need(1)) return Corrupt("truncated schema");
    ce.type = static_cast<LogicalType>(cur.data[cur.pos++]);
    ce.payload_page = cur.GetU32();
    ce.validity_page = cur.GetU32();
  }
  const uint32_t num_pages = cur.GetU32();
  if (!cur.ok || num_pages > 1u << 20) return Corrupt("bad page count");
  footer.pages.resize(num_pages);
  for (PageEntry& pe : footer.pages) {
    pe.offset = cur.GetU64();
    pe.size = cur.GetU64();
    pe.checksum = cur.GetU64();
    if (!cur.Need(1)) return Corrupt("truncated page table");
    pe.kind = static_cast<PageKind>(cur.data[cur.pos++]);
    pe.column = cur.GetU32();
    if (!cur.ok || pe.offset < 8 || pe.offset + pe.size > footer_begin) {
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

Result<DecodedBlock> BlockReader::Decode(
    const std::string& bytes, const std::vector<LogicalType>& expected_types,
    const std::vector<size_t>& columns) {
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

  DecodedBlock out;
  const size_t rows = footer.rows;
  for (size_t c : columns) {
    if (c >= footer.columns.size()) {
      return Status::InvalidArgument("block decode: no column " +
                                     std::to_string(c));
    }
    const ColumnEntry& ce = footer.columns[c];
    const PageEntry& pe = footer.pages[ce.payload_page];
    const char* page = bytes.data() + pe.offset;

    ColumnVector col(ce.type);
    switch (pe.kind) {
      case PageKind::kInt64:
        if (pe.size != rows * 8) return Corrupt("int64 page size mismatch");
        col.ints().resize(rows);
        if (rows > 0) std::memcpy(col.ints().data(), page, pe.size);
        break;
      case PageKind::kDouble:
        if (pe.size != rows * 8) return Corrupt("double page size mismatch");
        col.doubles().resize(rows);
        if (rows > 0) std::memcpy(col.doubles().data(), page, pe.size);
        break;
      case PageKind::kString: {
        // Every string carries a 4-byte length: bound the reserve by the
        // page size before trusting the row count.
        if (rows > pe.size / 4) return Corrupt("string page size mismatch");
        ByteCursor cur{page, pe.size, 0, true};
        std::vector<std::string>& strings = col.strings();
        strings.reserve(rows);
        for (size_t i = 0; i < rows; ++i) {
          const uint32_t len = cur.GetU32();
          if (!cur.Need(len)) break;
          strings.emplace_back(page + cur.pos, len);
          cur.pos += len;
        }
        if (!cur.ok) return Corrupt("truncated payload page");
        if (cur.pos != pe.size) return Corrupt("string page size mismatch");
        break;
      }
      case PageKind::kValidity:
      default:
        return Corrupt("payload page has validity kind");
    }

    if (ce.validity_page != kNoPage) {
      const PageEntry& vp = footer.pages[ce.validity_page];
      if (vp.kind != PageKind::kValidity || vp.size != rows) {
        return Corrupt("validity page size mismatch");
      }
      const unsigned char* src =
          reinterpret_cast<const unsigned char*>(bytes.data() + vp.offset);
      col.MutableValidity().assign(src, src + rows);
    }
    out.chunk.AddColumn(std::move(col));
  }
  out.zones = std::move(footer.zones);
  return out;
}

}  // namespace block
}  // namespace costdb
