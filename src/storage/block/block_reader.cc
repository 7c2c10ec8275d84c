#include "storage/block/block_reader.h"

#include <algorithm>
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

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Call emit(i, value) for each of `rows` values bit-packed at `width`
/// (1..64) bits in `words` (PackedBytes(rows, width) bytes): one 64-bit
/// window per value, plus the next word when the value straddles two.
template <typename Emit>
void Unpack(const char* words, size_t rows, uint32_t width, Emit emit) {
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t bit = 0;
  for (size_t i = 0; i < rows; ++i, bit += width) {
    const size_t k = bit / 64;
    const uint32_t s = bit % 64;
    uint64_t v = LoadU64(words + 8 * k) >> s;
    if (s + width > 64) v |= LoadU64(words + 8 * (k + 1)) << (64 - s);
    emit(i, v & mask);
  }
}

/// A flat fixed-width page is rows × 8 bytes: one bulk copy. The size test
/// divides, so no forged row count can wrap it.
template <typename T>
Status DecodeFlat(const char* page, const PageEntry& pe, size_t rows,
                  std::vector<T>* out) {
  if (pe.size % 8 != 0 || pe.size / 8 != rows) {
    return Corrupt("fixed-width page size mismatch");
  }
  out->resize(rows);
  if (rows > 0) std::memcpy(out->data(), page, pe.size);
  return Status::OK();
}

Status DecodeInts(const char* page, const PageEntry& pe, size_t rows,
                  std::vector<int64_t>* out) {
  if (pe.kind == PageKind::kInt64) return DecodeFlat(page, pe, rows, out);
  if (pe.kind != PageKind::kInt64Packed) {
    return Corrupt("page kind does not match column type");
  }
  if (pe.size < kPackedHeaderBytes) return Corrupt("truncated packed page");
  const uint64_t base = LoadU64(page);
  const uint32_t width = static_cast<uint8_t>(page[8]);
  if (width > 64 ||
      pe.size - kPackedHeaderBytes != PackedBytes(rows, width)) {
    return Corrupt("packed page size mismatch");
  }
  out->resize(rows);
  int64_t* dst = out->data();
  if (width == 0) {
    std::fill(dst, dst + rows, static_cast<int64_t>(base));
    return Status::OK();
  }
  // Offsets add to the base modulo 2^64, as they were subtracted.
  Unpack(page + kPackedHeaderBytes, rows, width, [&](size_t i, uint64_t v) {
    dst[i] = static_cast<int64_t>(base + v);
  });
  return Status::OK();
}

Status DecodeStrings(const char* page, const PageEntry& pe, size_t rows,
                     std::vector<std::string>* out) {
  if (pe.kind == PageKind::kString) {
    // Every string carries a 4-byte length: bound the reserve by the page
    // size before trusting the row count.
    if (rows > pe.size / 4) return Corrupt("string page size mismatch");
    ByteCursor cur{page, pe.size, 0, true};
    out->reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      const uint32_t len = cur.GetU32();
      if (!cur.Need(len)) break;
      out->emplace_back(page + cur.pos, len);
      cur.pos += len;
    }
    if (!cur.ok) return Corrupt("truncated payload page");
    if (cur.pos != pe.size) return Corrupt("string page size mismatch");
    return Status::OK();
  }
  if (pe.kind != PageKind::kStringDict) {
    return Corrupt("page kind does not match column type");
  }
  if (pe.size < kDictHeaderBytes) return Corrupt("truncated dictionary page");
  ByteCursor cur{page, pe.size, 0, true};
  const uint32_t entries = cur.GetU32();
  // Every entry carries a 4-byte length; a non-empty page needs one.
  if (entries > (pe.size - kDictHeaderBytes) / 4 ||
      (entries == 0 && rows > 0)) {
    return Corrupt("dictionary size out of range");
  }
  const uint32_t width = entries > 0 ? BitWidth(entries - 1) : 0;
  const uint64_t code_bytes = PackedBytes(rows, width);
  if (code_bytes > pe.size - kDictHeaderBytes) {
    return Corrupt("dictionary page size mismatch");
  }
  // The entries fill the page up to the codes, exactly.
  cur.size = pe.size - code_bytes;
  std::vector<std::string> dict;
  dict.reserve(entries);
  for (uint32_t e = 0; e < entries; ++e) {
    const uint32_t len = cur.GetU32();
    if (!cur.Need(len)) break;
    dict.emplace_back(page + cur.pos, len);
    cur.pos += len;
  }
  if (!cur.ok || cur.pos != cur.size) {
    return Corrupt("dictionary entry outside its page");
  }
  out->reserve(rows);
  if (width == 0) {
    out->assign(rows, dict[0]);
    return Status::OK();
  }
  bool code_in_range = true;
  Unpack(page + cur.size, rows, width, [&](size_t, uint64_t code) {
    if (code < entries) {
      out->push_back(dict[code]);
    } else {
      code_in_range = false;
    }
  });
  if (!code_in_range) return Corrupt("dictionary code out of range");
  return Status::OK();
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
    Status decoded;
    switch (col.physical_type()) {
      case PhysicalType::kInt64:
        decoded = DecodeInts(page, pe, rows, &col.ints());
        break;
      case PhysicalType::kDouble:
        decoded = pe.kind == PageKind::kDouble
                      ? DecodeFlat(page, pe, rows, &col.doubles())
                      : Corrupt("page kind does not match column type");
        break;
      case PhysicalType::kString:
      default:
        decoded = DecodeStrings(page, pe, rows, &col.strings());
        break;
    }
    COSTDB_RETURN_NOT_OK(decoded);

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
  return out;
}

}  // namespace block
}  // namespace costdb
