#include "storage/block/block_writer.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string_view>

#include "storage/block/block_format.h"

namespace costdb {
namespace block {

namespace {

/// Serialize a zone-map bound. Tag mirrors Value's variant order.
void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    out->push_back(0);
  } else if (v.is_int()) {
    out->push_back(1);
    PutU64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    out->push_back(2);
    PutDouble(out, v.AsDouble());
  } else {
    out->push_back(3);
    PutU32(out, static_cast<uint32_t>(v.AsString().size()));
    out->append(v.AsString());
  }
}

/// Append one payload page and record it in the page table.
uint32_t AddPage(std::string* out, std::vector<PageEntry>* pages,
                 PageKind kind, uint32_t column, std::string payload) {
  PageEntry entry;
  entry.offset = out->size();
  entry.size = payload.size();
  entry.checksum = Checksum64(payload.data(), payload.size());
  entry.kind = kind;
  entry.column = column;
  out->append(payload);
  pages->push_back(entry);
  return static_cast<uint32_t>(pages->size() - 1);
}

/// Append `rows` values, `value(i)` each (< 2^width), bit-packed as
/// PackedBytes describes. Width 0 appends nothing.
template <typename ValueAt>
void AppendPacked(std::string* out, size_t rows, uint32_t width,
                  ValueAt value) {
  if (width == 0) return;
  std::vector<uint64_t> words(PackedBytes(rows, width) / 8, 0);
  uint64_t bit = 0;
  for (size_t i = 0; i < rows; ++i, bit += width) {
    const uint64_t v = value(i);
    const size_t k = bit / 64;
    const uint32_t s = bit % 64;
    words[k] |= v << s;
    if (s + width > 64) words[k + 1] |= v >> (64 - s);
  }
  // The words' in-memory layout is the format's little-endian one.
  out->append(reinterpret_cast<const char*>(words.data()), words.size() * 8);
}

/// One encoded payload page and the plain size of what it holds.
struct Page {
  PageKind kind = PageKind::kInt64;
  std::string payload;
  size_t plain_bytes = 0;
};

/// Frame-of-reference bit-packed when that is smaller than the flat
/// rows × 8 bytes, else flat (a bulk copy: the format's little-endian
/// layout is the in-memory one).
Page IntPage(const std::vector<int64_t>& values) {
  const size_t rows = values.size();
  Page page;
  page.plain_bytes = rows * 8;
  if (rows > 0) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    const uint64_t base = static_cast<uint64_t>(*lo);
    const uint32_t width = BitWidth(static_cast<uint64_t>(*hi) - base);
    const size_t packed = kPackedHeaderBytes + PackedBytes(rows, width);
    if (packed < page.plain_bytes) {
      page.kind = PageKind::kInt64Packed;
      page.payload.reserve(packed);
      PutU64(&page.payload, base);
      page.payload.push_back(static_cast<char>(width));
      AppendPacked(&page.payload, rows, width, [&](size_t i) {
        return static_cast<uint64_t>(values[i]) - base;
      });
      return page;
    }
  }
  page.kind = PageKind::kInt64;
  page.payload.assign(reinterpret_cast<const char*>(values.data()),
                      page.plain_bytes);
  return page;
}

/// A dictionary of the distinct values plus bit-packed codes when that is
/// smaller than the u32-length-prefixed values, else the latter.
Page StringPage(const std::vector<std::string>& values) {
  const size_t rows = values.size();
  Page page;
  for (const std::string& s : values) page.plain_bytes += 4 + s.size();

  // Distinct values in order of first appearance (as row indices), found
  // through an open-addressing table of code + 1 (0 = empty) at load ≤ 1/2.
  // Entries and code width only grow, so the build gives up as soon as the
  // entries plus the narrowest codes they allow reach the plain size.
  std::vector<uint32_t> codes(rows);
  std::vector<uint32_t> entries;
  size_t slots = 1;
  while (slots < 2 * rows) slots <<= 1;
  std::vector<uint32_t> table(slots, 0);
  size_t dict_bytes = kDictHeaderBytes;
  bool smaller = rows > 0;
  for (size_t i = 0; i < rows && smaller; ++i) {
    const std::string& s = values[i];
    size_t h = std::hash<std::string_view>{}(s) & (slots - 1);
    while (table[h] != 0 && values[entries[table[h] - 1]] != s) {
      h = (h + 1) & (slots - 1);
    }
    if (table[h] == 0) {
      entries.push_back(static_cast<uint32_t>(i));
      table[h] = static_cast<uint32_t>(entries.size());
      dict_bytes += 4 + s.size();
      smaller = dict_bytes + PackedBytes(rows, BitWidth(entries.size() - 1)) <
                page.plain_bytes;
    }
    codes[i] = table[h] - 1;
  }

  if (smaller) {
    const uint32_t width = BitWidth(entries.size() - 1);
    page.kind = PageKind::kStringDict;
    page.payload.reserve(dict_bytes + PackedBytes(rows, width));
    PutU32(&page.payload, static_cast<uint32_t>(entries.size()));
    for (uint32_t row : entries) {
      PutU32(&page.payload, static_cast<uint32_t>(values[row].size()));
      page.payload.append(values[row]);
    }
    AppendPacked(&page.payload, rows, width,
                 [&](size_t i) { return uint64_t{codes[i]}; });
    return page;
  }
  page.kind = PageKind::kString;
  page.payload.reserve(page.plain_bytes);
  for (const std::string& s : values) {
    PutU32(&page.payload, static_cast<uint32_t>(s.size()));
    page.payload.append(s);
  }
  return page;
}

}  // namespace

std::string EncodeFooter(const BlockFooter& footer) {
  std::string out;
  PutU32(&out, footer.version);
  PutU64(&out, footer.rows);
  PutU32(&out, static_cast<uint32_t>(footer.columns.size()));
  for (const ColumnEntry& ce : footer.columns) {
    out.push_back(static_cast<char>(ce.type));
    PutU32(&out, ce.payload_page);
    PutU32(&out, ce.validity_page);
  }
  PutU32(&out, static_cast<uint32_t>(footer.pages.size()));
  for (const PageEntry& pe : footer.pages) {
    PutU64(&out, pe.offset);
    PutU64(&out, pe.size);
    PutU64(&out, pe.checksum);
    out.push_back(static_cast<char>(pe.kind));
    PutU32(&out, pe.column);
  }
  for (const ZoneMapEntry& z : footer.zones) {
    PutValue(&out, z.min);
    PutValue(&out, z.max);
  }
  return out;
}

std::string BlockWriter::Encode(const DataChunk& chunk,
                                std::vector<ZoneMapEntry>* zones_out,
                                BlockLayout* layout_out) const {
  assert(chunk.num_columns() == types_.size());
  const size_t rows = chunk.num_rows();
  assert(rows <= kMaxBlockRows);

  std::string out;
  PutU64(&out, kBlockMagic);

  BlockFooter footer;
  footer.rows = rows;
  footer.columns.resize(types_.size());
  footer.zones.reserve(types_.size());
  std::vector<double> column_bytes(types_.size(), 0.0);

  for (size_t c = 0; c < types_.size(); ++c) {
    const ColumnVector& col = chunk.column(c);
    assert(col.size() == rows);
    ColumnEntry& ce = footer.columns[c];
    ce.type = types_[c];
    footer.zones.push_back(ZoneMapEntry::Build(col));

    Page page;
    switch (col.physical_type()) {
      case PhysicalType::kInt64:
        page = IntPage(col.ints());
        break;
      case PhysicalType::kDouble:
        page.kind = PageKind::kDouble;
        page.plain_bytes = rows * 8;
        page.payload.assign(reinterpret_cast<const char*>(col.doubles().data()),
                            page.plain_bytes);
        break;
      case PhysicalType::kString:
      default:
        page = StringPage(col.strings());
        break;
    }
    column_bytes[c] = static_cast<double>(page.plain_bytes);
    ce.payload_page = AddPage(&out, &footer.pages, page.kind,
                              static_cast<uint32_t>(c),
                              std::move(page.payload));

    // Validity travels as its own page only when a mask exists; NULL slots
    // keep their type-default payload fillers above, so decode restores the
    // vector bit-for-bit (payload and mask both identical).
    if (col.has_nulls()) {
      std::string mask(reinterpret_cast<const char*>(col.validity().data()),
                       col.validity().size());
      ce.validity_page = AddPage(&out, &footer.pages, PageKind::kValidity,
                                 static_cast<uint32_t>(c), std::move(mask));
      column_bytes[c] += static_cast<double>(rows);
    }
  }

  const std::string encoded = EncodeFooter(footer);
  out.append(encoded);
  PutU32(&out, static_cast<uint32_t>(encoded.size()));
  PutU64(&out, Checksum64(encoded.data(), encoded.size()));
  PutU64(&out, kBlockMagic);

  if (zones_out != nullptr) *zones_out = std::move(footer.zones);
  if (layout_out != nullptr) {
    layout_out->rows = rows;
    layout_out->total_bytes = static_cast<double>(out.size());
    layout_out->column_bytes = std::move(column_bytes);
  }
  return out;
}

}  // namespace block
}  // namespace costdb
