#include "storage/block/block_writer.h"

#include <cassert>

#include "storage/block/page_codec.h"

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

    EncodedPage page = EncodePayload(col, 0, rows);
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
