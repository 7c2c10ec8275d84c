#include "storage/block/block_writer.h"

#include <cassert>

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

}  // namespace

std::string BlockWriter::Encode(const DataChunk& chunk,
                                std::vector<ZoneMapEntry>* zones_out,
                                BlockLayout* layout_out) const {
  assert(chunk.num_columns() == types_.size());
  const size_t rows = chunk.num_rows();

  std::string out;
  PutU64(&out, kBlockMagic);

  std::vector<PageEntry> pages;
  std::vector<ColumnEntry> columns(types_.size());
  std::vector<ZoneMapEntry> zones;
  std::vector<double> column_bytes(types_.size(), 0.0);
  zones.reserve(types_.size());

  for (size_t c = 0; c < types_.size(); ++c) {
    const ColumnVector& col = chunk.column(c);
    assert(col.size() == rows);
    columns[c].type = types_[c];
    zones.push_back(ZoneMapEntry::Build(col));

    std::string payload;
    PageKind kind;
    // Fixed-width pages are the flat payload array itself (the format's
    // little-endian layout is the in-memory one): one bulk copy each.
    switch (col.physical_type()) {
      case PhysicalType::kInt64:
        kind = PageKind::kInt64;
        payload.assign(reinterpret_cast<const char*>(col.ints().data()),
                       rows * 8);
        break;
      case PhysicalType::kDouble:
        kind = PageKind::kDouble;
        payload.assign(reinterpret_cast<const char*>(col.doubles().data()),
                       rows * 8);
        break;
      case PhysicalType::kString:
      default:
        kind = PageKind::kString;
        for (size_t i = 0; i < rows; ++i) {
          const std::string& s = col.strings()[i];
          PutU32(&payload, static_cast<uint32_t>(s.size()));
          payload.append(s);
        }
        break;
    }
    const size_t before = out.size();
    columns[c].payload_page = AddPage(&out, &pages, kind,
                                      static_cast<uint32_t>(c),
                                      std::move(payload));

    // Validity travels as its own page only when a mask exists; NULL slots
    // keep their type-default payload fillers above, so decode restores the
    // vector bit-for-bit (payload and mask both identical).
    if (col.has_nulls()) {
      std::string mask(reinterpret_cast<const char*>(col.validity().data()),
                       col.validity().size());
      columns[c].validity_page = AddPage(&out, &pages, PageKind::kValidity,
                                         static_cast<uint32_t>(c),
                                         std::move(mask));
    }
    column_bytes[c] = static_cast<double>(out.size() - before);
  }

  // Footer: schema, page table, zone maps.
  std::string footer;
  PutU32(&footer, kBlockFormatVersion);
  PutU64(&footer, rows);
  PutU32(&footer, static_cast<uint32_t>(columns.size()));
  for (const ColumnEntry& ce : columns) {
    footer.push_back(static_cast<char>(ce.type));
    PutU32(&footer, ce.payload_page);
    PutU32(&footer, ce.validity_page);
  }
  PutU32(&footer, static_cast<uint32_t>(pages.size()));
  for (const PageEntry& pe : pages) {
    PutU64(&footer, pe.offset);
    PutU64(&footer, pe.size);
    PutU64(&footer, pe.checksum);
    footer.push_back(static_cast<char>(pe.kind));
    PutU32(&footer, pe.column);
  }
  for (const ZoneMapEntry& z : zones) {
    PutValue(&footer, z.min);
    PutValue(&footer, z.max);
  }

  out.append(footer);
  PutU32(&out, static_cast<uint32_t>(footer.size()));
  PutU64(&out, Checksum64(footer.data(), footer.size()));
  PutU64(&out, kBlockMagic);

  if (zones_out != nullptr) *zones_out = zones;
  if (layout_out != nullptr) {
    layout_out->rows = rows;
    layout_out->total_bytes = static_cast<double>(out.size());
    layout_out->column_bytes = std::move(column_bytes);
  }
  return out;
}

}  // namespace block
}  // namespace costdb
