#include "net/wire.h"

#include <cstring>

#include "storage/block/block_format.h"

namespace costdb {
namespace wire {

namespace {

using block::ByteCursor;
using block::Checksum64;
using block::PutU32;
using block::PutU64;

/// Defensive ceilings on decoded frame headers: a corrupted count must
/// fail fast, not drive a multi-gigabyte allocation before the checksum
/// would have caught it.
constexpr uint64_t kMaxColumns = 1u << 16;
constexpr uint64_t kMaxRows = 1ull << 40;

void AppendPage(std::string* out, const char* data, size_t n) {
  PutU64(out, n);
  out->append(data, n);
  PutU64(out, Checksum64(data, n));
}

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("wire frame rejected: ") + what);
}

}  // namespace

void EncodeChunk(const DataChunk& chunk, std::string* out) {
  const size_t body_start_after_magic = out->size() + 8;
  PutU64(out, kWireMagic);
  PutU32(out, kWireFormatVersion);
  PutU32(out, static_cast<uint32_t>(chunk.num_columns()));
  PutU64(out, chunk.num_rows());
  std::string page;  // string pages only; fixed-width pages are the array
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const ColumnVector& col = chunk.column(c);
    out->push_back(static_cast<char>(col.type()));
    out->push_back(col.has_nulls() ? 1 : 0);
    switch (col.physical_type()) {
      case PhysicalType::kInt64:
        AppendPage(out, reinterpret_cast<const char*>(col.ints().data()),
                   col.ints().size() * 8);
        break;
      case PhysicalType::kDouble:
        AppendPage(out, reinterpret_cast<const char*>(col.doubles().data()),
                   col.doubles().size() * 8);
        break;
      case PhysicalType::kString:
        page.clear();
        for (const auto& s : col.strings()) {
          PutU32(&page, static_cast<uint32_t>(s.size()));
          page.append(s);
        }
        AppendPage(out, page.data(), page.size());
        break;
    }
    if (col.has_nulls()) {
      const auto& mask = col.validity();
      AppendPage(out, reinterpret_cast<const char*>(mask.data()), mask.size());
    }
  }
  // Body checksum covers everything after the leading magic, so header
  // corruption (a flipped row count, a forged page size) is caught even
  // when every page checksum still matches its (re-sized) slice.
  PutU64(out, Checksum64(out->data() + body_start_after_magic,
                         out->size() - body_start_after_magic));
  PutU64(out, kWireMagic);
}

Result<DataChunk> DecodeChunk(const char* data, size_t size) {
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
  if (!cur.ok || columns > kMaxColumns || rows > kMaxRows) {
    return Corrupt("implausible header");
  }

  DataChunk chunk;
  for (uint64_t c = 0; c < columns; ++c) {
    if (!cur.Need(2)) return Corrupt("truncated column header");
    const uint8_t type_byte = static_cast<uint8_t>(cur.data[cur.pos++]);
    const uint8_t has_validity = static_cast<uint8_t>(cur.data[cur.pos++]);
    if (type_byte > static_cast<uint8_t>(LogicalType::kDate) ||
        has_validity > 1) {
      return Corrupt("bad column header");
    }
    const LogicalType type = static_cast<LogicalType>(type_byte);
    ColumnVector col(type);

    const uint64_t payload_size = cur.GetU64();
    if (!cur.Need(payload_size)) return Corrupt("truncated payload page");
    const char* payload = cur.data + cur.pos;
    cur.pos += payload_size;
    const uint64_t payload_checksum = cur.GetU64();
    if (!cur.ok) return Corrupt("truncated payload page");
    if (Checksum64(payload, payload_size) != payload_checksum) {
      return Corrupt("payload checksum mismatch");
    }
    switch (PhysicalTypeOf(type)) {
      case PhysicalType::kInt64: {
        if (payload_size != rows * 8) return Corrupt("payload size mismatch");
        col.ints().resize(rows);
        if (rows > 0) std::memcpy(col.ints().data(), payload, payload_size);
        break;
      }
      case PhysicalType::kDouble: {
        if (payload_size != rows * 8) return Corrupt("payload size mismatch");
        col.doubles().resize(rows);
        if (rows > 0) std::memcpy(col.doubles().data(), payload, payload_size);
        break;
      }
      case PhysicalType::kString: {
        // Every string carries a 4-byte length, so the page bounds the row
        // count before anything is reserved or looped over.
        if (rows > payload_size / 4) return Corrupt("payload size mismatch");
        ByteCursor sc{payload, payload_size, 0, true};
        col.strings().reserve(rows);
        for (uint64_t r = 0; r < rows; ++r) {
          const uint32_t len = sc.GetU32();
          col.strings().push_back(sc.GetBytes(len));
        }
        if (!sc.ok || sc.pos != payload_size) {
          return Corrupt("malformed string page");
        }
        break;
      }
    }
    if (has_validity) {
      const uint64_t mask_size = cur.GetU64();
      if (mask_size != rows) return Corrupt("validity size mismatch");
      if (!cur.Need(mask_size)) return Corrupt("truncated validity page");
      const char* mask = cur.data + cur.pos;
      cur.pos += mask_size;
      const uint64_t mask_checksum = cur.GetU64();
      if (!cur.ok) return Corrupt("truncated validity page");
      if (Checksum64(mask, rows) != mask_checksum) {
        return Corrupt("validity checksum mismatch");
      }
      auto& validity = col.MutableValidity();
      validity.assign(reinterpret_cast<const uint8_t*>(mask),
                      reinterpret_cast<const uint8_t*>(mask) + rows);
      for (uint8_t bit : validity) {
        if (bit > 1) return Corrupt("bad validity byte");
      }
    }
    chunk.AddColumn(std::move(col));
  }
  if (!cur.ok || cur.pos != size - 16) return Corrupt("trailing garbage");
  return chunk;
}

}  // namespace wire
}  // namespace costdb
