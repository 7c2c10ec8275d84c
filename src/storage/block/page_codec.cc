#include "storage/block/page_codec.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>
#include <vector>

namespace costdb {
namespace block {

namespace {

Status PageError(const char* what) { return Status::InvalidArgument(what); }

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
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

/// Call emit(i, value) for each of `rows` values bit-packed at `width`
/// (0..64) bits in `words` (PackedBytes(rows, width) bytes): one 64-bit
/// window per value, plus the next word when the value straddles two.
template <typename Emit>
void Unpack(const char* words, size_t rows, uint32_t width, Emit emit) {
  if (width == 0) {
    for (size_t i = 0; i < rows; ++i) emit(i, 0);
    return;
  }
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

/// Frame-of-reference bit-packed when that is smaller than the flat
/// rows × 8 bytes, else flat (a bulk copy: the format's little-endian
/// layout is the in-memory one).
EncodedPage IntPage(const int64_t* values, size_t rows) {
  EncodedPage page;
  page.plain_bytes = rows * 8;
  if (rows > 0) {
    const auto [lo, hi] = std::minmax_element(values, values + rows);
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
  page.payload.assign(reinterpret_cast<const char*>(values), page.plain_bytes);
  return page;
}

/// A dictionary of the distinct values plus bit-packed codes when that is
/// smaller than the u32-length-prefixed values, else the latter.
EncodedPage StringPage(const std::string* values, size_t rows) {
  EncodedPage page;
  for (size_t i = 0; i < rows; ++i) page.plain_bytes += 4 + values[i].size();

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
  for (size_t i = 0; i < rows; ++i) {
    PutU32(&page.payload, static_cast<uint32_t>(values[i].size()));
    page.payload.append(values[i]);
  }
  return page;
}

/// Spend `bytes` of the plain budget, or say the page overspends it.
Status Spend(uint64_t bytes, uint64_t* plain_budget) {
  if (bytes > *plain_budget) return PageError("page past the plain budget");
  *plain_budget -= bytes;
  return Status::OK();
}

/// A flat fixed-width page is rows × 8 bytes: one bulk copy. The size test
/// divides, so no forged row count can wrap it.
template <typename T>
Status DecodeFlat(const char* page, uint64_t size, size_t rows,
                  uint64_t* plain_budget, std::vector<T>* out) {
  if (size % 8 != 0 || size / 8 != rows) {
    return PageError("fixed-width page size mismatch");
  }
  COSTDB_RETURN_NOT_OK(Spend(size, plain_budget));
  out->resize(rows);
  if (rows > 0) std::memcpy(out->data(), page, size);
  return Status::OK();
}

Status DecodeInts(const char* page, uint64_t size, PageKind kind, size_t rows,
                  uint64_t* plain_budget, std::vector<int64_t>* out) {
  if (kind == PageKind::kInt64) {
    return DecodeFlat(page, size, rows, plain_budget, out);
  }
  if (kind != PageKind::kInt64Packed) {
    return PageError("page kind does not match column type");
  }
  if (size < kPackedHeaderBytes) return PageError("truncated packed page");
  const uint64_t base = LoadU64(page);
  const uint32_t width = static_cast<uint8_t>(page[8]);
  if (width > 64 || size - kPackedHeaderBytes != PackedBytes(rows, width)) {
    return PageError("packed page size mismatch");
  }
  COSTDB_RETURN_NOT_OK(Spend(uint64_t{8} * rows, plain_budget));
  out->resize(rows);
  int64_t* dst = out->data();
  // Offsets add to the base modulo 2^64, as they were subtracted.
  Unpack(page + kPackedHeaderBytes, rows, width, [&](size_t i, uint64_t v) {
    dst[i] = static_cast<int64_t>(base + v);
  });
  return Status::OK();
}

Status DecodeStrings(const char* page, uint64_t size, PageKind kind,
                     size_t rows, uint64_t* plain_budget,
                     std::vector<std::string>* out) {
  if (kind == PageKind::kString) {
    // Every string carries a 4-byte length: bound the reserve by the page
    // size before trusting the row count. A valid page is exactly its
    // values' plain bytes.
    if (rows > size / 4) return PageError("string page size mismatch");
    COSTDB_RETURN_NOT_OK(Spend(size, plain_budget));
    ByteCursor cur{page, size, 0, true};
    out->reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      const uint32_t len = cur.GetU32();
      if (!cur.Need(len)) break;
      out->emplace_back(page + cur.pos, len);
      cur.pos += len;
    }
    if (!cur.ok) return PageError("truncated payload page");
    if (cur.pos != size) return PageError("string page size mismatch");
    return Status::OK();
  }
  if (kind != PageKind::kStringDict) {
    return PageError("page kind does not match column type");
  }
  if (size < kDictHeaderBytes) return PageError("truncated dictionary page");
  ByteCursor cur{page, size, 0, true};
  const uint32_t entries = cur.GetU32();
  // Every entry carries a 4-byte length; a non-empty page needs one.
  if (entries > (size - kDictHeaderBytes) / 4 || (entries == 0 && rows > 0)) {
    return PageError("dictionary size out of range");
  }
  const uint32_t width = entries > 0 ? BitWidth(entries - 1) : 0;
  const uint64_t code_bytes = PackedBytes(rows, width);
  if (code_bytes > size - kDictHeaderBytes) {
    return PageError("dictionary page size mismatch");
  }
  // The entries fill the page up to the codes, exactly.
  cur.size = size - code_bytes;
  std::vector<std::string> dict;
  dict.reserve(entries);
  for (uint32_t e = 0; e < entries; ++e) {
    const uint32_t len = cur.GetU32();
    if (!cur.Need(len)) break;
    dict.emplace_back(page + cur.pos, len);
    cur.pos += len;
  }
  if (!cur.ok || cur.pos != cur.size) {
    return PageError("dictionary entry outside its page");
  }
  // Every row spends at least its 4-byte length; each value is spent
  // before it is stored, so a few long entries and many codes stop at the
  // budget.
  if (rows > *plain_budget / 4) return PageError("page past the plain budget");
  out->reserve(rows);
  uint64_t budget = *plain_budget;
  bool ok = true;
  Unpack(page + cur.size, rows, width, [&](size_t, uint64_t code) {
    ok = ok && code < entries && 4 + dict[code].size() <= budget;
    if (ok) {
      budget -= 4 + dict[code].size();
      out->push_back(dict[code]);
    }
  });
  if (!ok) return PageError("dictionary code out of range or past the budget");
  *plain_budget = budget;
  return Status::OK();
}

}  // namespace

EncodedPage EncodePayload(const ColumnVector& col, size_t begin, size_t rows) {
  switch (col.physical_type()) {
    case PhysicalType::kInt64:
      return IntPage(col.ints().data() + begin, rows);
    case PhysicalType::kDouble: {
      EncodedPage page;
      page.kind = PageKind::kDouble;
      page.plain_bytes = rows * 8;
      page.payload.assign(
          reinterpret_cast<const char*>(col.doubles().data() + begin),
          page.plain_bytes);
      return page;
    }
    case PhysicalType::kString:
    default:
      return StringPage(col.strings().data() + begin, rows);
  }
}

Status DecodePayload(const char* page, uint64_t size, PageKind kind,
                     size_t rows, uint64_t* plain_budget, ColumnVector* col) {
  switch (col->physical_type()) {
    case PhysicalType::kInt64:
      return DecodeInts(page, size, kind, rows, plain_budget, &col->ints());
    case PhysicalType::kDouble:
      if (kind != PageKind::kDouble) {
        return PageError("page kind does not match column type");
      }
      return DecodeFlat(page, size, rows, plain_budget, &col->doubles());
    case PhysicalType::kString:
    default:
      return DecodeStrings(page, size, kind, rows, plain_budget,
                           &col->strings());
  }
}

Status DecodeValidity(const char* page, uint64_t size, size_t rows,
                      ColumnVector* col) {
  if (size != rows) return PageError("validity page size mismatch");
  const auto* mask = reinterpret_cast<const uint8_t*>(page);
  for (size_t i = 0; i < rows; ++i) {
    if (mask[i] > 1) return PageError("bad validity byte");
  }
  col->MutableValidity().assign(mask, mask + rows);
  return Status::OK();
}

}  // namespace block
}  // namespace costdb
