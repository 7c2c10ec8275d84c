// Wire-format and transport tests: round-trip fidelity across every
// logical type and page kind (NULLs included), rejection of corrupted,
// truncated and forged frames, and the socket transport's end-to-end chunk
// movement (including frames larger than a socketpair's kernel buffer,
// which force the interleaved pump, and partitions split across frames).

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chunk_testing.h"
#include "mutation_testing.h"
#include "net/transport.h"
#include "net/wire.h"
#include "storage/block/block_format.h"

#include <unistd.h>

namespace costdb {
namespace {

DataChunk AllTypesChunk() {
  DataChunk chunk({LogicalType::kInt64, LogicalType::kDouble,
                   LogicalType::kVarchar, LogicalType::kBool,
                   LogicalType::kDate});
  chunk.AppendRow({Value(int64_t{42}), Value(3.5), Value(std::string("abc")),
                   Value(int64_t{1}), Value(int64_t{19000})});
  chunk.AppendRow({Value(int64_t{-7}), Value(-0.25), Value(std::string("")),
                   Value(int64_t{0}), Value(int64_t{0})});
  chunk.AppendRow({Value(), Value(), Value(), Value(), Value()});  // all NULL
  chunk.AppendRow({Value(int64_t{1} << 40), Value(1e300),
                   Value(std::string(300, 'x')), Value(int64_t{1}),
                   Value(int64_t{-365})});
  return chunk;
}

TEST(WireFormat, RoundTripsAllTypesAndNulls) {
  DataChunk chunk = AllTypesChunk();
  std::string frame;
  wire::EncodeChunk(chunk, &frame);
  auto decoded = wire::DecodeChunk(frame, chunk.Types());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(chunk, *decoded, &why)) << why;
  // The NULL mask survives column by column, not just the row encoding.
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    ASSERT_EQ(decoded->column(c).type(), chunk.column(c).type());
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      EXPECT_EQ(decoded->column(c).IsNull(r), chunk.column(c).IsNull(r))
          << "col " << c << " row " << r;
    }
  }
}

TEST(WireFormat, RoundTripsEmptyChunks) {
  // Zero rows, five columns.
  DataChunk empty_rows({LogicalType::kInt64, LogicalType::kDouble,
                        LogicalType::kVarchar, LogicalType::kBool,
                        LogicalType::kDate});
  std::string frame;
  wire::EncodeChunk(empty_rows, &frame);
  auto decoded = wire::DecodeChunk(frame, empty_rows.Types());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_columns(), 5u);
  EXPECT_EQ(decoded->num_rows(), 0u);
  ASSERT_EQ(decoded->Types(), empty_rows.Types());

  // Zero columns entirely.
  DataChunk empty;
  frame.clear();
  wire::EncodeChunk(empty, &frame);
  auto decoded2 = wire::DecodeChunk(frame, {});
  ASSERT_TRUE(decoded2.ok()) << decoded2.status().ToString();
  EXPECT_EQ(decoded2->num_columns(), 0u);
}

TEST(WireFormat, RejectsEveryTruncation) {
  std::string frame;
  const DataChunk chunk = AllTypesChunk();
  wire::EncodeChunk(chunk, &frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    auto decoded = wire::DecodeChunk(frame.data(), len, chunk.Types());
    EXPECT_FALSE(decoded.ok()) << "accepted a frame truncated to " << len
                               << " of " << frame.size() << " bytes";
  }
  // Trailing garbage after a valid frame must also be rejected — a frame
  // is a complete unit, not a prefix.
  std::string padded = frame + "zz";
  EXPECT_FALSE(wire::DecodeChunk(padded, chunk.Types()).ok());
}

TEST(WireFormat, RejectsEverySingleByteCorruption) {
  // Every byte of the frame is under a checksum or is a structural
  // invariant (magic, version, counts), so no single-byte flip may decode.
  DataChunk chunk({LogicalType::kInt64, LogicalType::kVarchar});
  chunk.AppendRow({Value(int64_t{1}), Value(std::string("hello"))});
  chunk.AppendRow({Value(), Value(std::string("world"))});
  std::string frame;
  wire::EncodeChunk(chunk, &frame);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    auto decoded = wire::DecodeChunk(bad, chunk.Types());
    EXPECT_FALSE(decoded.ok()) << "accepted a flip at byte " << i;
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument())
          << decoded.status().ToString();
    }
  }
}

TEST(WireFormat, RejectsBadMagicAndVersion) {
  std::string frame;
  const std::vector<LogicalType> types = AllTypesChunk().Types();
  wire::EncodeChunk(AllTypesChunk(), &frame);
  // Leading magic.
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_FALSE(wire::DecodeChunk(bad, types).ok());
  // Trailing magic.
  bad = frame;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0xff);
  EXPECT_FALSE(wire::DecodeChunk(bad, types).ok());
  // A v1 frame (byte 8 is the low byte of the u32 version field): only
  // the current version decodes.
  bad = frame;
  bad[8] = 1;
  EXPECT_FALSE(wire::DecodeChunk(bad, types).ok());
  EXPECT_FALSE(wire::DecodeChunk(nullptr, 0, types).ok());
}

// ------------------------------------------------- wire decoder mutations

/// Every logical type, a NULL in every fifth row of every column. The
/// string column comes first, so a forged row count meets the string page
/// before a fixed-width page's exact size check. Its values repeat and the
/// integers span narrow ranges, so at 64 rows the strings travel as a
/// dictionary and every integer page is bit-packed; at 1 and 4 rows the
/// pages stay plain.
DataChunk EveryTypeChunk(size_t rows) {
  const char* modes[] = {"AIR", "RAIL", "", "TRUCK"};
  DataChunk chunk({LogicalType::kVarchar, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kBool,
                   LogicalType::kDate});
  for (size_t r = 0; r < rows; ++r) {
    const int64_t i = static_cast<int64_t>(r);
    if (r % 5 == 4) {
      chunk.AppendRow({Value(), Value(), Value(), Value(), Value()});
      continue;
    }
    chunk.AppendRow({Value(std::string(modes[r % 4])), Value(i * 1000003),
                     Value(0.25 * static_cast<double>(i)), Value(i % 2),
                     Value(i - 40)});
  }
  return chunk;
}

/// Where one frame's fields sit, so an edit can re-seal the checksums
/// over it (see the layout in net/wire.h).
struct FrameLayout {
  struct Page {
    size_t size_at = 0;  // the u64 page size
    size_t begin = 0;
    size_t size = 0;
    size_t checksum_at = 0;
  };
  struct Column {
    size_t header_at = 0;  // [logical type u8][has_validity u8][kind u8]
    Page payload;
    bool has_validity = false;
    Page validity;
  };
  std::vector<Column> columns;
};

uint64_t PeekU64(const std::string& frame, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, frame.data() + at, sizeof(v));
  return v;
}

void PokeU64(std::string* frame, size_t at, uint64_t v) {
  std::memcpy(frame->data() + at, &v, sizeof(v));
}

FrameLayout LayoutOf(const std::string& frame) {
  FrameLayout layout;
  uint32_t columns = 0;
  std::memcpy(&columns, frame.data() + 12, sizeof(columns));
  size_t pos = 24;  // magic, version, columns, rows
  auto page = [&](FrameLayout::Page* p) {
    p->size_at = pos;
    p->size = PeekU64(frame, pos);
    p->begin = pos + 8;
    p->checksum_at = p->begin + p->size;
    pos = p->checksum_at + 8;
  };
  for (uint32_t c = 0; c < columns; ++c) {
    FrameLayout::Column col;
    col.header_at = pos;
    col.has_validity = frame[pos + 1] != 0;
    pos += 3;
    page(&col.payload);
    if (col.has_validity) page(&col.validity);
    layout.columns.push_back(col);
  }
  return layout;
}

/// The PageKind byte of column `c`'s payload page in `frame`.
block::PageKind PayloadKindOf(const std::string& frame, size_t c) {
  return static_cast<block::PageKind>(
      frame[LayoutOf(frame).columns[c].header_at + 2]);
}

void ResealPage(std::string* frame, const FrameLayout::Page& p) {
  PokeU64(frame, p.checksum_at,
          block::Checksum64(frame->data() + p.begin, p.size));
}

void ResealBody(std::string* frame) {
  const size_t size = frame->size();
  PokeU64(frame, size - 16, block::Checksum64(frame->data() + 8, size - 24));
}

TEST(WireDecoderMutationTest, SeededMutationsNeverCrashOrLie) {
  std::vector<std::string> seeds;
  for (size_t rows : {64u, 4u, 1u, 0u}) {
    seeds.emplace_back();
    wire::EncodeChunk(EveryTypeChunk(rows), &seeds.back());
  }
  // The 64-row seed reaches the packed and dictionary decoders, the
  // others the plain ones.
  using block::PageKind;
  EXPECT_EQ(PayloadKindOf(seeds[0], 0), PageKind::kStringDict);
  for (size_t c : {1u, 3u, 4u}) {
    EXPECT_EQ(PayloadKindOf(seeds[0], c), PageKind::kInt64Packed) << c;
  }
  EXPECT_EQ(PayloadKindOf(seeds[1], 0), PageKind::kString);
  EXPECT_EQ(PayloadKindOf(seeds[2], 1), PageKind::kInt64);
  const std::vector<LogicalType> schema = EveryTypeChunk(0).Types();
  // Every outcome is a non-OK Status or a chunk of the header's shape:
  // the schema's columns, the header's row count in every column and 0/1
  // validity bytes. Nothing crashes, throws, over-allocates or trips a
  // sanitizer.
  size_t decoded_ok = 0, rejected = 0, resealed_rejected = 0;
  auto check = [&](const std::string& frame) {
    auto decoded = wire::DecodeChunk(frame, schema);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument())
          << decoded.status().ToString();
      ++rejected;
      return false;
    }
    ++decoded_ok;
    uint32_t columns = 0;
    std::memcpy(&columns, frame.data() + 12, sizeof(columns));
    const uint64_t rows = PeekU64(frame, 16);
    EXPECT_EQ(decoded->num_columns(), columns);
    EXPECT_EQ(decoded->Types(), schema);
    EXPECT_LE(rows, wire::kMaxFrameRows);
    for (size_t c = 0; c < decoded->num_columns(); ++c) {
      const ColumnVector& col = decoded->column(c);
      EXPECT_EQ(col.size(), rows);
      EXPECT_TRUE(col.validity().empty() || col.validity().size() == rows);
      for (uint8_t bit : col.validity()) EXPECT_LE(bit, 1);
    }
    return true;
  };

  constexpr size_t kRounds = 5000;  // per seed frame
  Mutator rng{0x5EA1'F4A3ULL};
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(check(seed));
    const FrameLayout layout = LayoutOf(seed);
    ASSERT_EQ(layout.columns.size(), 5u);
    for (size_t round = 0; round < kRounds; ++round) {
      std::string bad = seed;
      const FrameLayout::Column& col =
          layout.columns[rng.Below(layout.columns.size())];
      switch (round % 5) {
        case 0: {  // flip bits of one byte
          const size_t pos = rng.Below(bad.size());
          bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.Below(255)));
          check(bad);
          break;
        }
        case 1:  // truncate
          check(seed.substr(0, rng.Below(seed.size())));
          break;
        case 2: {  // version, column count or row count; body re-sealed
          const size_t field = rng.Below(3);
          if (field == 2) {
            PokeU64(&bad, 16, rng.Edge(PeekU64(bad, 16)));
          } else {
            const size_t at = field == 0 ? 8 : 12;
            uint32_t v = 0;
            std::memcpy(&v, bad.data() + at, sizeof(v));
            v = static_cast<uint32_t>(rng.Edge(v));
            std::memcpy(bad.data() + at, &v, sizeof(v));
          }
          ResealBody(&bad);
          if (!check(bad)) ++resealed_rejected;
          break;
        }
        case 3: {  // a column header or page size; body re-sealed
          switch (rng.Below(5)) {
            case 0:
              bad[col.header_at] = static_cast<char>(rng.Below(8));
              break;
            case 1:
              bad[col.header_at + 1] = static_cast<char>(rng.Below(3));
              break;
            case 2:  // the page kind
              bad[col.header_at + 2] = static_cast<char>(rng.Below(8));
              break;
            case 3:
              PokeU64(&bad, col.payload.size_at, rng.Edge(col.payload.size));
              break;
            default:
              if (col.has_validity) {
                PokeU64(&bad, col.validity.size_at,
                        rng.Edge(col.validity.size));
              }
              break;
          }
          ResealBody(&bad);
          if (!check(bad)) ++resealed_rejected;
          break;
        }
        default: {  // page bytes (string lengths, validity bytes); page
                    // and body re-sealed so the decoder's own checks meet
                    // the edit
          const FrameLayout::Page& page =
              col.has_validity && rng.Below(2) == 0 ? col.validity
                                                    : col.payload;
          if (page.size == 0) break;
          const size_t at = rng.Below(2) == 0
                                ? rng.Below(std::min<size_t>(page.size, 16))
                                : rng.Below(page.size);
          const size_t len = std::min<size_t>(1 + rng.Below(4), page.size - at);
          const uint64_t v = rng.Edge(0);
          std::memcpy(bad.data() + page.begin + at, &v, len);
          ResealPage(&bad, page);
          ResealBody(&bad);
          if (!check(bad)) ++resealed_rejected;
          break;
        }
      }
    }
  }
  EXPECT_GT(resealed_rejected, 0u);
  EXPECT_GT(decoded_ok, 0u);
  EXPECT_GT(rejected, decoded_ok);
}

// A string page cannot hold more rows than it has 4-byte length prefixes;
// the decoder must say so before it reserves or loops over the claim.
TEST(WireFormat, RejectsRowCountsTheStringPageCannotHold) {
  DataChunk chunk({LogicalType::kVarchar});
  chunk.AppendRow({Value(std::string("ab"))});
  std::string frame;
  wire::EncodeChunk(chunk, &frame);
  for (uint64_t rows : {uint64_t{3}, uint64_t{1} << 26, uint64_t{1} << 40}) {
    std::string forged = frame;
    PokeU64(&forged, 16, rows);
    ResealBody(&forged);
    auto decoded = wire::DecodeChunk(forged, chunk.Types());
    ASSERT_FALSE(decoded.ok()) << rows;
    EXPECT_TRUE(decoded.status().IsInvalidArgument()) << rows;
  }
}

/// One column per page kind, NULLs in three of them:
///   0 wide   int64   plain (values span the whole int64 range)
///   1 packed int64   bit-packed, NULLs
///   2 const  int64   bit-packed at width 0
///   3 price  double  plain, NULLs
///   4 mode   varchar dictionary (incl. the empty string), NULLs
///   5 name   varchar plain (every value distinct)
///   6 same   varchar one-entry dictionary
DataChunk EveryPageKindChunk(size_t rows) {
  const char* modes[] = {"AIR", "RAIL", "", "TRUCK", "MAIL"};
  DataChunk chunk({LogicalType::kInt64, LogicalType::kInt64,
                   LogicalType::kInt64, LogicalType::kDouble,
                   LogicalType::kVarchar, LogicalType::kVarchar,
                   LogicalType::kVarchar});
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t u = static_cast<uint64_t>(r) * 0x9E3779B97F4A7C15ULL;
    const auto i = static_cast<int64_t>(r);
    std::vector<Value> row = {Value(static_cast<int64_t>(u)),
                              Value(-500 + i % 300),
                              Value(int64_t{42}),
                              Value(0.5 * static_cast<double>(r)),
                              Value(std::string(modes[r % 5])),
                              Value("name-" + std::to_string(u % 100000)),
                              Value(std::string("constant"))};
    for (size_t c : {1u, 3u, 4u}) {
      if ((r + c) % 11 == 0) row[c] = Value::Null();
    }
    chunk.AppendRow(row);
  }
  return chunk;
}

TEST(WireFormat, V2RoundTripsEveryPageKind) {
  const DataChunk chunk = EveryPageKindChunk(300);
  std::string frame;
  const size_t plain = wire::EncodeChunk(chunk, &frame);
  // The frame reports the plain payload it carries, the unit the link
  // terms price; its pages are smaller.
  EXPECT_EQ(static_cast<double>(plain), ChunkPayloadBytes(chunk));
  EXPECT_LT(frame.size(), plain);
  using block::PageKind;
  const std::vector<PageKind> expected = {
      PageKind::kInt64,      PageKind::kInt64Packed, PageKind::kInt64Packed,
      PageKind::kDouble,     PageKind::kStringDict,  PageKind::kString,
      PageKind::kStringDict};
  const FrameLayout layout = LayoutOf(frame);
  ASSERT_EQ(layout.columns.size(), expected.size());
  for (size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(PayloadKindOf(frame, c), expected[c]) << "column " << c;
    EXPECT_EQ(layout.columns[c].has_validity, c == 1 || c == 3 || c == 4)
        << "column " << c;
  }
  // Width 0 and a one-entry dictionary store a header and no codes.
  EXPECT_EQ(layout.columns[2].payload.size, block::kPackedHeaderBytes);
  EXPECT_EQ(layout.columns[6].payload.size,
            block::kDictHeaderBytes + 4 + std::string("constant").size());

  auto decoded = wire::DecodeChunk(frame, chunk.Types());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->num_rows(), chunk.num_rows());
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    ExpectColumnsBitIdentical(decoded->column(c), chunk.column(c));
  }

  // Row ranges encode as frames of their own; decoded and appended in
  // order they restore the chunk, masks included.
  DataChunk joined(chunk.Types());
  for (auto [begin, end] :
       {std::make_pair(0, 1), std::make_pair(1, 128), std::make_pair(128, 128),
        std::make_pair(128, 300)}) {
    std::string part;
    wire::EncodeChunk(chunk, begin, end, &part);
    auto slice = wire::DecodeChunk(part, chunk.Types());
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ASSERT_EQ(slice->num_rows(), static_cast<size_t>(end - begin));
    joined.Append(*slice);
  }
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    ExpectColumnsBitIdentical(joined.column(c), chunk.column(c));
  }
}

// Three frames whose checksums all hold but whose headers claim what the
// receiving exchange cannot accept. Each is rejected before the header
// sizes anything: a width-0 page ties no row count to the frame size, so
// without the row bound the first would resize a column to 2^40 values.
TEST(WireFormat, ForgedFramesAreRejectedBeforeAllocating) {
  DataChunk constant({LogicalType::kInt64});
  for (int r = 0; r < 16; ++r) constant.AppendRow({Value(int64_t{7})});
  std::string frame;
  wire::EncodeChunk(constant, &frame);
  ASSERT_EQ(PayloadKindOf(frame, 0), block::PageKind::kInt64Packed);
  ASSERT_EQ(LayoutOf(frame).columns[0].payload.size, block::kPackedHeaderBytes);
  auto expect_rejected = [&](const std::string& forged,
                             const std::vector<LogicalType>& schema,
                             const char* what) {
    auto decoded = wire::DecodeChunk(forged, schema);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_TRUE(decoded.status().IsInvalidArgument())
        << what << ": " << decoded.status().ToString();
  };

  // 2^40 rows (and one past the bound) over the width-0 page.
  for (uint64_t rows : {uint64_t{1} << 40, wire::kMaxFrameRows + 1}) {
    std::string forged = frame;
    PokeU64(&forged, 16, rows);
    ResealBody(&forged);
    expect_rejected(forged, constant.Types(), "rows past the bound");
  }
  // At the bound the width-0 page is a valid frame of that many rows.
  std::string at_bound = frame;
  PokeU64(&at_bound, 16, wire::kMaxFrameRows);
  ResealBody(&at_bound);
  auto decoded = wire::DecodeChunk(at_bound, constant.Types());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_rows(), wire::kMaxFrameRows);

  // A header with 65,536 columns.
  std::string columns = frame;
  const uint32_t many = 1u << 16;
  std::memcpy(columns.data() + 12, &many, sizeof(many));
  ResealBody(&columns);
  expect_rejected(columns, constant.Types(), "65536 columns");

  // A column type the exchange does not expect: a forged type byte, and
  // an honest frame handed to a receiver of another schema.
  std::string retyped = frame;
  retyped[LayoutOf(frame).columns[0].header_at] =
      static_cast<char>(LogicalType::kDate);
  ResealBody(&retyped);
  expect_rejected(retyped, constant.Types(), "forged column type");
  expect_rejected(frame, {LogicalType::kDouble}, "schema mismatch");
  expect_rejected(frame, {LogicalType::kInt64, LogicalType::kInt64},
                  "column count mismatch");
}

// A one-entry dictionary at width 0 ties no string bytes to the frame
// size either: a few KiB with valid checksums could claim a GiB of strings
// in every varchar column. One plain-byte budget covers the whole frame,
// so each column alone may fit and the frame still be rejected.
TEST(WireFormat, ForgedDictionariesShareOneFrameBudget) {
  // `columns` varchar columns of 16 rows of `value`, forged to the frame
  // row bound.
  auto forged = [](size_t columns, const std::string& value) {
    DataChunk chunk(std::vector<LogicalType>(columns, LogicalType::kVarchar));
    for (int r = 0; r < 16; ++r) {
      chunk.AppendRow(std::vector<Value>(columns, Value(value)));
    }
    std::string frame;
    wire::EncodeChunk(chunk, &frame);
    for (size_t c = 0; c < columns; ++c) {
      EXPECT_EQ(PayloadKindOf(frame, c), block::PageKind::kStringDict);
      EXPECT_EQ(LayoutOf(frame).columns[c].payload.size,
                block::kDictHeaderBytes + 4 + value.size());
    }
    PokeU64(&frame, 16, wire::kMaxFrameRows);
    ResealBody(&frame);
    return std::make_pair(frame, chunk.Types());
  };
  // 12-byte strings: kMaxFrameRows × (4 + 12) plain bytes is the budget.
  ASSERT_EQ(wire::kMaxFrameRows * 16, wire::kMaxFramePlainBytes);
  const std::string twelve(12, 's');
  {
    auto [frame, schema] = forged(1, twelve);
    auto decoded = wire::DecodeChunk(frame, schema);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->num_rows(), wire::kMaxFrameRows);
    EXPECT_EQ(decoded->column(0).strings().back(), twelve);
  }
  const std::string kibi(1024, 'l');
  for (auto [columns, value] :
       {std::make_pair(size_t{2}, twelve), std::make_pair(size_t{4}, kibi)}) {
    auto [frame, schema] = forged(columns, value);
    auto rejected = wire::DecodeChunk(frame, schema);
    ASSERT_FALSE(rejected.ok()) << columns;
    EXPECT_TRUE(rejected.status().IsInvalidArgument())
        << rejected.status().ToString();
  }
}

// ---------------------------------------------------- EINTR-safe socket IO

TEST(TransportIo, ReadFullRetriesEintrAndShortReads) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  size_t pos = 0;
  int calls = 0;
  // One byte per successful call, an EINTR failure between each: the loop
  // must retry interrupts and accumulate short reads until `n` bytes.
  ReadFn flaky = [&](int, void* buf, size_t) -> long {
    ++calls;
    if (calls % 2 == 1) {
      errno = EINTR;
      return -1;
    }
    if (pos >= data.size()) return 0;
    *static_cast<char*>(buf) = data[pos++];
    return 1;
  };
  std::string out(data.size(), '\0');
  Status s = ReadFull(-1, out.data(), out.size(), flaky);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out, data);
  EXPECT_GE(calls, static_cast<int>(2 * data.size()));
}

TEST(TransportIo, ReadFullReportsEofMidFrame) {
  ReadFn eof = [](int, void*, size_t) -> long { return 0; };
  char buf[16];
  Status s = ReadFull(-1, buf, sizeof(buf), eof);
  EXPECT_FALSE(s.ok());
}

TEST(TransportIo, WriteFullRetriesEintrAndShortWrites) {
  const std::string data(4096, 'w');
  std::string sink;
  int calls = 0;
  WriteFn flaky = [&](int, const void* buf, size_t n) -> long {
    ++calls;
    if (calls % 3 == 0) {
      errno = EINTR;
      return -1;
    }
    // Short writes: at most 7 bytes per call.
    const size_t take = n < 7 ? n : 7;
    sink.append(static_cast<const char*>(buf), take);
    return static_cast<long>(take);
  };
  Status s = WriteFull(-1, data.data(), data.size(), flaky);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink, data);
}

TEST(TransportIo, FullReadWritePairOverRealPipe) {
  int fds[2];
  ASSERT_TRUE(MakeSocketPair(fds).ok());
  const std::string msg = "frame body";
  ASSERT_TRUE(WriteFull(fds[0], msg.data(), msg.size()).ok());
  std::string got(msg.size(), '\0');
  ASSERT_TRUE(ReadFull(fds[1], got.data(), got.size()).ok());
  EXPECT_EQ(got, msg);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------------------------- transports

TEST(Transport, InProcessPassesChunksThroughUnserialized) {
  auto transport = MakeTransport(TransportKind::kInProcess);
  ASSERT_EQ(transport->kind(), TransportKind::kInProcess);
  DataChunk chunk = AllTypesChunk();
  DataChunk expect = chunk;
  auto sent = transport->Send(0, 1, std::move(chunk), expect.Types());
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(expect, *sent, &why)) << why;
  EXPECT_EQ(transport->stats().transfers, 1u);
  EXPECT_EQ(transport->stats().wire_bytes, 0.0);
  EXPECT_EQ(transport->stats().socket_bytes, 0.0);
}

TEST(Transport, SocketRoundTripsAndCountsBytes) {
  auto transport = MakeTransport(TransportKind::kSocket);
  ASSERT_EQ(transport->kind(), TransportKind::kSocket);
  DataChunk chunk = AllTypesChunk();
  DataChunk expect = chunk;
  std::string frame;
  wire::EncodeChunk(expect, &frame);
  auto sent = transport->Send(0, 1, std::move(chunk), expect.Types());
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(expect, *sent, &why)) << why;
  const TransportStats& stats = transport->stats();
  EXPECT_EQ(stats.transfers, 1u);
  // Wire bytes are the frame bodies; socket bytes add the 8-byte length
  // prefix per transfer. This is the accounting bench_e18 gates.
  EXPECT_EQ(stats.wire_bytes, static_cast<double>(frame.size()));
  EXPECT_EQ(stats.socket_bytes, stats.wire_bytes + 8.0);
  // The link terms price the plain payload, not the encoded frame.
  EXPECT_EQ(stats.plain_bytes, ChunkPayloadBytes(expect));
  EXPECT_GE(stats.serialize_seconds, 0.0);
  EXPECT_GE(stats.transfer_seconds, 0.0);
  transport->ResetStats();
  EXPECT_EQ(transport->stats().transfers, 0u);
}

TEST(Transport, SocketMovesFramesLargerThanKernelBuffers) {
  // ~1.6 MiB of payload — far beyond a socketpair's default buffer, so a
  // naive write-then-read deadlocks; the pump must interleave both ends.
  // The integers span the whole int64 range, so no page packs smaller.
  DataChunk chunk({LogicalType::kInt64, LogicalType::kDouble});
  for (int64_t i = 0; i < 100'000; ++i) {
    const uint64_t spread = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
    chunk.AppendRow({Value(static_cast<int64_t>(spread)),
                     Value(static_cast<double>(i) * 0.5)});
  }
  DataChunk expect = chunk;
  auto transport = MakeTransport(TransportKind::kSocket);
  auto sent = transport->Send(1, 0, std::move(chunk), expect.Types());
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(expect, *sent, &why)) << why;
  EXPECT_GT(transport->stats().wire_bytes, 1.5 * 1024 * 1024);
}

TEST(Transport, SocketSplitsPartitionsPastTheFrameRowBound) {
  // One row past the bound travels as two frames, each prefixed with its
  // length, and arrives as one chunk.
  DataChunk chunk({LogicalType::kInt64});
  auto& ints = chunk.column(0).ints();
  ints.resize(wire::kMaxFrameRows + 1);
  for (size_t r = 0; r < ints.size(); ++r) {
    ints[r] = static_cast<int64_t>(r % 5);
  }
  DataChunk expect = chunk;
  auto transport = MakeTransport(TransportKind::kSocket);
  auto sent = transport->Send(0, 1, std::move(chunk), expect.Types());
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_EQ(sent->column(0).ints(), expect.column(0).ints());
  const TransportStats& stats = transport->stats();
  EXPECT_EQ(stats.transfers, 2u);
  EXPECT_EQ(stats.socket_bytes, stats.wire_bytes + 16.0);
  EXPECT_EQ(stats.plain_bytes, ChunkPayloadBytes(expect));
}

TEST(Transport, SocketCutsFramesAtThePlainByteBound) {
  // Four integer columns are 32 plain bytes a row: 2^19 rows fill a
  // frame's plain budget, so one row more travels as a second frame.
  auto transport = MakeTransport(TransportKind::kSocket);
  {
    const size_t rows = wire::kMaxFramePlainBytes / 32 + 1;
    DataChunk chunk(std::vector<LogicalType>(4, LogicalType::kInt64));
    for (size_t c = 0; c < 4; ++c) {
      auto& ints = chunk.column(c).ints();
      ints.resize(rows);
      for (size_t r = 0; r < rows; ++r) ints[r] = static_cast<int64_t>(r % 7);
    }
    EXPECT_EQ(wire::FrameEnd(chunk, 0), rows - 1);
    EXPECT_EQ(wire::FrameEnd(chunk, rows - 1), rows);
    DataChunk expect = chunk;
    auto sent = transport->Send(0, 1, std::move(chunk), expect.Types());
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(sent->column(c).ints(), expect.column(c).ints()) << c;
    }
    EXPECT_EQ(transport->stats().transfers, 2u);
    EXPECT_EQ(transport->stats().plain_bytes, ChunkPayloadBytes(expect));
  }

  // A row past the budget travels alone. Its pages are plain, so its
  // frame is at least as large as what it decodes to, and the decoder's
  // budget grows to the frame size.
  const std::string huge(wire::kMaxFramePlainBytes, 'h');
  DataChunk big({LogicalType::kVarchar, LogicalType::kInt64});
  big.AppendRow({Value(huge), Value(int64_t{1})});
  big.AppendRow({Value(std::string("small")), Value(int64_t{2})});
  EXPECT_EQ(wire::FrameEnd(big, 0), 1u);
  EXPECT_EQ(wire::FrameEnd(big, 1), 2u);
  const std::vector<LogicalType> types = big.Types();
  transport->ResetStats();
  auto sent = transport->Send(0, 1, std::move(big), types);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  ASSERT_EQ(sent->num_rows(), 2u);
  EXPECT_TRUE(sent->column(0).strings()[0] == huge);
  EXPECT_EQ(sent->column(0).strings()[1], "small");
  EXPECT_EQ(sent->column(1).ints(), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(transport->stats().transfers, 2u);
}

TEST(Transport, SocketDecodesAgainstTheReceiversSchema) {
  // The far side decodes against the schema the plan gives the receiving
  // exchange, not the one the frame claims.
  DataChunk chunk = AllTypesChunk();
  std::vector<LogicalType> other = chunk.Types();
  other[0] = LogicalType::kDouble;
  auto transport = MakeTransport(TransportKind::kSocket);
  auto sent = transport->Send(0, 1, std::move(chunk), other);
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(sent.status().IsInvalidArgument()) << sent.status().ToString();
}

}  // namespace
}  // namespace costdb
