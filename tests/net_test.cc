// Wire-format and transport tests: round-trip fidelity across every
// logical type (NULLs included), rejection of corrupted/truncated/forged
// frames, the EINTR/short-op retry loops with injected syscalls, and the
// socket transport's end-to-end chunk movement (including frames larger
// than a socketpair's kernel buffer, which force the interleaved pump).

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
  auto decoded = wire::DecodeChunk(frame);
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
  auto decoded = wire::DecodeChunk(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_columns(), 5u);
  EXPECT_EQ(decoded->num_rows(), 0u);
  ASSERT_EQ(decoded->Types(), empty_rows.Types());

  // Zero columns entirely.
  DataChunk empty;
  frame.clear();
  wire::EncodeChunk(empty, &frame);
  auto decoded2 = wire::DecodeChunk(frame);
  ASSERT_TRUE(decoded2.ok()) << decoded2.status().ToString();
  EXPECT_EQ(decoded2->num_columns(), 0u);
}

TEST(WireFormat, RejectsEveryTruncation) {
  std::string frame;
  wire::EncodeChunk(AllTypesChunk(), &frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    auto decoded = wire::DecodeChunk(frame.data(), len);
    EXPECT_FALSE(decoded.ok()) << "accepted a frame truncated to " << len
                               << " of " << frame.size() << " bytes";
  }
  // Trailing garbage after a valid frame must also be rejected — a frame
  // is a complete unit, not a prefix.
  std::string padded = frame + "zz";
  EXPECT_FALSE(wire::DecodeChunk(padded).ok());
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
    auto decoded = wire::DecodeChunk(bad);
    EXPECT_FALSE(decoded.ok()) << "accepted a flip at byte " << i;
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument())
          << decoded.status().ToString();
    }
  }
}

TEST(WireFormat, RejectsBadMagicAndVersion) {
  std::string frame;
  wire::EncodeChunk(AllTypesChunk(), &frame);
  // Leading magic.
  std::string bad = frame;
  bad[0] = 'X';
  EXPECT_FALSE(wire::DecodeChunk(bad).ok());
  // Trailing magic.
  bad = frame;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0xff);
  EXPECT_FALSE(wire::DecodeChunk(bad).ok());
  // Unknown version (byte 8 is the low byte of the u32 version field).
  bad = frame;
  bad[8] = 2;
  EXPECT_FALSE(wire::DecodeChunk(bad).ok());
  EXPECT_FALSE(wire::DecodeChunk(nullptr, 0).ok());
}

// ------------------------------------------------- wire decoder mutations

/// Every logical type, a NULL in every fifth row of every column. The
/// string column comes first, so a forged row count meets the string page
/// before a fixed-width page's exact size check.
DataChunk EveryTypeChunk(size_t rows) {
  DataChunk chunk({LogicalType::kVarchar, LogicalType::kInt64,
                   LogicalType::kDouble, LogicalType::kBool,
                   LogicalType::kDate});
  for (size_t r = 0; r < rows; ++r) {
    const int64_t i = static_cast<int64_t>(r);
    if (r % 5 == 4) {
      chunk.AppendRow({Value(), Value(), Value(), Value(), Value()});
      continue;
    }
    chunk.AppendRow({Value(std::string(r % 7, static_cast<char>('a' + r % 26))),
                     Value(i * 1000003), Value(0.25 * static_cast<double>(i)),
                     Value(i % 2), Value(i - 40)});
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
    size_t header_at = 0;  // [logical type u8][has_validity u8]
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
    pos += 2;
    page(&col.payload);
    if (col.has_validity) page(&col.validity);
    layout.columns.push_back(col);
  }
  return layout;
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
  // Every outcome is a non-OK Status or a chunk of the header's shape:
  // its column count, its row count in every column, known types and 0/1
  // validity bytes. Nothing crashes, throws, over-allocates or trips a
  // sanitizer.
  size_t decoded_ok = 0, rejected = 0, resealed_rejected = 0;
  auto check = [&](const std::string& frame) {
    auto decoded = wire::DecodeChunk(frame);
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
    for (size_t c = 0; c < decoded->num_columns(); ++c) {
      const ColumnVector& col = decoded->column(c);
      EXPECT_LE(static_cast<uint8_t>(col.type()),
                static_cast<uint8_t>(LogicalType::kDate));
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
          switch (rng.Below(4)) {
            case 0:
              bad[col.header_at] = static_cast<char>(rng.Below(8));
              break;
            case 1:
              bad[col.header_at + 1] = static_cast<char>(rng.Below(3));
              break;
            case 2:
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
    auto decoded = wire::DecodeChunk(forged);
    ASSERT_FALSE(decoded.ok()) << rows;
    EXPECT_TRUE(decoded.status().IsInvalidArgument()) << rows;
  }
}

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

TEST(Transport, InProcessPassesChunksThroughUnserialized) {
  auto transport = MakeTransport(TransportKind::kInProcess);
  ASSERT_EQ(transport->kind(), TransportKind::kInProcess);
  DataChunk chunk = AllTypesChunk();
  DataChunk expect = chunk;
  auto sent = transport->Send(0, 1, std::move(chunk));
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
  auto sent = transport->Send(0, 1, std::move(chunk));
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(expect, *sent, &why)) << why;
  const TransportStats& stats = transport->stats();
  EXPECT_EQ(stats.transfers, 1u);
  // Wire bytes are the frame bodies; socket bytes add the 8-byte length
  // prefix per transfer. This is the accounting bench_e18 gates.
  EXPECT_EQ(stats.wire_bytes, static_cast<double>(frame.size()));
  EXPECT_EQ(stats.socket_bytes, stats.wire_bytes + 8.0);
  EXPECT_GE(stats.serialize_seconds, 0.0);
  EXPECT_GE(stats.transfer_seconds, 0.0);
  transport->ResetStats();
  EXPECT_EQ(transport->stats().transfers, 0u);
}

TEST(Transport, SocketMovesFramesLargerThanKernelBuffers) {
  // ~1.6 MiB of payload — far beyond a socketpair's default buffer, so a
  // naive write-then-read deadlocks; the pump must interleave both ends.
  DataChunk chunk({LogicalType::kInt64, LogicalType::kDouble});
  for (int64_t i = 0; i < 100'000; ++i) {
    chunk.AppendRow({Value(i), Value(static_cast<double>(i) * 0.5)});
  }
  DataChunk expect = chunk;
  auto transport = MakeTransport(TransportKind::kSocket);
  auto sent = transport->Send(1, 0, std::move(chunk));
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  std::string why;
  EXPECT_TRUE(ChunksBitIdentical(expect, *sent, &why)) << why;
  EXPECT_GT(transport->stats().wire_bytes, 1.5 * 1024 * 1024);
}

}  // namespace
}  // namespace costdb
