// E18: transport-abstracted exchanges.
//
// Claims demonstrated (and gated — exit 1 on violation):
//  (a) the socket transport returns bit-identical query results to the
//      in-process pass-through at a fixed worker count: every moved
//      partition survives the checksummed wire format round trip;
//  (b) framing conservation: the bytes written to the socket equal the
//      serialized wire bytes plus one 8-byte length prefix per transfer
//      (socket_bytes == wire_bytes + 8 * transfers);
//  (c) egress-dollar conservation: the facade bills exactly
//      wire_bytes / GiB * PricingCatalog::egress_per_gib for socket runs,
//      and nothing for in-process runs.
//
// `--smoke` runs a smaller configuration for CI; `--json <path>` snapshots
// the gates plus the serialize/link decomposition for the CI baseline
// comparator. Wall times and second decompositions are trend-only.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "cloud/pricing.h"
#include "common/rng.h"
#include "common/units.h"
#include "exec/sharded_engine.h"

namespace costdb {
namespace {

DataChunk MakeOrders(size_t rows) {
  Rng rng(23);
  DataChunk orders({LogicalType::kInt64, LogicalType::kInt64,
                    LogicalType::kVarchar, LogicalType::kDouble});
  const char* tags[] = {"red", "green", "blue", "cyan", "plum"};
  for (size_t i = 0; i < rows; ++i) {
    orders.AppendRow({Value(static_cast<int64_t>(i)),
                      Value(rng.UniformInt(0, 4999)),
                      Value(std::string(tags[rng.UniformInt(0, 4)])),
                      Value(rng.Uniform(0.0, 1000.0))});
  }
  return orders;
}

std::unique_ptr<Database> MakeDb(const DataChunk& orders,
                                 TransportKind transport) {
  DatabaseOptions opts;
  opts.enable_calibration = false;
  opts.exchange_transport = transport;
  auto db = std::make_unique<Database>(opts);
  auto table = std::make_shared<Table>(
      "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                       {"cust", LogicalType::kInt64},
                                       {"tag", LogicalType::kVarchar},
                                       {"amount", LogicalType::kDouble}},
      4096);
  table->Append(orders);
  db->meta()->RegisterTable(table);
  db->meta()->AnalyzeAll();
  return db;
}

std::string ChunkFingerprint(const DataChunk& chunk) {
  std::string all, key;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    EncodeChunkKeyInto(chunk, chunk.num_columns(), r, &key);
    all += key;
    all += '\n';
  }
  return all;
}

struct TimedRun {
  double wall_seconds = 0.0;
  ExecutionResult result;
};

TimedRun RunOnce(Database* db, const std::string& sql) {
  Session session(db);
  auto t0 = std::chrono::steady_clock::now();
  auto r = session.ExecuteSql(sql, UserConstraint().WithWorkers(4));
  auto t1 = std::chrono::steady_clock::now();
  if (!r.ok()) {
    std::fprintf(stderr, "execute failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  TimedRun out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.result = std::move(*r);
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  bench::PrintHeader(
      "E18: transport-abstracted exchanges (wire format + socket shuffle)",
      "Socket transport is bit-identical to in-process at fixed width; "
      "socket bytes and egress dollars conserve exactly.");

  const size_t rows = smoke ? 200'000 : 1'000'000;
  DataChunk orders = MakeOrders(rows);
  auto db_inproc = MakeDb(orders, TransportKind::kInProcess);
  auto db_socket = MakeDb(orders, TransportKind::kSocket);

  const std::string queries[] = {
      "SELECT tag, count(*) AS c, sum(amount) AS s FROM orders GROUP BY tag",
      "SELECT cust, count(*) AS c FROM orders GROUP BY cust",
  };

  // ---- (a) bit-identity + wall/byte comparison at 4 workers -----------
  std::printf("\n-- in-process vs socket at 4 workers (%zu rows) --\n", rows);
  std::printf("%-44s %-11s %10s %14s %12s\n", "query", "transport", "wall",
              "wire bytes", "link time");
  bool identical = true;
  double inproc_wall = 0.0, socket_wall = 0.0;
  double socket_wire_bytes = 0.0, socket_link_seconds = 0.0;
  for (const std::string& sql : queries) {
    TimedRun a = RunOnce(db_inproc.get(), sql);
    TimedRun b = RunOnce(db_socket.get(), sql);
    inproc_wall += a.wall_seconds;
    socket_wall += b.wall_seconds;
    socket_wire_bytes += b.result.exchange.wire_bytes();
    socket_link_seconds += b.result.exchange.link_seconds();
    const std::string label =
        sql.size() > 43 ? sql.substr(0, 40) + "..." : sql;
    std::printf("%-44s %-11s %8.1fms %14.0f %10.2fms\n", label.c_str(),
                "in-process", a.wall_seconds * 1e3,
                a.result.exchange.wire_bytes(),
                a.result.exchange.link_seconds() * 1e3);
    std::printf("%-44s %-11s %8.1fms %14.0f %10.2fms\n", "", "socket",
                b.wall_seconds * 1e3, b.result.exchange.wire_bytes(),
                b.result.exchange.link_seconds() * 1e3);
    if (ChunkFingerprint(a.result.result.chunk) !=
        ChunkFingerprint(b.result.result.chunk)) {
      identical = false;
      std::printf("  !! results diverged for: %s\n", sql.c_str());
    }
  }
  std::printf("bit-identical across transports: %s\n",
              identical ? "yes" : "NO");

  // ---- (b) framing conservation on a bare engine ----------------------
  auto planned = db_socket->PlanSql(queries[0], UserConstraint());
  if (!planned.ok()) {
    std::fprintf(stderr, "planning failed\n");
    return 1;
  }
  ShardedEngineOptions engine_options;
  engine_options.transport = TransportKind::kSocket;
  ShardedEngine engine(engine_options);
  ExecProfile profile;
  if (!engine.Execute(planned->plan.get(), 4, &profile).ok()) {
    std::fprintf(stderr, "engine execute failed\n");
    return 1;
  }
  const TransportStats& tp = profile.exchange.transport_stats;
  const double expected_socket =
      tp.wire_bytes + 8.0 * static_cast<double>(tp.transfers);
  const bool wire_match =
      tp.transfers > 0 && tp.socket_bytes == expected_socket;
  std::printf("\n-- framing conservation (socket engine, 4 workers) --\n");
  std::printf("transfers %zu, wire %.0f B, socket %.0f B (expect wire + "
              "8*transfers = %.0f): %s\n",
              tp.transfers, tp.wire_bytes, tp.socket_bytes, expected_socket,
              wire_match ? "conserved" : "MISMATCH");

  // ---- (c) egress-dollar conservation ---------------------------------
  const Database::EgressBilling billed = db_socket->egress_billing();
  const Database::EgressBilling none = db_inproc->egress_billing();
  const double egress_per_gib = PricingCatalog::Default().egress_per_gib;
  const double expected_dollars = billed.wire_bytes / kGiB * egress_per_gib;
  const bool egress_conserved =
      billed.runs > 0 && billed.wire_bytes > 0.0 &&
      std::fabs(billed.dollars - expected_dollars) < 1e-12 &&
      none.wire_bytes == 0.0 && none.dollars == 0.0;
  std::printf("\n-- egress billing (at $%.2f/GiB) --\n", egress_per_gib);
  std::printf("socket: %zu runs, %.0f wire bytes -> $%.9f (expect "
              "$%.9f); in-process: %.0f bytes, $%.9f: %s\n",
              billed.runs, billed.wire_bytes, billed.dollars,
              expected_dollars, none.wire_bytes, none.dollars,
              egress_conserved ? "conserved" : "MISMATCH");

  std::printf("\nclaims: (a) bit-identical: %s; (b) framing conserved: %s; "
              "(c) egress conserved: %s\n",
              identical ? "PASS" : "FAIL", wire_match ? "PASS" : "FAIL",
              egress_conserved ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    bench::BenchJson json;
    json.SetBool("gate_bit_identical", identical);
    json.SetBool("gate_wire_match", wire_match);
    json.SetBool("gate_egress_conserved", egress_conserved);
    // Exchange content is deterministic for the fixed seed and width, so
    // the byte ledgers gate; seconds are machine-dependent trends.
    json.SetInt("gate_engine_transfers", static_cast<long long>(tp.transfers));
    json.Set("gate_engine_wire_bytes", tp.wire_bytes);
    json.Set("gate_facade_wire_bytes", billed.wire_bytes);
    json.Set("inproc_wall_seconds", inproc_wall);
    json.Set("socket_wall_seconds", socket_wall);
    json.Set("socket_link_seconds", socket_link_seconds);
    json.Set("socket_wire_bytes", socket_wire_bytes);
    if (!json.WriteFile(json_path)) return 1;
  }
  return identical && wire_match && egress_conserved ? 0 : 1;
}

}  // namespace costdb

int main(int argc, char** argv) { return costdb::Main(argc, argv); }
