// E17 — the persistent block tier under the scan path:
//
//   part 1  RAM -> cold -> warm: run a three-tier query suite (a
//           disjunctive vectorized aggregate, fused Q1, sharded Q2)
//           against the resident table, persist it (PersistTable evicts
//           the RAM copy), then run the same suite twice more. The first
//           query projects every column the others read, so the cold pass
//           fetches each block exactly once and the later projections hit
//           the per-column cache; the warm pass must be served entirely
//           from the priced block cache, and all three passes must render
//           bit-identical rows. Gates the cold-read throughput against a
//           deliberately generous floor and the warm pass against a
//           bounded slowdown — the pass bits catch a broken cache, not
//           machine-speed variance. The cold pass makes exactly one GET
//           per storage object of the manifest: a scan reads each
//           object's blocks with one ranged GET. The table's stored
//           (encoded) bytes must be at most half its plain column bytes,
//           both read from the same manifest: the bit-packed and
//           dictionary pages of block format v3 at work.
//
//   part 2  dollar conservation: SettleStorageRequests must bill exactly
//           the GET/PUT counts the SimulatedObjectStore itself recorded,
//           the billing breakdown's storage lines must equal those counts
//           at the catalog's per-request prices, and a second settle must
//           charge nothing (the deltas were consumed).
//
//   part 3  thrash: a fresh database whose block cache (1 KiB) is smaller
//           than any single column of a block scans the persisted table
//           twice. Every pin misses and its columns are rejected at
//           admission, yet the rows must stay bit-identical to the
//           resident baseline — the cache is an economizer, never a
//           correctness dependency.
//
//   part 4  projected caching: on a fresh database, one cold Q2 (which
//           reads lo_shipmode and lo_revenue) must leave exactly those two
//           columns' manifest bytes in the block cache — a scan decodes
//           and admits only the columns it projects.
//
// `--smoke` runs the tiny configuration and exits 1 if any gate fails —
// the acceptance checks for the persistent storage tier, wired into CI.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cloud/object_store.h"
#include "storage/cache.h"

using namespace costdb;
using namespace costdb::bench;

namespace {

double ElapsedSeconds(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string FreshSpillDir(const std::string& name) {
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  std::filesystem::path dir = base / ("costdb_bench_" + name);
  std::filesystem::remove_all(dir, ec);
  return dir.string();
}

std::unique_ptr<Database> MakeDb(double scale, size_t cache_bytes,
                                 const std::string& spill_name) {
  DatabaseOptions opts;
  opts.exec_threads = 2;
  opts.enable_calibration = false;  // fixed estimates: deterministic gates
  opts.enable_persistent_storage = true;
  opts.block_cache_bytes = cache_bytes;
  opts.storage_spill_dir = FreshSpillDir(spill_name);
  auto db = std::make_unique<Database>(opts);
  SsbOptions data;
  data.scale = scale;
  data.row_group_size = 256;
  LoadSsb(db->meta(), data);
  return db;
}

/// Render rows order-insensitively: the sharded tier merges worker shares
/// in a plan-shape-dependent order, so cross-tier comparison sorts lines.
std::string SortedLines(const QueryResult& r) {
  std::string rendered = r.ToString(1 << 20);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < rendered.size()) {
    size_t end = rendered.find('\n', start);
    if (end == std::string::npos) end = rendered.size();
    lines.push_back(rendered.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// One query per engine tier, so bit-identity covers the fused kernels,
/// the general vectorized operators, and the sharded merge path. The first
/// query projects the union of the suite's columns (lo_extendedprice for
/// Q1, lo_shipmode and lo_revenue for Q2), so a cold pass makes one GET
/// per object.
std::vector<std::pair<std::string, UserConstraint>> Suite() {
  return {
      {"SELECT lo_shipmode, count(*) AS n, sum(lo_revenue) AS rev, "
       "sum(lo_extendedprice) AS ext "
       "FROM lineorder WHERE lo_quantity < 10 OR lo_discount = 2 "
       "GROUP BY lo_shipmode ORDER BY rev DESC",
       UserConstraint()},
      {FindQuery("Q1").sql, UserConstraint()},
      {FindQuery("Q2").sql, UserConstraint().WithWorkers(2)},
  };
}

struct SuitePass {
  std::vector<std::string> rendered;
  BlockCacheStats storage;  // summed over the suite's queries
  double wall_seconds = 0.0;
  bool all_ok = false;
};

SuitePass RunSuite(Database* db) {
  SuitePass pass;
  pass.all_ok = true;
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& [sql, constraint] : Suite()) {
    auto r = db->ExecuteSql(sql, constraint);
    if (!r.ok()) {
      std::printf("suite query failed: %s\n", r.status().ToString().c_str());
      pass.all_ok = false;
      pass.rendered.push_back("<failed>");
      continue;
    }
    pass.rendered.push_back(SortedLines(r->result));
    pass.storage.MergeFrom(r->storage);
  }
  pass.wall_seconds = ElapsedSeconds(t0, std::chrono::steady_clock::now());
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.02;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = 0.01;
      smoke = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    }
  }

  PrintHeader("E17 — persistent block tier under the scan path",
              "Cold scans stream bit-identical rows from priced blocks, "
              "the GDSF cache absorbs the re-reads, and every object-store "
              "request is billed exactly once.");

  // ---- part 1: RAM -> cold -> warm -------------------------------------
  auto db = MakeDb(scale, /*cache_bytes=*/64u << 20, "e17_main");
  SuitePass ram = RunSuite(db.get());
  Status persisted = db->PersistTable("lineorder");
  if (!persisted.ok()) {
    std::printf("PersistTable failed: %s\n", persisted.ToString().c_str());
    return 1;
  }
  SuitePass cold = RunSuite(db.get());
  SuitePass warm = RunSuite(db.get());
  auto manifest = db->meta()->GetBlockManifest("lineorder");
  const size_t objects = manifest.ok() ? manifest->objects : 0;
  // Encoded images against the plain column bytes a decoded table occupies
  // (what the cache charges; every row is cold after PersistTable).
  const double stored_bytes = manifest.ok() ? manifest->bytes : 0.0;
  double plain_bytes = 0.0;
  if (auto lineorder = db->meta()->GetTable("lineorder"); lineorder.ok()) {
    plain_bytes = (*lineorder)->EstimateBytes();
  }
  const double encoded_to_plain =
      plain_bytes > 0.0 ? stored_bytes / plain_bytes : 0.0;
  const bool encoded_le_half_plain =
      stored_bytes > 0.0 && 2.0 * stored_bytes <= plain_bytes;

  const bool bit_identical = ram.all_ok && cold.all_ok && warm.all_ok &&
                             ram.rendered == cold.rendered &&
                             ram.rendered == warm.rendered;
  const bool cold_read_blocks =
      cold.storage.misses > 0 && cold.storage.bytes_read > 0.0;
  const bool warm_no_gets =
      warm.storage.misses == 0 && warm.storage.hits > 0;
  const bool cold_gets_eq_objects =
      objects > 0 && cold.storage.misses == static_cast<int64_t>(objects);
  // Decoded MiB/s across the cold pass's fetch+decode wall time. The floor
  // is deliberately tiny (1 MiB/s): it catches a storage path that went
  // pathologically slow (e.g. a decode loop gone quadratic), not machines.
  const double cold_mib_s =
      cold.storage.miss_seconds > 0.0
          ? cold.storage.bytes_read / kMiB / cold.storage.miss_seconds
          : 0.0;
  const bool cold_floor_ok = cold_read_blocks && cold_mib_s >= 1.0;
  // Warm speedup is machine-dependent (recorded as trajectory); the gate
  // only rejects a warm pass slower than 4x the cold one — i.e. a cache
  // whose hits cost more than the misses they replace.
  const double warm_speedup =
      warm.wall_seconds > 0.0 ? cold.wall_seconds / warm.wall_seconds : 0.0;
  const bool warm_speedup_ok =
      warm_no_gets && warm.wall_seconds <= 4.0 * cold.wall_seconds;

  TablePrinter pt({"pass", "wall", "GETs", "cache hits", "MiB read"});
  pt.AddRow({"RAM", StrFormat("%.2f ms", 1e3 * ram.wall_seconds), "0", "0",
             "0.0"});
  pt.AddRow({"cold", StrFormat("%.2f ms", 1e3 * cold.wall_seconds),
             StrFormat("%lld", (long long)cold.storage.misses),
             StrFormat("%lld", (long long)cold.storage.hits),
             StrFormat("%.2f", cold.storage.bytes_read / kMiB)});
  pt.AddRow({"warm", StrFormat("%.2f ms", 1e3 * warm.wall_seconds),
             StrFormat("%lld", (long long)warm.storage.misses),
             StrFormat("%lld", (long long)warm.storage.hits),
             StrFormat("%.2f", warm.storage.bytes_read / kMiB)});
  std::printf("%s", pt.ToString().c_str());
  std::printf(
      "bit-identical across passes: %s; cold read %.1f MiB/s; warm "
      "speedup %.2fx; cold GETs %lld for %zu objects\n",
      bit_identical ? "yes" : "NO", cold_mib_s, warm_speedup,
      (long long)cold.storage.misses, objects);
  std::printf("stored %.0f bytes for %.0f plain column bytes: %.3fx\n",
              stored_bytes, plain_bytes, encoded_to_plain);

  // ---- part 2: dollar conservation -------------------------------------
  const SimulatedObjectStore* store = db->storage_store();
  auto settled = db->SettleStorageRequests();
  auto bill = db->storage_billing();
  const auto breakdown = db->billing_snapshot().Breakdown();
  const PricingCatalog pricing = PricingCatalog::Default();
  const Dollars get_price = pricing.per_1k_get_requests / 1000.0;
  const Dollars put_price = pricing.per_1k_put_requests / 1000.0;
  auto near = [](Dollars a, Dollars b) { return std::abs(a - b) < 1e-12; };

  const bool counts_match = store != nullptr &&
                            bill.gets == store->get_requests() &&
                            bill.puts == store->put_requests();
  Dollars get_line = 0.0, put_line = 0.0;
  if (auto it = breakdown.find("storage:get"); it != breakdown.end()) {
    get_line = it->second;
  }
  if (auto it = breakdown.find("storage:put"); it != breakdown.end()) {
    put_line = it->second;
  }
  const bool dollars_match =
      near(get_line, double(bill.gets) * get_price) &&
      near(put_line, double(bill.puts) * put_price) &&
      near(bill.dollars, get_line + put_line);
  // SettleStorageRequests returns the cumulative ledger; with no store
  // traffic in between, settling again must charge nothing new.
  auto resettled = db->SettleStorageRequests();
  const bool settle_idempotent = resettled.gets == bill.gets &&
                                 resettled.puts == bill.puts &&
                                 near(resettled.dollars, bill.dollars);
  const bool dollar_conservation =
      counts_match && dollars_match && settle_idempotent && settled.gets > 0;

  std::printf(
      "\nbilled %lld GETs / %lld PUTs = $%.8f (store saw %lld / %lld); "
      "conserved: %s\n",
      (long long)bill.gets, (long long)bill.puts, bill.dollars,
      store != nullptr ? (long long)store->get_requests() : -1LL,
      store != nullptr ? (long long)store->put_requests() : -1LL,
      dollar_conservation ? "yes" : "NO");

  // ---- part 3: thrash — table larger than the cache --------------------
  auto tiny = MakeDb(scale, /*cache_bytes=*/1024, "e17_thrash");
  SuitePass tiny_ram = RunSuite(tiny.get());
  Status tiny_persisted = tiny->PersistTable("lineorder");
  SuitePass thrash1 = RunSuite(tiny.get());
  SuitePass thrash2 = RunSuite(tiny.get());
  const bool thrash_bit_identical =
      tiny_persisted.ok() && tiny_ram.all_ok && thrash1.all_ok &&
      thrash2.all_ok && tiny_ram.rendered == thrash1.rendered &&
      tiny_ram.rendered == thrash2.rendered;
  // Every pin must miss both times: nothing fits, so nothing is retained.
  const bool thrash_all_misses =
      thrash1.storage.hits == 0 && thrash2.storage.hits == 0 &&
      thrash2.storage.misses == thrash1.storage.misses &&
      thrash1.storage.rejected > 0;
  std::printf(
      "\nthrash (1 KiB cache): %lld misses/pass, %lld rejected, rows "
      "bit-identical: %s\n",
      (long long)thrash1.storage.misses, (long long)thrash1.storage.rejected,
      thrash_bit_identical && thrash_all_misses ? "yes" : "NO");

  // ---- part 4: a cold scan caches only the columns it projects ----------
  auto proj = MakeDb(scale, /*cache_bytes=*/64u << 20, "e17_projected");
  const Status proj_persisted = proj->PersistTable("lineorder");
  const bool proj_ran =
      proj_persisted.ok() &&
      proj->ExecuteSql(FindQuery("Q2").sql, UserConstraint()).ok();
  double projected_bytes = 0.0;  // manifest bytes of Q2's two columns
  if (auto lineorder = proj->meta()->GetTable("lineorder"); lineorder.ok()) {
    for (const char* name : {"lo_shipmode", "lo_revenue"}) {
      auto idx = (*lineorder)->ColumnIndex(name);
      if (idx.ok()) projected_bytes += (*lineorder)->EstimateColumnBytes(*idx);
    }
  }
  const size_t cached_bytes = proj->block_cache()->bytes_used();
  const bool projected_cache_ok =
      proj_ran && projected_bytes > 0.0 &&
      static_cast<double>(cached_bytes) == projected_bytes;
  std::printf(
      "\nprojected cold Q2: cached %zu bytes, its two columns' manifest "
      "bytes %.0f: %s\n",
      cached_bytes, projected_bytes, projected_cache_ok ? "equal" : "DIFFER");

  // Accepts --json <path> (parsed by JsonPathFromArgs). The literal flag
  // must appear in this TU: the CI smoke loop greps each bench source for
  // "--json" to decide whether to request a snapshot.
  const std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    BenchJson json;
    json.SetBool("gate_bit_identical", bit_identical);
    json.SetInt("gate_cold_misses", cold.storage.misses);
    json.SetBool("gate_cold_gets_eq_objects", cold_gets_eq_objects);
    json.SetBool("gate_encoded_le_half_plain", encoded_le_half_plain);
    json.SetBool("gate_warm_no_gets", warm_no_gets);
    json.SetBool("gate_cold_floor_ok", cold_floor_ok);
    json.SetBool("gate_warm_speedup_ok", warm_speedup_ok);
    json.SetBool("gate_dollar_conservation", dollar_conservation);
    json.SetInt("gate_billed_gets", bill.gets);
    json.SetInt("gate_billed_puts", bill.puts);
    json.SetBool("gate_thrash_bit_identical",
                 thrash_bit_identical && thrash_all_misses);
    json.SetInt("gate_projected_cached_bytes",
                projected_cache_ok ? static_cast<int64_t>(cached_bytes) : -1);
    json.Set("ram_wall_s", ram.wall_seconds);
    json.Set("cold_wall_s", cold.wall_seconds);
    json.Set("warm_wall_s", warm.wall_seconds);
    json.Set("cold_read_mib_s", cold_mib_s);
    json.Set("warm_speedup", warm_speedup);
    json.Set("cold_bytes_read_mib", cold.storage.bytes_read / kMiB);
    json.Set("encoded_to_plain_ratio", encoded_to_plain);
    json.SetInt("warm_cache_hits", warm.storage.hits);
    json.Set("storage_dollars", bill.dollars);
    json.SetInt("thrash_misses_per_pass", thrash1.storage.misses);
    json.SetInt("thrash_rejected", thrash1.storage.rejected);
    if (!json.WriteFile(json_path)) return 1;
  }

  const bool all_gates = bit_identical && cold_floor_ok && warm_no_gets &&
                         cold_gets_eq_objects && encoded_le_half_plain &&
                         warm_speedup_ok && dollar_conservation &&
                         thrash_bit_identical && thrash_all_misses &&
                         projected_cache_ok;
  if (smoke) {
    std::printf(
        "\nsmoke: bit-identical: %s; cold floor: %s; cold GETs = objects: "
        "%s; encoded <= plain/2: %s; warm served from cache: %s; dollars "
        "conserved: %s; thrash correct: %s; projected caching: %s\n",
        bit_identical ? "yes" : "NO", cold_floor_ok ? "yes" : "NO",
        cold_gets_eq_objects ? "yes" : "NO",
        encoded_le_half_plain ? "yes" : "NO",
        warm_no_gets && warm_speedup_ok ? "yes" : "NO",
        dollar_conservation ? "yes" : "NO",
        thrash_bit_identical && thrash_all_misses ? "yes" : "NO",
        projected_cache_ok ? "yes" : "NO");
    if (!all_gates) return 1;
  }
  return 0;
}
