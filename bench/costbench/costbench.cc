// costbench — one end-to-end, layer-attributed benchmark of Session traffic.
//
// Drives one Database only through its client surface — Session::Prepare /
// Submit / Take, the facade's stats getters, and Table::Append for ingest —
// from a closed loop of client threads (each with its own Session), then:
//   - verifies every output of a seeded statement list against a
//     RAM-resident, single-worker, uncalibrated reference Database built
//     from the same seed (and, at seed 1 and full scale, against the
//     committed digest in golden/<workload>.txt);
//   - checks dollar conservation (session ledgers vs tenant bills, egress
//     vs wire bytes, billed GET/PUT counts vs the store's counters);
//   - prints every metric as `workload metric value unit`, writes a results
//     JSON (and, traced, the spans as JSON lines) under --out-dir, and ends
//     stdout with one JSON line {"correct", "attempted", "failed",
//     "metrics"}: the end-to-end metrics with --trace 0, the per-layer
//     metrics with --trace 1.
//
// bench/costbench/run.sh builds this binary and wraps it; README.md there
// explains the workloads, metrics, bounds and trace format.
//
//   costbench --workload dashboard|reporting|cold_scan|ingest [--seed N]
//             [--seconds S] [--trace 0|1] [--scale X] [--warmup S]
//             [--setups K] [--out-dir DIR] [--write-golden]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/object_store.h"
#include "cloud/pricing.h"
#include "service/session.h"
#include "storage/cache.h"
#include "workload/ssb.h"

using namespace costdb;

namespace {

// ------------------------------------------------------------ utilities

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

/// splitmix64: a tiny seeded generator whose stream is fixed by this file
/// alone (std:: distributions differ across standard libraries, and the
/// golden digests depend on the generated inputs).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Uniform(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Independent stream `stream` of seed `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001b3ULL + stream);
  mix.Next();
  return mix.Next();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Geometric mean over templates of each template's quantile q. Pooled
/// quantiles of a mix are multimodal (one mode per template), so they jump
/// between modes when the mix shifts by a few queries; this does not.
double TemplateQuantile(const std::vector<std::vector<double>>& by_template,
                        double q) {
  double log_sum = 0.0;
  size_t n = 0;
  for (const std::vector<double>& v : by_template) {
    const double x = Quantile(v, q);
    if (x <= 0.0) continue;
    log_sum += std::log(x);
    ++n;
  }
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

struct Usage {
  double cpu_seconds = 0.0;
  long voluntary_switches = 0;
  double max_rss_mib = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                             ru.ru_stime.tv_usec);
  u.voluntary_switches = ru.ru_nvcsw;
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

// ----------------------------------------------------------- workloads

/// A literal fragment of an ad-hoc statement, redrawn on every call:
/// `fragment` (which must occur in the template text) is replaced by
/// `format` with one of `choices` substituted for %s.
struct Literal {
  std::string fragment;
  std::string format;
  std::vector<std::string> choices;
};

struct Template {
  std::string name;
  std::string sql;  // '?' placeholders when prepared
  bool prepared = false;
  std::function<std::vector<Value>(Rng*)> params;  // prepared only
  std::vector<Literal> literals;                   // ad-hoc text only
};

struct Workload {
  std::string name;
  int clients = 1;
  int tenants = 1;
  size_t admission_slots = 1;
  bool persist_lineorder = false;
  bool persist_shipments = false;
  size_t block_cache_bytes = 0;
  bool result_cache = false;
  bool socket_transport = false;
  int workers = 1;
  /// Reporting walks all its templates in rounds, each round in a fresh
  /// seeded order; the others pick uniformly. With one admission slot a
  /// query waits for the other client's, and a fixed order would lock each
  /// template to one partner for a whole run.
  bool round_robin = false;
  /// Share of prepared executions whose parameters come from a 3-vector
  /// hot set per statement (result-cache candidates).
  double hot_fraction = 0.0;
  std::vector<Template> templates;
  std::vector<std::vector<std::vector<Value>>> hot;  // [template][3]
};

/// One statement execution: a prepared template plus its parameters, or
/// ad-hoc SQL text.
struct Request {
  size_t tmpl = 0;
  std::vector<Value> params;
  std::string sql;
};

std::vector<std::string> Range(int lo, int hi) {
  std::vector<std::string> out;
  for (int v = lo; v <= hi; ++v) out.push_back(std::to_string(v));
  return out;
}

const std::vector<std::string> kRegions = {"AMERICA", "ASIA", "EUROPE",
                                           "AFRICA", "MIDEAST"};
const std::vector<std::string> kCategories = {
    "MFGR#11", "MFGR#12", "MFGR#13", "MFGR#14",
    "MFGR#21", "MFGR#22", "MFGR#23", "MFGR#24"};
const std::vector<std::string> kColors = {"red",   "green", "blue", "ivory",
                                          "black", "plum",  "navy", "gold"};
const std::vector<std::string> kShipmodes = {"AIR", "RAIL", "SHIP", "TRUCK",
                                             "MAIL"};
constexpr int64_t kNumDays = 2556;  // SSB date dimension: 7 years

// The three dashboard statements, prepared once per client.
Template QuantityDiscountAgg() {
  Template t;
  t.name = "qty_disc_agg";
  t.sql =
      "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder "
      "WHERE lo_discount BETWEEN ? AND ? AND lo_quantity < ?";
  t.prepared = true;
  t.params = [](Rng* rng) {
    const int64_t lo = rng->Uniform(0, 8);
    return std::vector<Value>{Value(lo), Value(lo + rng->Uniform(1, 2)),
                              Value(rng->Uniform(10, 50))};
  };
  return t;
}

Template OrderkeyRangeAgg(int64_t rows) {
  Template t;
  t.name = "orderkey_range_agg";
  t.sql =
      "SELECT count(*) AS n, sum(lo_revenue) AS rev FROM lineorder "
      "WHERE lo_orderkey >= ? AND lo_orderkey < ?";
  t.prepared = true;
  t.params = [rows](Rng* rng) {
    const int64_t width =
        rng->Uniform(std::min<int64_t>(1000, rows / 4),
                     std::min<int64_t>(20000, rows / 2));
    const int64_t start = rng->Uniform(0, rows - width);
    return std::vector<Value>{Value(start), Value(start + width)};
  };
  return t;
}

Template DatekeyShipmodeGroupBy() {
  Template t;
  t.name = "datekey_shipmode_groupby";
  t.sql =
      "SELECT lo_shipmode, count(*) AS n, sum(lo_revenue) AS rev "
      "FROM lineorder WHERE lo_datekey BETWEEN ? AND ? GROUP BY lo_shipmode";
  t.prepared = true;
  t.params = [](Rng* rng) {
    const int64_t width = rng->Uniform(30, 365);
    const int64_t start = rng->Uniform(0, kNumDays - 1 - width);
    return std::vector<Value>{Value(start), Value(start + width)};
  };
  return t;
}

Template AdHoc(const std::string& id, std::vector<Literal> literals = {}) {
  Template t;
  t.name = id;
  t.sql = FindQuery(id).sql;
  t.literals = std::move(literals);
  return t;
}

/// The four workloads (README.md gives the reasoning behind each).
Result<Workload> MakeWorkload(const std::string& name, int64_t lineorder_rows) {
  Workload w;
  w.name = name;
  if (name == "dashboard") {
    w.clients = 4;
    w.tenants = 2;
    w.admission_slots = 2;
    w.persist_lineorder = w.persist_shipments = true;
    w.block_cache_bytes = 256u << 20;
    w.result_cache = true;
    w.hot_fraction = 0.2;
    w.templates = {QuantityDiscountAgg(), OrderkeyRangeAgg(lineorder_rows),
                   DatekeyShipmodeGroupBy()};
  } else if (name == "reporting") {
    w.clients = 2;
    w.admission_slots = 1;
    w.socket_transport = true;
    w.workers = 4;
    w.round_robin = true;
    const auto years = Range(1992, 1998);
    w.templates = {
        AdHoc("Q2"),
        AdHoc("Q3", {{"d_year = 1994", "d_year = %s", years}}),
        AdHoc("Q4"),
        AdHoc("Q5", {{"s_region = 'ASIA'", "s_region = '%s'", kRegions}}),
        AdHoc("Q6", {{"c_region = 'AMERICA'", "c_region = '%s'", kRegions},
                     {"s_region = 'ASIA'", "s_region = '%s'", kRegions}}),
        AdHoc("Q7",
              {{"p_category = 'MFGR#12'", "p_category = '%s'", kCategories},
               {"s_region = 'AMERICA'", "s_region = '%s'", kRegions}}),
        AdHoc("Q8", {{"p_color = 'red'", "p_color = '%s'", kColors}}),
        AdHoc("Q10",
              {{"lo_quantity > 45", "lo_quantity > %s", Range(40, 48)}}),
        AdHoc("Q11", {{"s_region = 'ASIA'", "s_region = '%s'", kRegions},
                      {"d_year >= 1994", "d_year >= %s", years}}),
        AdHoc("Q12",
              {{"sh_quantity < 10", "sh_quantity < %s", Range(5, 20)}}),
    };
  } else if (name == "cold_scan") {
    w.clients = 2;
    w.admission_slots = 2;
    w.persist_lineorder = w.persist_shipments = true;
    w.block_cache_bytes = 8u << 20;
    w.templates = {AdHoc("Q1"), AdHoc("Q10"), QuantityDiscountAgg(),
                   OrderkeyRangeAgg(lineorder_rows), AdHoc("Q12")};
  } else if (name == "ingest") {
    w.clients = 1;
    w.admission_slots = 2;
    w.persist_lineorder = true;
    w.block_cache_bytes = 256u << 20;
    w.result_cache = true;
    w.hot_fraction = 0.2;
    w.templates = {QuantityDiscountAgg(), OrderkeyRangeAgg(lineorder_rows),
                   DatekeyShipmodeGroupBy()};
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  for (const Template& t : w.templates) {
    if (t.sql.empty()) {
      return Status::NotFound("workload query " + t.name + " not found");
    }
    for (const Literal& l : t.literals) {
      if (t.sql.find(l.fragment) == std::string::npos) {
        return Status::NotFound(t.name + " no longer contains '" +
                                l.fragment + "'");
      }
    }
  }
  return w;
}

/// Draw parameters (prepared) or literals (ad-hoc) for template `tmpl`.
Request MakeRequest(const Workload& w, size_t tmpl, Rng* rng) {
  Request r;
  r.tmpl = tmpl;
  const Template& t = w.templates[tmpl];
  if (t.prepared) {
    if (!w.hot.empty() && rng->NextDouble() < w.hot_fraction) {
      r.params = w.hot[r.tmpl][static_cast<size_t>(rng->Uniform(0, 2))];
    } else {
      r.params = t.params(rng);
    }
    return r;
  }
  r.sql = t.sql;
  for (const Literal& l : t.literals) {
    const std::string& choice = l.choices[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(l.choices.size()) - 1))];
    std::string replacement = l.format;
    replacement.replace(replacement.find("%s"), 2, choice);
    r.sql.replace(r.sql.find(l.fragment), l.fragment.size(), replacement);
  }
  return r;
}

// ------------------------------------------------------- setup and runs

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  double scale = 1.0;
  double warmup = 2.0;
  int setups = 3;
  std::string out_dir = "build-costbench/results";
  bool write_golden = false;
};

/// ingest: appends per second of --seconds (fixed work, so a faster reader
/// never grows the table; sized so the fixed work takes a little under
/// --seconds on a 4-core box).
constexpr double kIngestCyclesPerSecond = 30.0;
constexpr size_t kIngestRowsPerCycle = 2048;
constexpr size_t kVerifyStatements = 50;

/// A Database plus its client sessions (one per client thread) and each
/// client's prepared statements.
struct Env {
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<Session>> sessions;        // clients
  std::vector<std::vector<PreparedStatementPtr>> stmts;  // [client][tmpl]
};

UserConstraint ConstraintOf(const Workload& w) {
  return UserConstraint().WithWorkers(w.workers);
}

Result<std::vector<PreparedStatementPtr>> PrepareAll(Session* session,
                                                     const Workload& w) {
  std::vector<PreparedStatementPtr> out(w.templates.size());
  for (size_t i = 0; i < w.templates.size(); ++i) {
    if (!w.templates[i].prepared) continue;
    COSTDB_ASSIGN_OR_RETURN(out[i], session->Prepare(w.templates[i].sql));
  }
  return out;
}

SsbOptions DataOptions(const Args& args) {
  SsbOptions data;
  data.scale = args.scale;
  data.seed = args.seed;
  data.row_group_size = 4096;
  return data;
}

/// Build the workload's Database: load, persist, open one session per
/// client and prepare its statements. Spill files go under `spill_dir`.
Result<Env> SetUp(const Workload& w, const Args& args,
                  const std::string& spill_dir) {
  DatabaseOptions o;
  o.exec_threads = 2;
  o.max_workers = 4;
  o.sharded_threads_per_worker = 1;
  o.admission.max_concurrent = w.admission_slots;
  o.enable_result_cache = w.result_cache;
  o.exchange_transport =
      w.socket_transport ? TransportKind::kSocket : TransportKind::kInProcess;
  // One flat tier at the node price: local and sharded runs alike bill
  // their measured machine-seconds.
  o.pricing.compute_second_tiers = {
      PriceTier{1e300, PricingCatalog::Default().default_node()
                           .price_per_second()}};
  Env env;
  if (w.persist_lineorder || w.persist_shipments) {
    o.enable_persistent_storage = true;
    o.block_cache_bytes = w.block_cache_bytes;
    o.storage_spill_dir = spill_dir;
  }
  env.db = std::make_unique<Database>(o);
  LoadSsb(env.db->meta(), DataOptions(args));
  if (w.persist_lineorder) {
    COSTDB_RETURN_NOT_OK(env.db->PersistTable("lineorder"));
  }
  if (w.persist_shipments) {
    COSTDB_RETURN_NOT_OK(env.db->PersistTable("shipments"));
  }
  for (int c = 0; c < w.clients; ++c) {
    SessionOptions so;
    so.default_constraint = ConstraintOf(w);
    so.tenant_id = "tenant" + std::to_string(c % w.tenants);
    env.sessions.push_back(std::make_unique<Session>(env.db.get(), so));
    std::vector<PreparedStatementPtr> stmts;
    COSTDB_ASSIGN_OR_RETURN(stmts, PrepareAll(env.sessions.back().get(), w));
    env.stmts.push_back(std::move(stmts));
  }
  return env;
}

/// One traced span. Measured spans carry start/end; derived spans (read
/// from ExecutionResult) carry a duration only (start_us < 0).
struct Span {
  uint64_t trace_id = 0;
  const char* name = "";
  const char* parent = nullptr;
  double start_us = -1.0;
  double end_us = -1.0;
  double dur_us = 0.0;
  std::string attrs;  // JSON object body, may be empty
};

struct QueryRecord {
  size_t tmpl = 0;
  bool ok = false;
  // Seconds since process start; Take starts when Submit returns, so the
  // session.submit and session.take spans partition the query span.
  double submit_start = 0.0, submit_end = 0.0, take_end = 0.0;
  bool result_cache_hit = false;
  bool sharded = false;
  double engine_s = 0.0;  // sharded: usage wall; local: sum of pipelines
  double est_s = 0.0;
  double pipeline_s = 0.0, source_rows = 0.0;
  double exchange_s = 0.0, link_s = 0.0, wire_bytes = 0.0, bytes_moved = 0.0;
  double worker_s = 0.0, miss_s = 0.0, fused_s = 0.0;

  double latency() const { return take_end - submit_start; }
};

/// Per-client state of the closed loop.
struct Client {
  Session* session = nullptr;
  const std::vector<PreparedStatementPtr>* stmts = nullptr;
  Rng rng{0};
  std::vector<size_t> round;  // round_robin: templates left in this round
  std::vector<QueryRecord> records;
  std::vector<Span> spans;
};

/// Draw the next request of one client.
Request NextRequest(const Workload& w, Client* c) {
  const size_t n = w.templates.size();
  if (!w.round_robin) {
    return MakeRequest(
        w, static_cast<size_t>(c->rng.Uniform(0, static_cast<int64_t>(n) - 1)),
        &c->rng);
  }
  if (c->round.empty()) {
    for (size_t i = 0; i < n; ++i) c->round.push_back(i);
    for (size_t i = n - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(c->round[i], c->round[static_cast<size_t>(c->rng.Uniform(
                                 0, static_cast<int64_t>(i)))]);
    }
  }
  const size_t tmpl = c->round.back();
  c->round.pop_back();
  return MakeRequest(w, tmpl, &c->rng);
}

std::atomic<uint64_t> g_trace_ids{1};

/// A measured span from `a` to `b`, in seconds since process start.
Span MeasuredSpan(uint64_t id, const char* name, const char* parent, double a,
                  double b, std::string attrs) {
  Span s;
  s.trace_id = id;
  s.name = name;
  s.parent = parent;
  s.start_us = a * 1e6;
  s.end_us = b * 1e6;
  s.dur_us = (b - a) * 1e6;
  s.attrs = std::move(attrs);
  return s;
}

void AddQuerySpans(const QueryRecord& r, const std::string& tmpl,
                   std::vector<Span>* spans) {
  const uint64_t id = g_trace_ids.fetch_add(1);
  auto derived = [&](const char* name, const char* parent, double seconds) {
    Span s;
    s.trace_id = id;
    s.name = name;
    s.parent = parent;
    s.dur_us = seconds * 1e6;
    spans->push_back(std::move(s));
  };
  const bool taken = r.take_end > 0.0;  // false when Submit failed
  spans->push_back(MeasuredSpan(
      id, "query", nullptr, r.submit_start,
      taken ? r.take_end : r.submit_end,
      "\"template\": \"" + tmpl + "\", \"ok\": " + (r.ok ? "true" : "false") +
          ", \"result_cache_hit\": " +
          (r.result_cache_hit ? "true" : "false")));
  spans->push_back(MeasuredSpan(id, "session.submit", "query", r.submit_start,
                                r.submit_end, ""));
  if (taken) {
    spans->push_back(MeasuredSpan(id, "session.take", "query", r.submit_end,
                                  r.take_end, ""));
  }
  if (!r.ok || r.result_cache_hit) return;
  derived("exec.engine", "session.take", r.engine_s);
  if (r.sharded) {
    derived("exec.sharded.exchange", "exec.engine", r.exchange_s);
    derived("net.link", "exec.sharded.exchange", r.link_s);
  }
  if (r.miss_s > 0.0) derived("storage.miss", "exec.engine", r.miss_s);
}

/// Submit one request and Take its result, timing both calls. Failures are
/// recorded, never thrown: a refused Submit or a failed Take is one failed
/// query.
Result<ExecutionResult> RunOne(Session* session,
                               const std::vector<PreparedStatementPtr>& stmts,
                               const Request& req, QueryRecord* rec) {
  rec->tmpl = req.tmpl;
  rec->submit_start = NowSeconds();
  Result<QueryHandlePtr> handle =
      req.sql.empty() ? session->Submit(stmts[req.tmpl], req.params)
                      : session->Submit(req.sql);
  rec->submit_end = NowSeconds();
  if (!handle.ok()) return handle.status();
  Result<ExecutionResult> result = (*handle)->Take();
  rec->take_end = NowSeconds();
  if (!result.ok()) return result;
  const ExecutionResult& r = *result;
  rec->ok = true;
  rec->result_cache_hit = r.result_cache_hit;
  rec->sharded = r.workers > 1;
  for (const PipelineTiming& t : r.timings) {
    rec->pipeline_s += t.seconds;
    rec->source_rows += t.source_rows;
  }
  rec->engine_s = rec->sharded ? r.usage.wall_seconds : rec->pipeline_s;
  rec->est_s = r.plan != nullptr ? r.plan->estimate.latency : 0.0;
  rec->exchange_s = r.exchange.seconds();
  rec->link_s = r.exchange.link_seconds();
  rec->wire_bytes = r.exchange.wire_bytes();
  rec->bytes_moved = r.exchange.bytes_moved();
  rec->worker_s = r.usage.worker_seconds;
  rec->miss_s = r.storage.miss_seconds;
  rec->fused_s = r.fused.fused_seconds;
  return result;
}

void RunAndRecord(const Workload& w, Client* c, const Request& req,
                  bool record, bool trace) {
  QueryRecord rec;
  (void)RunOne(c->session, *c->stmts, req, &rec);
  if (!record) return;
  if (trace) AddQuerySpans(rec, w.templates[req.tmpl].name, &c->spans);
  c->records.push_back(rec);
}

/// Closed loop: every client sends its next request as soon as the
/// previous one returned, until `seconds` elapsed.
void RunClosedLoop(const Workload& w, std::vector<Client>* clients,
                   double seconds, bool record, bool trace) {
  const double deadline = NowSeconds() + seconds;
  std::vector<std::thread> threads;
  for (Client& c : *clients) {
    threads.emplace_back([&w, &c, deadline, record, trace] {
      while (NowSeconds() < deadline) {
        Request req = NextRequest(w, &c);
        RunAndRecord(w, &c, req, record, trace);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Seeded lineorder rows for ingest cycle `cycle`, continuing the
/// generator's key space past the loaded rows.
DataChunk MakeIngestChunk(const Table& lineorder, uint64_t seed, size_t cycle,
                          int64_t first_orderkey, int64_t customers,
                          int64_t suppliers, int64_t parts) {
  std::vector<LogicalType> types;
  for (const ColumnDef& c : lineorder.columns()) types.push_back(c.type);
  DataChunk chunk(types);
  Rng rng(StreamSeed(seed, 1000 + cycle));
  for (size_t i = 0; i < kIngestRowsPerCycle; ++i) {
    const int64_t quantity = rng.Uniform(1, 50);
    const int64_t discount = rng.Uniform(0, 10);
    const double price = 100.0 + rng.NextDouble() * 9900.0;
    chunk.AppendRow(
        {Value(first_orderkey + static_cast<int64_t>(i)),
         Value(rng.Uniform(0, customers - 1)),
         Value(rng.Uniform(0, suppliers - 1)), Value(rng.Uniform(0, parts - 1)),
         Value(rng.Uniform(0, kNumDays - 1)), Value(quantity), Value(discount),
         Value(price), Value(price * (100.0 - discount) / 100.0),
         Value(kShipmodes[static_cast<size_t>(rng.Uniform(0, 4))])});
  }
  return chunk;
}

Result<std::vector<DataChunk>> MakeIngestChunks(Database* db, uint64_t seed,
                                                size_t cycles) {
  auto rows = [&](const char* name) -> Result<int64_t> {
    std::shared_ptr<Table> t;
    COSTDB_ASSIGN_OR_RETURN(t, db->meta()->GetTable(name));
    return static_cast<int64_t>(t->num_rows());
  };
  std::shared_ptr<Table> lineorder;
  COSTDB_ASSIGN_OR_RETURN(lineorder, db->meta()->GetTable("lineorder"));
  int64_t customers = 0, suppliers = 0, parts = 0;
  COSTDB_ASSIGN_OR_RETURN(customers, rows("customer"));
  COSTDB_ASSIGN_OR_RETURN(suppliers, rows("supplier"));
  COSTDB_ASSIGN_OR_RETURN(parts, rows("part"));
  const int64_t base = static_cast<int64_t>(lineorder->num_rows());
  std::vector<DataChunk> chunks;
  for (size_t i = 0; i < cycles; ++i) {
    chunks.push_back(MakeIngestChunk(
        *lineorder, seed, i, base + static_cast<int64_t>(i * kIngestRowsPerCycle),
        customers, suppliers, parts));
  }
  return chunks;
}

// ------------------------------------------------------------- counters

/// Facade counters read at the edges of the measured window.
struct Counters {
  double wall = 0.0;
  Usage usage;
  Database::CacheStats plan;
  Database::ResultCacheStats results;
  int calibration_version = 0;
  std::map<std::string, Database::TenantBill> tenants;
  Database::EgressBilling egress;
  Database::StorageBilling storage;  // after SettleStorageRequests
  int64_t store_gets = 0, store_puts = 0;
  double store_bytes = 0.0;
  BlockCacheStats cache;
};

Counters Snapshot(Database* db) {
  Counters c;
  c.wall = NowSeconds();
  c.usage = ReadUsage();
  c.plan = db->plan_cache_stats();
  c.results = db->result_cache_stats();
  c.calibration_version = db->calibration_version();
  c.tenants = db->tenant_billing();
  c.egress = db->egress_billing();
  c.storage = db->SettleStorageRequests();
  if (const SimulatedObjectStore* store = db->storage_store()) {
    c.store_gets = store->get_requests();
    c.store_puts = store->put_requests();
    c.store_bytes = store->total_bytes();
  }
  if (BlockCache* cache = db->block_cache()) c.cache = cache->totals();
  return c;
}

struct TenantSums {
  double dollars = 0.0, get_dollars = 0.0;
  int64_t gets = 0;
};

TenantSums SumTenants(const std::map<std::string, Database::TenantBill>& m) {
  TenantSums s;
  for (const auto& [tenant, bill] : m) {
    s.dollars += bill.dollars;
    s.get_dollars += bill.storage_get_dollars;
    s.gets += bill.storage_gets;
  }
  return s;
}

/// The bill between two snapshots, by cloud category. Tenant bills carry
/// compute and the GETs their queries caused; PUTs and compaction's GETs
/// are billed to no tenant, so they are priced from the store's counters.
struct WindowBill {
  double compute = 0.0, storage = 0.0, egress = 0.0;
  double total() const { return compute + storage + egress; }
};

WindowBill BillBetween(const Counters& a, const Counters& b) {
  const TenantSums t0 = SumTenants(a.tenants), t1 = SumTenants(b.tenants);
  const PricingCatalog prices = PricingCatalog::Default();
  const double maintenance_gets = std::max(
      0.0, static_cast<double>((b.store_gets - a.store_gets) -
                               (t1.gets - t0.gets)));
  const double puts = static_cast<double>(b.store_puts - a.store_puts);
  WindowBill bill;
  bill.compute = (t1.dollars - t0.dollars) - (t1.get_dollars - t0.get_dollars);
  bill.storage = (t1.get_dollars - t0.get_dollars) +
                 puts * prices.per_1k_put_requests / 1000.0 +
                 maintenance_gets * prices.per_1k_get_requests / 1000.0;
  bill.egress = b.egress.dollars - a.egress.dollars;
  return bill;
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the measured window produced, beyond the per-query records.
struct WindowResult {
  std::vector<QueryRecord> records;
  double elapsed = 0.0;
  Counters begin, end;
  std::vector<double> append_seconds;  // ingest
  double appended_bytes = 0.0;
  size_t appended_rows = 0;
};

std::vector<Metric> EndToEndMetrics(const WindowResult& win,
                                    size_t templates,
                                    const std::vector<double>& setups) {
  std::vector<std::vector<double>> latency_ms(templates), q_error(templates);
  size_t completed = 0;
  for (const QueryRecord& r : win.records) {
    if (!r.ok) continue;
    ++completed;
    latency_ms[r.tmpl].push_back(1e3 * r.latency());
    if (!r.result_cache_hit && r.est_s > 0.0 && r.engine_s > 0.0) {
      q_error[r.tmpl].push_back(
          std::max(r.est_s / r.engine_s, r.engine_s / r.est_s));
    }
  }
  const double done = static_cast<double>(completed);
  const double total_usd = BillBetween(win.begin, win.end).total();
  return {
      {"qps", Ratio(done, win.elapsed), "queries/s"},
      {"latency_p50_ms", TemplateQuantile(latency_ms, 0.50), "ms"},
      {"latency_p95_ms", TemplateQuantile(latency_ms, 0.95), "ms"},
      {"usd_per_kquery", 1e3 * Ratio(total_usd, done), "USD/kquery"},
      {"cpu_ms_per_query",
       1e3 * Ratio(win.end.usage.cpu_seconds - win.begin.usage.cpu_seconds,
                   done),
       "ms"},
      {"est_q_error_p50", TemplateQuantile(q_error, 0.50), "ratio"},
      {"setup_s", Quantile(setups, 0.50), "s"},
      {"peak_rss_mib", win.end.usage.max_rss_mib, "MiB"},
  };
}

/// Metrics reported beside the end-to-end set but not bounded: p99 only
/// where at least ten samples lie beyond it, and the failure share.
std::vector<Metric> ExtraMetrics(const WindowResult& win) {
  std::vector<double> latency_ms;
  size_t failed = 0;
  for (const QueryRecord& r : win.records) {
    if (r.ok) {
      latency_ms.push_back(1e3 * r.latency());
    } else {
      ++failed;
    }
  }
  std::vector<Metric> out;
  if (latency_ms.size() >= 1000) {
    out.push_back({"latency_p99_ms", Quantile(latency_ms, 0.99), "ms"});
  }
  out.push_back({"failed_frac",
                 Ratio(static_cast<double>(failed),
                       static_cast<double>(win.records.size())),
                 "fraction"});
  return out;
}

struct Probes {
  std::vector<double> bind_us, plan_ms;
};

std::vector<Metric> LayerMetrics(const WindowResult& win, const Probes& probes) {
  const Counters& a = win.begin;
  const Counters& b = win.end;
  std::vector<double> submit_ms, residual_ms, engine_ms, append_ms;
  double source_rows = 0, pipeline_s = 0, fused_s = 0, exchange_s = 0,
         bytes_moved = 0, worker_s = 0, link_s = 0, wire_bytes = 0;
  for (const QueryRecord& r : win.records) {
    if (!r.ok) continue;
    submit_ms.push_back(1e3 * (r.submit_end - r.submit_start));
    const double engine = r.result_cache_hit ? 0.0 : r.engine_s;
    residual_ms.push_back(1e3 * (r.take_end - r.submit_end - engine));
    if (!r.result_cache_hit) engine_ms.push_back(1e3 * r.engine_s);
    source_rows += r.source_rows;
    pipeline_s += r.pipeline_s;
    fused_s += r.fused_s;
    exchange_s += r.exchange_s;
    bytes_moved += r.bytes_moved;
    worker_s += r.worker_s;
    link_s += r.link_s;
    wire_bytes += r.wire_bytes;
  }
  for (double s : win.append_seconds) append_ms.push_back(1e3 * s);
  const double done = static_cast<double>(submit_ms.size());
  const double attempted = static_cast<double>(win.records.size());
  const auto hit_ratio = [](double hits, double misses) {
    return Ratio(hits, hits + misses);
  };
  const WindowBill bill = BillBetween(a, b);
  const double store_gets = static_cast<double>(b.store_gets - a.store_gets);
  const double store_puts = static_cast<double>(b.store_puts - a.store_puts);
  const double ingested_mib = win.appended_bytes / kMiB;
  double append_s = 0.0;
  for (double s : win.append_seconds) append_s += s;
  return {
      {"service.submit_ms_p50", Quantile(submit_ms, 0.50), "ms"},
      {"service.take_residual_ms_p50", Quantile(residual_ms, 0.50), "ms"},
      {"service.take_residual_ms_p95", Quantile(residual_ms, 0.95), "ms"},
      {"service.plan_cache.hit_ratio",
       hit_ratio(static_cast<double>(b.plan.hits - a.plan.hits),
                 static_cast<double>(b.plan.misses - a.plan.misses)),
       "ratio"},
      {"service.result_cache.hit_ratio",
       hit_ratio(static_cast<double>(b.results.hits - a.results.hits),
                 static_cast<double>(b.results.misses - a.results.misses)),
       "ratio"},
      {"sql.bind_us_p50", Quantile(probes.bind_us, 0.50), "us"},
      {"optimizer.plan_ms_p50", Quantile(probes.plan_ms, 0.50), "ms"},
      {"optimizer.replans_per_query",
       Ratio(static_cast<double>(b.plan.misses - a.plan.misses), attempted),
       "count"},
      {"cost.calibration_bumps_per_query",
       Ratio(static_cast<double>(b.calibration_version -
                                 a.calibration_version),
             attempted),
       "count"},
      {"exec.engine_ms_p50", Quantile(engine_ms, 0.50), "ms"},
      {"exec.scan_rows_per_s", Ratio(source_rows, pipeline_s), "rows/s"},
      {"exec.fused_ms_per_query", 1e3 * Ratio(fused_s, done), "ms"},
      {"exec.ctx_switches_per_query",
       Ratio(static_cast<double>(b.usage.voluntary_switches -
                                 a.usage.voluntary_switches),
             done),
       "count"},
      {"exec.sharded.exchange_ms_per_query", 1e3 * Ratio(exchange_s, done),
       "ms"},
      {"exec.sharded.bytes_moved_per_query", Ratio(bytes_moved, done), "B"},
      {"exec.sharded.worker_s_per_query", Ratio(worker_s, done), "s"},
      {"net.link_ms_per_query", 1e3 * Ratio(link_s, done), "ms"},
      {"net.link_share", Ratio(link_s, exchange_s), "ratio"},
      {"net.wire_bytes_per_query", Ratio(wire_bytes, done), "B"},
      {"storage.block_cache.hit_ratio",
       hit_ratio(static_cast<double>(b.cache.hits - a.cache.hits),
                 static_cast<double>(b.cache.misses - a.cache.misses)),
       "ratio"},
      {"storage.gets_per_query", Ratio(store_gets, done), "count"},
      {"storage.read_mib_per_query",
       Ratio((b.cache.bytes_read - a.cache.bytes_read) / kMiB, done), "MiB"},
      {"storage.miss_ms_per_query",
       1e3 * Ratio(b.cache.miss_seconds - a.cache.miss_seconds, done), "ms"},
      {"storage.append_ms_p95", Quantile(append_ms, 0.95), "ms"},
      {"storage.ingest_rows_per_s",
       Ratio(static_cast<double>(win.appended_rows), append_s), "rows/s"},
      {"storage.write_amp",
       Ratio(b.store_bytes - a.store_bytes, win.appended_bytes), "ratio"},
      {"storage.puts_per_mib_ingested", Ratio(store_puts, ingested_mib),
       "count/MiB"},
      {"cloud.compute_usd_per_kquery", 1e3 * Ratio(bill.compute, done),
       "USD/kquery"},
      {"cloud.storage_usd_per_kquery", 1e3 * Ratio(bill.storage, done),
       "USD/kquery"},
      {"cloud.egress_usd_per_kquery", 1e3 * Ratio(bill.egress, done),
       "USD/kquery"},
  };
}

/// Layer probes run after the window closes: bind every distinct statement
/// of the workload, then plan each from a cleared plan cache.
Probes RunProbes(Database* db, const Workload& w, std::vector<Span>* spans,
                 bool* ok) {
  Probes p;
  const UserConstraint constraint = ConstraintOf(w);
  auto span = [&](const char* name, const Template& t, double a, double b) {
    spans->push_back(MeasuredSpan(g_trace_ids.fetch_add(1), name, nullptr, a,
                                  b, "\"template\": \"" + t.name + "\""));
  };
  for (int rep = 0; rep < 5; ++rep) {
    for (const Template& t : w.templates) {
      const double a = NowSeconds();
      const bool bound = db->BindSql(t.sql).ok();
      const double b = NowSeconds();
      *ok = *ok && bound;
      p.bind_us.push_back(1e6 * (b - a));
      span("sql.bind", t, a, b);
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (const Template& t : w.templates) {
      db->ClearPlanCache();
      const double a = NowSeconds();
      const bool planned = db->PlanSql(t.sql, constraint).ok();
      const double b = NowSeconds();
      *ok = *ok && planned;
      p.plan_ms.push_back(1e3 * (b - a));
      span("optimizer.plan", t, a, b);
    }
  }
  return p;
}

// --------------------------------------------------------- verification

using Row = std::vector<Value>;

std::vector<Row> SortedRows(const QueryResult& r) {
  std::vector<Row> rows(r.chunk.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < r.chunk.num_columns(); ++c) {
      rows[i].push_back(r.chunk.column(c).GetValue(i));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Multiset equality: integers and strings exact, doubles within 1e-9
/// relative.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      const Value& x = a[i][c];
      const Value& y = b[i][c];
      if (x.is_double() && y.is_double()) {
        const double dx = x.AsDouble(), dy = y.AsDouble();
        if (std::abs(dx - dy) > 1e-9 * std::max(std::abs(dx), std::abs(dy))) {
          return false;
        }
      } else if (x != y) {
        return false;
      }
    }
  }
  return true;
}

/// FNV-1a over a canonical rendering (doubles to 10 significant digits,
/// so summation-order noise never moves the digest).
uint64_t Digest(const std::vector<Row>& rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 0x100000001b3ULL;
    }
  };
  char buf[64];
  for (const Row& row : rows) {
    for (const Value& v : row) {
      if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "%.10g", v.AsDouble());
        feed(buf);
      } else {
        feed(v.ToString());
      }
      feed("|");
    }
    feed("\n");
  }
  return h;
}

struct Verification {
  bool ok = true;
  size_t statements = 0;
  size_t mismatches = 0;
  std::vector<std::string> digest_lines;
};

/// Run a seeded statement list, covering every template, on the workload's
/// Database and on the reference; compare the rows.
Verification Verify(const Workload& w, const Args& args, Session* session,
                    Database* ref) {
  Verification v;
  Session ref_session(ref);
  auto stmts = PrepareAll(session, w);
  auto ref_stmts = PrepareAll(&ref_session, w);
  if (!stmts.ok() || !ref_stmts.ok()) {
    std::printf("verify: prepare failed\n");
    v.ok = false;
    return v;
  }
  Rng rng(StreamSeed(args.seed, 7));
  const size_t n = std::max(kVerifyStatements, w.templates.size());
  for (size_t i = 0; i < n; ++i) {
    // Round-robin over the templates, so every one is covered.
    const Request req = MakeRequest(w, i % w.templates.size(), &rng);
    QueryRecord rec, ref_rec;
    auto got = RunOne(session, *stmts, req, &rec);
    auto want = RunOne(&ref_session, *ref_stmts, req, &ref_rec);
    ++v.statements;
    const std::string& name = w.templates[req.tmpl].name;
    if (!got.ok() || !want.ok()) {
      std::printf("verify: %s #%zu failed: %s / %s\n", name.c_str(), i,
                  got.status().ToString().c_str(),
                  want.status().ToString().c_str());
      ++v.mismatches;
      continue;
    }
    const std::vector<Row> a = SortedRows(got->result);
    const std::vector<Row> b = SortedRows(want->result);
    if (!SameRows(a, b)) {
      std::printf("verify: %s #%zu rows differ (%zu vs %zu reference rows)\n",
                  name.c_str(), i, a.size(), b.size());
      ++v.mismatches;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%zu %s %zu %016llx", i, name.c_str(),
                  b.size(), static_cast<unsigned long long>(Digest(b)));
    v.digest_lines.push_back(line);
  }
  v.ok = v.mismatches == 0;
  return v;
}

/// Compare (or, with --write-golden, write) the committed digest of the
/// reference results. Applies only at the recorded parameters.
bool CheckGolden(const Args& args, const std::string& header,
                 const std::vector<std::string>& lines) {
  const std::string path =
      "bench/costbench/golden/" + args.workload + ".txt";
  if (args.write_golden) {
    std::ofstream out(path);
    out << header << "\n";
    for (const auto& l : lines) out << l << "\n";
    std::printf("golden: wrote %s\n", path.c_str());
    return static_cast<bool>(out);
  }
  std::ifstream in(path);
  if (!in) {
    std::printf("golden: missing %s\n", path.c_str());
    return false;
  }
  std::string first;
  std::getline(in, first);
  if (first != header) {
    std::printf("golden: skipped (recorded '%s', this run '%s')\n",
                first.c_str(), header.c_str());
    return true;
  }
  std::vector<std::string> want;
  for (std::string l; std::getline(in, l);) want.push_back(l);
  if (want != lines) {
    for (size_t i = 0; i < std::max(want.size(), lines.size()); ++i) {
      const std::string a = i < want.size() ? want[i] : "<none>";
      const std::string b = i < lines.size() ? lines[i] : "<none>";
      if (a != b) {
        std::printf("golden: mismatch at line %zu: want '%s', got '%s'\n",
                    i + 2, a.c_str(), b.c_str());
        break;
      }
    }
    return false;
  }
  std::printf("golden: %zu digests match %s\n", lines.size(), path.c_str());
  return true;
}

/// Dollar conservation at the end of the run.
bool CheckConservation(Database* db,
                       const std::vector<const Session*>& sessions,
                       double window_wire_bytes, double window_egress_bytes) {
  bool ok = true;
  std::map<std::string, double> spent;
  for (const Session* s : sessions) spent[s->options().tenant_id] += s->spent();
  const auto bills = db->tenant_billing();
  for (const auto& [tenant, dollars] : spent) {
    auto it = bills.find(tenant);
    const double billed = it == bills.end() ? 0.0 : it->second.dollars;
    if (std::abs(billed - dollars) > 1e-9) {
      std::printf("conservation: tenant %s spent %.12g but billed %.12g\n",
                  tenant.c_str(), dollars, billed);
      ok = false;
    }
  }
  const auto egress = db->egress_billing();
  const double expected =
      egress.wire_bytes / kGiB * PricingCatalog::Default().egress_per_gib;
  if (std::abs(egress.dollars - expected) > 1e-12 + 1e-9 * expected) {
    std::printf("conservation: egress billed %.12g, wire bytes price %.12g\n",
                egress.dollars, expected);
    ok = false;
  }
  if (std::abs(window_wire_bytes - window_egress_bytes) >
      1e-9 * std::max(1.0, window_wire_bytes)) {
    std::printf("conservation: window moved %.0f wire bytes, egress %.0f\n",
                window_wire_bytes, window_egress_bytes);
    ok = false;
  }
  const auto storage = db->SettleStorageRequests();
  if (const SimulatedObjectStore* store = db->storage_store()) {
    if (storage.gets != store->get_requests() ||
        storage.puts != store->put_requests()) {
      std::printf("conservation: billed %lld GETs / %lld PUTs, store saw "
                  "%lld / %lld\n",
                  static_cast<long long>(storage.gets),
                  static_cast<long long>(storage.puts),
                  static_cast<long long>(store->get_requests()),
                  static_cast<long long>(store->put_requests()));
      ok = false;
    }
  }
  return ok;
}

// --------------------------------------------------------------- output

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"trace_id\": " << s.trace_id << ", \"span\": \"" << s.name
        << "\", \"parent\": "
        << (s.parent != nullptr ? "\"" + std::string(s.parent) + "\""
                                : std::string("null"));
    if (s.start_us >= 0.0) {
      out << ", \"start_us\": " << JsonNumber(s.start_us)
          << ", \"end_us\": " << JsonNumber(s.end_us);
    }
    out << ", \"dur_us\": " << JsonNumber(s.dur_us);
    if (!s.attrs.empty()) out << ", " << s.attrs;
    out << "}\n";
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--write-golden") {
      args->write_golden = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "costbench: %s needs a value\n", flag.c_str());
      return false;
    }
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--scale") {
      args->scale = std::atof(v);
    } else if (flag == "--warmup") {
      args->warmup = std::atof(v);
    } else if (flag == "--setups") {
      args->setups = std::max(1, std::atoi(v));
    } else if (flag == "--out-dir") {
      args->out_dir = v;
    } else {
      std::fprintf(stderr, "costbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 || args->scale <= 0.0) {
    std::fprintf(stderr,
                 "usage: costbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale X] [--warmup S] [--setups K] "
                 "[--out-dir DIR] [--write-golden]\n");
    return false;
  }
  return true;
}

int Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "costbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 2;
}

/// One benchmark run; spill files of every set-up go under `spill_root`.
int Run(const Args& args, const std::string& spill_root) {
  const int64_t lineorder_rows =
      std::max<int64_t>(100, std::llround(600000 * args.scale));
  auto made = MakeWorkload(args.workload, lineorder_rows);
  if (!made.ok()) return Fail("workload", made.status());
  Workload w = std::move(*made);
  Rng hot_rng(StreamSeed(args.seed, 3));
  if (w.hot_fraction > 0.0) {
    for (const Template& t : w.templates) {
      w.hot.push_back(
          {t.params(&hot_rng), t.params(&hot_rng), t.params(&hot_rng)});
    }
  }

  // ---- set-up, repeated; setup_s is the median and the last one is kept.
  std::vector<double> setups;
  Env env;
  for (int i = 0; i < args.setups; ++i) {
    env = Env();
    const double start = NowSeconds();
    auto built = SetUp(w, args, spill_root + "/" + std::to_string(i));
    if (!built.ok()) return Fail("set-up", built.status());
    env = std::move(*built);
    Rng first_rng(StreamSeed(args.seed, 5));
    QueryRecord first;
    auto ran = RunOne(env.sessions[0].get(), env.stmts[0],
                      MakeRequest(w, 0, &first_rng), &first);
    if (!ran.ok()) return Fail("first query", ran.status());
    setups.push_back(NowSeconds() - start);
  }
  Database* db = env.db.get();
  std::vector<Client> clients(static_cast<size_t>(w.clients));
  for (size_t c = 0; c < clients.size(); ++c) {
    clients[c].session = env.sessions[c].get();
    clients[c].stmts = &env.stmts[c];
    clients[c].rng = Rng(StreamSeed(args.seed, 100 + c));
  }
  const bool ingest = w.name == "ingest";
  const size_t cycles =
      ingest ? static_cast<size_t>(std::max(
                   1.0, std::round(kIngestCyclesPerSecond * args.seconds)))
             : 0;
  std::vector<DataChunk> chunks;
  std::shared_ptr<Table> lineorder;
  if (ingest) {
    auto table = db->meta()->GetTable("lineorder");
    if (!table.ok()) return Fail("lineorder", table.status());
    lineorder = *table;
    auto made_chunks = MakeIngestChunks(db, args.seed, cycles);
    if (!made_chunks.ok()) return Fail("ingest rows", made_chunks.status());
    chunks = std::move(*made_chunks);
  }

  // ---- warm-up (not measured), then the measured window.
  RunClosedLoop(w, &clients, args.warmup, /*record=*/false, false);
  WindowResult win;
  win.begin = Snapshot(db);
  if (!ingest) {
    RunClosedLoop(w, &clients, args.seconds, /*record=*/true, args.trace);
  } else {
    // Fixed work: each cycle appends, then runs the three dashboard
    // statements. Table has no lock, so appends never overlap queries.
    Client& c = clients[0];
    for (size_t cycle = 0; cycle < cycles; ++cycle) {
      const double a = NowSeconds();
      lineorder->Append(chunks[cycle]);
      const double b = NowSeconds();
      win.append_seconds.push_back(b - a);
      win.appended_rows += chunks[cycle].num_rows();
      win.appended_bytes += ChunkPayloadBytes(chunks[cycle]);
      if (args.trace) {
        c.spans.push_back(MeasuredSpan(g_trace_ids.fetch_add(1),
                                       "storage.append", nullptr, a, b,
                                       "\"cycle\": " + std::to_string(cycle)));
      }
      for (size_t k = 0; k < w.templates.size(); ++k) {
        RunAndRecord(w, &c, MakeRequest(w, k, &c.rng), /*record=*/true,
                     args.trace);
      }
    }
  }
  win.end = Snapshot(db);
  win.elapsed = win.end.wall - win.begin.wall;
  std::vector<Span> spans;
  for (Client& c : clients) {
    win.records.insert(win.records.end(), c.records.begin(), c.records.end());
    spans.insert(spans.end(), c.spans.begin(), c.spans.end());
  }
  size_t failed = 0;
  double window_wire_bytes = 0.0;
  for (const QueryRecord& r : win.records) {
    failed += r.ok ? 0 : 1;
    window_wire_bytes += r.wire_bytes;
  }
  const std::vector<Metric> e2e =
      EndToEndMetrics(win, w.templates.size(), setups);
  const std::vector<Metric> extra = ExtraMetrics(win);
  bool probes_ok = true;
  Probes probes;
  if (args.trace) probes = RunProbes(db, w, &spans, &probes_ok);
  const std::vector<Metric> layers = LayerMetrics(win, probes);

  // ---- verification against the reference, golden digest, conservation.
  DatabaseOptions ref_options;
  ref_options.exec_threads = 2;
  ref_options.enable_calibration = false;
  Database ref(ref_options);
  LoadSsb(ref.meta(), DataOptions(args));
  bool appends_ok = true;
  if (ingest) {
    auto ref_lineorder = ref.meta()->GetTable("lineorder");
    if (!ref_lineorder.ok()) return Fail("lineorder", ref_lineorder.status());
    for (const DataChunk& chunk : chunks) (*ref_lineorder)->Append(chunk);
    appends_ok = lineorder->last_storage_error().ok() &&
                 lineorder->num_rows() == (*ref_lineorder)->num_rows();
    if (!appends_ok) std::printf("ingest: append failed or rows lost\n");
  }
  SessionOptions verify_options;
  verify_options.default_constraint = ConstraintOf(w);
  verify_options.tenant_id = "verify";
  Session verify_session(db, verify_options);
  const Verification v = Verify(w, args, &verify_session, &ref);
  bool golden_ok = true;
  if (args.seed == 1 && args.scale == 1.0) {
    const std::string header = "# costbench golden: workload=" + w.name +
                               " seed=1 scale=1 cycles=" +
                               std::to_string(cycles);
    golden_ok = CheckGolden(args, header, v.digest_lines);
  }
  std::vector<const Session*> sessions = {&verify_session};
  for (const auto& s : env.sessions) sessions.push_back(s.get());
  const bool conserved = CheckConservation(
      db, sessions, window_wire_bytes,
      win.end.egress.wire_bytes - win.begin.egress.wire_bytes);
  const bool correct = v.ok && golden_ok && conserved && appends_ok &&
                       probes_ok && !win.records.empty();

  // ---- report.
  std::printf("%s: %zu queries attempted, %zu failed, %.2f s window; "
              "verified %zu statements (%zu mismatches); conservation %s\n",
              w.name.c_str(), win.records.size(), failed, win.elapsed,
              v.statements, v.mismatches, conserved ? "ok" : "FAILED");
  std::vector<Metric> all = e2e;
  all.insert(all.end(), extra.begin(), extra.end());
  if (args.trace) all.insert(all.end(), layers.begin(), layers.end());
  for (const Metric& m : all) {
    std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  if (args.trace) WriteTrace(stem + ".trace.jsonl", spans);
  std::ofstream(stem + ".json")
      << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << win.records.size() << ", \"failed\": " << failed
      << ", \"metrics\": " << MetricsJson(all) << "}\n";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", win.records.size(), failed,
              MetricsJson(args.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  NowSeconds();  // process start: the epoch of every timestamp
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) return Fail("out dir", Status::Internal(ec.message()));
  // The stores delete their spill files on destruction; the directories
  // are removed here, after every Database of the run is gone.
  const std::string spill_root =
      args.out_dir + "/spill-" + std::to_string(getpid());
  const int rc = Run(args, spill_root);
  std::filesystem::remove_all(spill_root, ec);
  return rc;
}
