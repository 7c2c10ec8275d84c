#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cloud/billing.h"
#include "cloud/pricing.h"
#include "common/annotated_mutex.h"
#include "common/result.h"
#include "common/units.h"

namespace costdb {

/// Simulated S3-like object store. Two kinds of objects coexist behind the
/// same billing counters:
///
///   - metadata-only objects (`Put(key, bytes)`): the catalog's accounting
///     of table layouts — no real payload, only economics (sizes, request
///     counts, storage rent, scan bandwidth), as in the paper's Figure 3
///     disaggregated setting;
///   - byte-backed objects (`PutObject`/`GetObject`): real payloads spilled
///     to a local directory by the persistent block storage layer, so cold
///     scans move actual bytes while GET/PUT fees accrue on exactly the
///     same meters.
///
/// Thread-safe: sharded-engine workers fetch cold blocks concurrently.
class SimulatedObjectStore {
 public:
  explicit SimulatedObjectStore(const PricingCatalog* pricing)
      : pricing_(pricing) {}
  ~SimulatedObjectStore();

  SimulatedObjectStore(const SimulatedObjectStore&) = delete;
  SimulatedObjectStore& operator=(const SimulatedObjectStore&) = delete;

  /// Create or replace a metadata-only object of the given size.
  void Put(const std::string& key, double bytes);

  /// Size of an object, or NotFound.
  Result<double> Size(const std::string& key) const;

  /// Delete an object (and its spill file, when byte-backed).
  void Delete(const std::string& key);

  bool Exists(const std::string& key) const;

  // -- Byte-backed objects (persistent block storage) ----------------------

  /// Direct byte payloads to `directory` (created if missing). Must be set
  /// before the first PutObject.
  Status EnableSpill(const std::string& directory);

  bool spill_enabled() const;
  std::string spill_directory() const;

  /// Write a real payload. Counts one PUT and the payload size on the same
  /// meters as metadata objects.
  Status PutObject(const std::string& key, const std::string& bytes);

  /// Read a payload back with one sized read. Counts one GET — the unit
  /// the pricing catalog bills per 1000. A spill file whose length no
  /// longer matches the stored object (truncated or grown on disk) is an
  /// Internal "size mismatch" error, never a short or padded payload.
  Result<std::string> GetObject(const std::string& key);

  double total_bytes() const;
  int64_t get_requests() const;
  int64_t put_requests() const;

  /// Record `n` GET requests (issued by scans; charged per 1000).
  void CountGets(int64_t n);

  /// Storage rent for holding the current bytes for `duration` seconds.
  Dollars StorageRent(Seconds duration) const;

  /// Request charges accumulated so far.
  Dollars RequestCharges() const;

  /// Time for `node_count` nodes of shape `node` to cooperatively read
  /// `bytes` from the store (bandwidth scales with nodes; the store itself
  /// is assumed not to be the bottleneck, which matches S3 at warehouse
  /// scale).
  Seconds ScanTime(double bytes, const InstanceType& node,
                   int node_count) const;

 private:
  std::string SpillPathFor(const std::string& key) const REQUIRES(mu_);
  void PutLocked(const std::string& key, double bytes) REQUIRES(mu_);

  const PricingCatalog* pricing_;
  mutable Mutex mu_;
  std::map<std::string, double> objects_ GUARDED_BY(mu_);
  // key -> spill file path for byte-backed objects; files are removed on
  // Delete and (those still present) when the store is destroyed.
  std::map<std::string, std::string> spill_files_ GUARDED_BY(mu_);
  std::string spill_dir_ GUARDED_BY(mu_);
  double total_bytes_ GUARDED_BY(mu_) = 0.0;
  int64_t get_requests_ GUARDED_BY(mu_) = 0;
  int64_t put_requests_ GUARDED_BY(mu_) = 0;
};

}  // namespace costdb
