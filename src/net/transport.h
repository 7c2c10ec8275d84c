#pragma once

/// Transport seam of the sharded engine: every shuffle/broadcast/gather
/// partition that leaves its producing worker crosses an ExchangeTransport.
/// Two implementations (docs/TRANSPORT.md has the matrix):
///
///   kInProcess — the historical same-address-space pass-through; chunks
///     move by std::move, nothing is serialized. Zero-cost baseline.
///   kSocket   — chunks are encoded with the wire format (net/wire.h),
///     framed, pushed through a real AF_UNIX socketpair, and decoded on
///     the far side. Serialization + kernel copy + checksum verification
///     all happen for real, so measured exchange times contain the link
///     costs the calibrated cost model is asked to predict.
///
/// The per-transport TransportStats (wire bytes, socket bytes, serialize
/// vs transfer seconds) feed ExchangeTiming, and from there egress billing
/// and the calibration's link group (CalibrationUpdater).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "storage/data_chunk.h"

namespace costdb {

enum class TransportKind {
  kInProcess = 0,
  kSocket = 1,
};

const char* TransportName(TransportKind kind);

/// Counters one transport instance accumulates across Send calls.
struct TransportStats {
  size_t transfers = 0;        // chunks in process, frames over a socket
  double wire_bytes = 0.0;     // encoded frame bodies: what egress bills
  double plain_bytes = 0.0;    // their plain payload: what LinkSeconds prices
  double socket_bytes = 0.0;   // bytes actually written to the socket
  double serialize_seconds = 0.0;  // encode + decode + checksum time
  double transfer_seconds = 0.0;   // time moving bytes through the kernel
};

/// How a partition travels from producing worker `from` to consuming
/// worker `to`. Implementations are NOT thread-safe: each sharded
/// Execute call makes its own and runs all exchange rebucketing on the
/// calling thread.
class ExchangeTransport {
 public:
  virtual ~ExchangeTransport() = default;

  virtual TransportKind kind() const = 0;

  /// Move one chunk across the transport. `schema` is the receiving
  /// exchange's output types, which the plan fixes: the far side decodes
  /// against it, not against what the frames claim. The in-process
  /// transport passes the chunk through untouched; the socket transport
  /// serializes, ships, and decodes — the returned chunk is the far
  /// side's copy.
  virtual Result<DataChunk> Send(size_t from, size_t to, DataChunk chunk,
                                 const std::vector<LogicalType>& schema) = 0;

  const TransportStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TransportStats{}; }

 protected:
  TransportStats stats_;
};

std::unique_ptr<ExchangeTransport> MakeTransport(TransportKind kind);

// -- EINTR-safe socket IO ---------------------------------------------------
// Exposed (with injectable syscalls) so tests can exercise the partial
// read/write retry loops without a flaky-signal harness.

using ReadFn = std::function<long(int fd, void* buf, size_t n)>;
using WriteFn = std::function<long(int fd, const void* buf, size_t n)>;

/// Read exactly `n` bytes, retrying EINTR and short reads. EOF before `n`
/// bytes is an error (a peer died mid-frame).
Status ReadFull(int fd, void* buf, size_t n, const ReadFn& fn = {});

/// Write exactly `n` bytes, retrying EINTR and short writes.
Status WriteFull(int fd, const void* buf, size_t n, const WriteFn& fn = {});

/// AF_UNIX stream socketpair with CLOEXEC; Status instead of errno.
Status MakeSocketPair(int fds[2]);

}  // namespace costdb
