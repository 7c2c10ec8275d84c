#include "net/transport.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/wire.h"
#include "storage/block/block_format.h"

namespace costdb {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class InProcessTransport final : public ExchangeTransport {
 public:
  TransportKind kind() const override { return TransportKind::kInProcess; }

  Result<DataChunk> Send(size_t /*from*/, size_t /*to*/, DataChunk chunk,
                         const std::vector<LogicalType>& /*schema*/) override {
    ++stats_.transfers;
    return chunk;
  }
};

/// Frames chunks over one AF_UNIX socketpair owned by this instance. The
/// coordinator is both producer and consumer, so Pump() interleaves
/// non-blocking writes on one end with reads on the other — a frame larger
/// than the kernel socket buffer would deadlock a write-then-read sequence,
/// and SOCK_STREAM buffers are small (~200 KiB) next to exchange payloads.
class SocketTransport final : public ExchangeTransport {
 public:
  SocketTransport() { status_ = Open(); }

  ~SocketTransport() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  TransportKind kind() const override { return TransportKind::kSocket; }

  Result<DataChunk> Send(size_t /*from*/, size_t /*to*/, DataChunk chunk,
                         const std::vector<LogicalType>& schema) override {
    COSTDB_RETURN_NOT_OK(status_);

    // One length-prefixed frame per wire::FrameEnd slice (and one for an
    // empty chunk): the decoder bounds every frame's rows and plain bytes.
    double t0 = NowSeconds();
    frame_.clear();
    const size_t rows = chunk.num_rows();
    size_t frames = 0;
    for (size_t begin = 0, end = 0; begin < rows || frames == 0;
         begin = end) {
      end = wire::FrameEnd(chunk, begin);
      const size_t prefix_at = frame_.size();
      block::PutU64(&frame_, 0);
      stats_.plain_bytes +=
          static_cast<double>(wire::EncodeChunk(chunk, begin, end, &frame_));
      const uint64_t len = frame_.size() - prefix_at - 8;
      std::memcpy(frame_.data() + prefix_at, &len, 8);
      stats_.wire_bytes += static_cast<double>(len);
      ++frames;
    }
    double t1 = NowSeconds();
    stats_.serialize_seconds += t1 - t0;

    COSTDB_RETURN_NOT_OK(Pump());
    double t2 = NowSeconds();
    stats_.transfer_seconds += t2 - t1;
    stats_.transfers += frames;

    if (rx_.size() != frame_.size()) {
      return Status::Internal("socket transport: framing desync");
    }
    DataChunk received;
    for (size_t pos = 0; pos < rx_.size();) {
      uint64_t len = ~uint64_t{0};
      if (rx_.size() - pos >= 8) std::memcpy(&len, rx_.data() + pos, 8);
      pos += 8;
      if (pos > rx_.size() || len > rx_.size() - pos) {
        return Status::Internal("socket transport: length prefix mismatch");
      }
      Result<DataChunk> decoded =
          wire::DecodeChunk(rx_.data() + pos, len, schema);
      COSTDB_RETURN_NOT_OK(decoded.status());
      if (pos == 8) {
        received = std::move(*decoded);
      } else {
        received.Append(*decoded);
      }
      pos += len;
    }
    stats_.serialize_seconds += NowSeconds() - t2;
    return received;
  }

 private:
  Status Open() {
    COSTDB_RETURN_NOT_OK(MakeSocketPair(fds_));
    for (int fd : fds_) {
      int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        return Status::Internal("socket transport: O_NONBLOCK failed");
      }
    }
    return Status::OK();
  }

  /// Push frame_ into fds_[0] while draining fds_[1] until the whole frame
  /// has round-tripped. Single-threaded: poll() tells us which direction
  /// can make progress so neither side blocks the other.
  Status Pump() {
    size_t written = 0;
    rx_.clear();
    const size_t expect = frame_.size();
    char buf[64 * 1024];
    while (rx_.size() < expect) {
      struct pollfd pfds[2];
      pfds[0] = {fds_[0], static_cast<short>(written < expect ? POLLOUT : 0),
                 0};
      pfds[1] = {fds_[1], POLLIN, 0};
      int rc = ::poll(pfds, 2, /*timeout_ms=*/10'000);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::Internal("socket transport: poll failed");
      }
      if (rc == 0) {
        return Status::Internal("socket transport: transfer timed out");
      }
      if (written < expect && (pfds[0].revents & (POLLOUT | POLLERR))) {
        long n = ::write(fds_[0], frame_.data() + written, expect - written);
        if (n < 0) {
          if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
            return Status::Internal("socket transport: write failed");
          }
        } else {
          written += static_cast<size_t>(n);
          stats_.socket_bytes += static_cast<double>(n);
        }
      }
      if (pfds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
        long n = ::read(fds_[1], buf, sizeof(buf));
        if (n < 0) {
          if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
            return Status::Internal("socket transport: read failed");
          }
        } else if (n == 0) {
          return Status::Internal("socket transport: peer closed mid-frame");
        } else {
          rx_.append(buf, static_cast<size_t>(n));
        }
      }
    }
    return Status::OK();
  }

  Status status_;
  int fds_[2] = {-1, -1};
  std::string frame_;
  std::string rx_;
};

}  // namespace

const char* TransportName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "in-process";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

std::unique_ptr<ExchangeTransport> MakeTransport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return std::make_unique<InProcessTransport>();
    case TransportKind::kSocket:
      return std::make_unique<SocketTransport>();
  }
  return std::make_unique<InProcessTransport>();
}

Status ReadFull(int fd, void* buf, size_t n, const ReadFn& fn) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    long r = fn ? fn(fd, p + got, n - got) : ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;  // signal mid-read: retry, don't lose data
      return Status::Internal(std::string("ReadFull: ") + std::strerror(errno));
    }
    if (r == 0) {
      return Status::Internal("ReadFull: EOF before full frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFull(int fd, const void* buf, size_t n, const WriteFn& fn) {
  const char* p = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < n) {
    long r = fn ? fn(fd, p + put, n - put) : ::write(fd, p + put, n - put);
    if (r < 0) {
      if (errno == EINTR) continue;  // short write via signal: resume at put
      return Status::Internal(std::string("WriteFull: ") +
                              std::strerror(errno));
    }
    put += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status MakeSocketPair(int fds[2]) {
  int type = SOCK_STREAM;
#ifdef SOCK_CLOEXEC
  type |= SOCK_CLOEXEC;
#endif
  if (::socketpair(AF_UNIX, type, 0, fds) != 0) {
    return Status::Internal(std::string("socketpair: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace costdb
