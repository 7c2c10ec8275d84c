#include "cloud/object_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace costdb {

namespace {

/// Keys contain '/' (e.g. "lsm/table/42"); flatten to one spill file name.
/// '_' escapes itself so distinct keys cannot collide.
std::string EscapeKey(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    if (c == '/') {
      out += "_s";
    } else if (c == '_') {
      out += "__";
    } else {
      out += c;
    }
  }
  return out;
}

/// Closes a file descriptor when the read that opened it returns.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

Status SizeMismatch(const std::string& key, const std::string& detail) {
  return Status::Internal("object store: size mismatch reading '" + key +
                          "' (" + detail + ")");
}

}  // namespace

SimulatedObjectStore::~SimulatedObjectStore() {
  // Best-effort cleanup of spill files this store wrote; the directory is
  // left in place (it may be shared or user-provided).
  MutexLock lock(mu_);
  std::error_code ec;
  for (const auto& [key, path] : spill_files_) {
    std::filesystem::remove(path, ec);
  }
}

void SimulatedObjectStore::PutLocked(const std::string& key, double bytes) {
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    total_bytes_ -= it->second;
    it->second = bytes;
  } else {
    objects_[key] = bytes;
  }
  total_bytes_ += bytes;
  ++put_requests_;
}

void SimulatedObjectStore::Put(const std::string& key, double bytes) {
  MutexLock lock(mu_);
  PutLocked(key, bytes);
}

Result<double> SimulatedObjectStore::Size(const std::string& key) const {
  MutexLock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no object: " + key);
  return it->second;
}

void SimulatedObjectStore::Delete(const std::string& key) {
  MutexLock lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return;
  total_bytes_ -= it->second;
  objects_.erase(it);
  auto sf = spill_files_.find(key);
  if (sf != spill_files_.end()) {
    std::error_code ec;
    std::filesystem::remove(sf->second, ec);
    spill_files_.erase(sf);
  }
}

bool SimulatedObjectStore::Exists(const std::string& key) const {
  MutexLock lock(mu_);
  return objects_.count(key) > 0;
}

Status SimulatedObjectStore::EnableSpill(const std::string& directory) {
  MutexLock lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("object store: cannot create spill directory '" +
                            directory + "': " + ec.message());
  }
  spill_dir_ = directory;
  return Status::OK();
}

bool SimulatedObjectStore::spill_enabled() const {
  MutexLock lock(mu_);
  return !spill_dir_.empty();
}

std::string SimulatedObjectStore::spill_directory() const {
  MutexLock lock(mu_);
  return spill_dir_;
}

std::string SimulatedObjectStore::SpillPathFor(const std::string& key) const {
  return (std::filesystem::path(spill_dir_) / EscapeKey(key)).string();
}

Status SimulatedObjectStore::PutObject(const std::string& key,
                                       const std::string& bytes) {
  MutexLock lock(mu_);
  if (spill_dir_.empty()) {
    return Status::InvalidArgument(
        "object store: PutObject before EnableSpill");
  }
  const std::string path = SpillPathFor(key);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("object store: cannot open '" + path +
                              "' for write");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return Status::Internal("object store: short write to '" + path + "'");
    }
  }
  PutLocked(key, static_cast<double>(bytes.size()));
  spill_files_[key] = path;
  return Status::OK();
}

Result<ObjectBytes> SimulatedObjectStore::GetObject(const std::string& key) {
  return Read(key, 0, std::nullopt);
}

Result<ObjectBytes> SimulatedObjectStore::GetRange(const std::string& key,
                                                   uint64_t offset,
                                                   uint64_t length) {
  return Read(key, offset, length);
}

Result<ObjectBytes> SimulatedObjectStore::Read(const std::string& key,
                                               uint64_t offset,
                                               std::optional<uint64_t> length) {
  std::string path;
  uint64_t object_bytes = 0;
  {
    MutexLock lock(mu_);
    auto sf = spill_files_.find(key);
    if (sf == spill_files_.end()) {
      return Status::NotFound("no byte-backed object: " + key);
    }
    path = sf->second;
    object_bytes = static_cast<uint64_t>(objects_[key]);
    if (!length.has_value()) length = object_bytes;
    if (offset > object_bytes || *length > object_bytes - offset) {
      return SizeMismatch(key, "range [" + std::to_string(offset) + ", +" +
                                   std::to_string(*length) + ") outside the " +
                                   std::to_string(object_bytes) +
                                   "-byte object");
    }
    ++get_requests_;
  }
  // File I/O outside the lock: concurrent scan workers fetch in parallel.
  // A sized GET: the object's recorded size is known up front, so the
  // spill file's length and the byte count of one pread — not a checksum
  // downstream — are what expose a truncated or grown file.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("object store: cannot open '" + path + "'");
  }
  FdCloser closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Status::Internal("object store: cannot stat '" + path + "'");
  }
  if (static_cast<uint64_t>(st.st_size) != object_bytes) {
    return SizeMismatch(key, "spill file is " + std::to_string(st.st_size) +
                                 " bytes, object is " +
                                 std::to_string(object_bytes) +
                                 ": truncated or replaced");
  }
  ObjectBytes bytes(static_cast<size_t>(*length));
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  if (got != bytes.size()) {
    return SizeMismatch(key, "read " + std::to_string(got) + " of " +
                                 std::to_string(bytes.size()) + " bytes");
  }
  return bytes;
}

double SimulatedObjectStore::total_bytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

int64_t SimulatedObjectStore::get_requests() const {
  MutexLock lock(mu_);
  return get_requests_;
}

int64_t SimulatedObjectStore::put_requests() const {
  MutexLock lock(mu_);
  return put_requests_;
}

void SimulatedObjectStore::CountGets(int64_t n) {
  MutexLock lock(mu_);
  get_requests_ += n;
}

Dollars SimulatedObjectStore::StorageRent(Seconds duration) const {
  MutexLock lock(mu_);
  const double gib_months =
      (total_bytes_ / kGiB) * (duration / (30.0 * kSecondsPerDay));
  return gib_months * pricing_->storage_per_gib_month;
}

Dollars SimulatedObjectStore::RequestCharges() const {
  MutexLock lock(mu_);
  return static_cast<double>(get_requests_) / 1000.0 *
             pricing_->per_1k_get_requests +
         static_cast<double>(put_requests_) / 1000.0 *
             pricing_->per_1k_put_requests;
}

Seconds SimulatedObjectStore::ScanTime(double bytes, const InstanceType& node,
                                       int node_count) const {
  if (node_count <= 0) return 0.0;
  const double aggregate_gbps = node.scan_gbps * node_count;
  return bytes / (aggregate_gbps * kGiB);
}

}  // namespace costdb
