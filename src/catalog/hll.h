#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace costdb {

/// HyperLogLog distinct-count sketch (p = 12, 4096 registers, ~1.6% typical
/// error). Backs the NDV statistics the optimizer's join cardinality model
/// and the tuning advisors rely on.
class HyperLogLog {
 public:
  explicit HyperLogLog(int precision = 12);

  void AddInt(int64_t v);
  void AddDouble(double v);
  void AddString(const std::string& v);
  void AddHash(uint64_t hash);

  /// Estimated number of distinct values added.
  double Estimate() const;

  /// Merge another sketch (same precision) into this one.
  void Merge(const HyperLogLog& other);

  int precision() const { return precision_; }

 private:
  int precision_;
  uint64_t num_registers_;
  std::vector<uint8_t> registers_;
};

/// 64-bit mix hashes used by the sketch, the engine's hash table and
/// exchange partitioning. Inline: kernels::HashRows calls them per row per
/// key column.
inline uint64_t HashInt64(int64_t v) {
  uint64_t x = static_cast<uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashDouble(double v) {
  if (v == 0.0) v = 0.0;  // normalize -0.0
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashInt64(static_cast<int64_t>(bits));
}

inline uint64_t HashString(const std::string& v) {
  // FNV-1a with a finalizer mix.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : v) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return HashInt64(static_cast<int64_t>(h));
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return HashInt64(static_cast<int64_t>(a ^ (b + 0x9e3779b97f4a7c15ULL +
                                             (a << 6) + (a >> 2))));
}

}  // namespace costdb
