#pragma once

// Shared fixed-seed mutation driver of the decoder fuzz tests: the block
// decoder's (storage_test) and the wire decoder's (net_test).

#include <cstddef>
#include <cstdint>

namespace costdb {

/// SplitMix64: a fixed-seed generator, so every run applies the same
/// mutations.
struct Mutator {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }
  /// An edge value for a field that holds `old`.
  uint64_t Edge(uint64_t old) {
    const uint64_t edges[] = {0,
                              1,
                              old + 1,
                              old - 1,
                              old * 2,
                              old + 8,
                              0xFFu,
                              0xFFFFFFFFu,
                              uint64_t{1} << 26,
                              uint64_t{1} << 32,
                              uint64_t{1} << 40,
                              (uint64_t{1} << 61) + 16,
                              uint64_t{1} << 63,
                              ~uint64_t{0} - 7,
                              ~uint64_t{0},
                              Next()};
    return edges[Below(sizeof(edges) / sizeof(edges[0]))];
  }
};

}  // namespace costdb
