#include "exec/hash_table.h"

#include <cstring>
#include <utility>

#include "exec/evaluator.h"

namespace costdb {

namespace {

/// How one (probe, build) key column pair compares in a join: two int64
/// keys exactly, a double on either side as double, strings bytewise, and
/// a string against a number never.
enum class JoinMatch : uint8_t {
  kIntInt,
  kIntDouble,
  kDoubleInt,
  kDoubleDouble,
  kString,
  kNever,
};

JoinMatch JoinMatchOf(const ColumnVector& probe, const ColumnVector& build) {
  const PhysicalType p = probe.physical_type();
  const PhysicalType b = build.physical_type();
  if (p == PhysicalType::kString || b == PhysicalType::kString) {
    return p == b ? JoinMatch::kString : JoinMatch::kNever;
  }
  if (p == PhysicalType::kInt64) {
    return b == PhysicalType::kInt64 ? JoinMatch::kIntInt
                                     : JoinMatch::kIntDouble;
  }
  return b == PhysicalType::kInt64 ? JoinMatch::kDoubleInt
                                   : JoinMatch::kDoubleDouble;
}

bool JoinKeyEqual(JoinMatch m, const ColumnVector& probe, size_t pr,
                  const ColumnVector& build, size_t br) {
  switch (m) {
    case JoinMatch::kIntInt:
      return probe.GetInt(pr) == build.GetInt(br);
    case JoinMatch::kIntDouble:
      return static_cast<double>(probe.GetInt(pr)) == build.GetDouble(br);
    case JoinMatch::kDoubleInt:
      return probe.GetDouble(pr) == static_cast<double>(build.GetInt(br));
    case JoinMatch::kDoubleDouble:
      return probe.GetDouble(pr) == build.GetDouble(br);
    case JoinMatch::kString:
      return probe.GetString(pr) == build.GetString(br);
    case JoinMatch::kNever:
      break;
  }
  return false;
}

bool AnyNullable(const std::vector<ColumnVector>& keys) {
  for (const auto& k : keys) {
    if (k.has_nulls()) return true;
  }
  return false;
}

/// The payload array of `v` and the width of one row in it.
std::pair<const char*, size_t> PayloadOf(const ColumnVector& v) {
  switch (v.physical_type()) {
    case PhysicalType::kInt64:
      return {reinterpret_cast<const char*>(v.ints().data()), sizeof(int64_t)};
    case PhysicalType::kDouble:
      return {reinterpret_cast<const char*>(v.doubles().data()),
              sizeof(double)};
    case PhysicalType::kString:
      return {reinterpret_cast<const char*>(v.strings().data()),
              sizeof(std::string)};
  }
  return {nullptr, 0};
}

/// Rows `ra` of `a` and `rb` of `b` hold one group's key; both key column
/// lists have physical types `types`.
bool SameGroupKey(const std::vector<PhysicalType>& types,
                  const std::vector<ColumnVector>& a, size_t ra,
                  const std::vector<ColumnVector>& b, size_t rb) {
  for (size_t k = 0; k < types.size(); ++k) {
    const ColumnVector& x = a[k];
    const ColumnVector& y = b[k];
    const bool x_null = x.IsNull(ra);
    const bool y_null = y.IsNull(rb);
    if (x_null || y_null) {
      if (x_null != y_null) return false;
      continue;
    }
    switch (types[k]) {
      case PhysicalType::kInt64:
        if (x.GetInt(ra) != y.GetInt(rb)) return false;
        break;
      case PhysicalType::kDouble: {
        // == makes -0.0 one group with 0.0; the bit compare makes a NaN
        // one group with the same NaN.
        const double dx = x.GetDouble(ra);
        const double dy = y.GetDouble(rb);
        if (dx != dy && std::memcmp(&dx, &dy, sizeof(dx)) != 0) return false;
        break;
      }
      case PhysicalType::kString:
        if (x.GetString(ra) != y.GetString(rb)) return false;
        break;
    }
  }
  return true;
}

}  // namespace

void HashTable::Reset(size_t entries) {
  size_t slots = 16;
  while (slots < 2 * entries) slots *= 2;
  slots_.assign(slots, Slot{0, kEnd});
  mask_ = slots - 1;
  next_.assign(entries, kEnd);
}

void JoinTable::Build(std::vector<ColumnVector> keys,
                      const std::vector<uint64_t>& hashes) {
  keys_ = std::move(keys);
  const bool nullable = AnyNullable(keys_);
  const size_t rows = hashes.size();
  table_.Reset(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    // A NULL-key row can never match; indexing it would only lengthen the
    // chain of the NULL hash tag.
    if (nullable && kernels::AnyKeyNull(keys_, r)) continue;
    table_.Insert(table_.Find(hashes[r]), hashes[r], r);
  }
}

void JoinTable::Probe(const std::vector<ColumnVector>& keys,
                      const std::vector<uint64_t>& hashes,
                      std::vector<uint32_t>* probe_rows,
                      std::vector<uint32_t>* build_rows) const {
  std::vector<JoinMatch> match(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    match[k] = JoinMatchOf(keys[k], keys_[k]);
  }
  const bool nullable = AnyNullable(keys);
  // A large build side misses the cache on every slot, key and link it
  // touches, so the probe runs in two passes that load each of them a few
  // rows ahead of use: one finds every row's chain head, one walks the
  // chains.
  constexpr size_t kAhead = 16;
  const auto [first_key, key_width] =
      keys_.empty() ? std::pair<const char*, size_t>{nullptr, 0}
                    : PayloadOf(keys_[0]);
  const size_t rows = hashes.size();
  std::vector<uint32_t> heads(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (r + kAhead < rows) table_.PrefetchSlot(hashes[r + kAhead]);
    // A NULL probe key matches nothing.
    heads[r] = nullable && kernels::AnyKeyNull(keys, r)
                   ? HashTable::kEnd
                   : table_.head(table_.Find(hashes[r]));
  }
  for (uint32_t r = 0; r < rows; ++r) {
    if (r + kAhead < rows && heads[r + kAhead] != HashTable::kEnd) {
      const uint32_t ahead = heads[r + kAhead];
      table_.PrefetchNext(ahead);
      if (first_key != nullptr) {
        __builtin_prefetch(first_key + ahead * key_width);
      }
    }
    for (uint32_t b = heads[r]; b != HashTable::kEnd; b = table_.next(b)) {
      bool equal = true;
      for (size_t k = 0; k < keys.size() && equal; ++k) {
        equal = JoinKeyEqual(match[k], keys[k], r, keys_[k], b);
      }
      if (!equal) continue;
      probe_rows->push_back(r);
      build_rows->push_back(b);
    }
  }
}

uint32_t GroupTable::FindOrAdd(const std::vector<ColumnVector>& keys,
                               size_t row, uint64_t hash) {
  size_t slot = table_.Find(hash);
  for (uint32_t g = table_.head(slot); g != HashTable::kEnd;
       g = table_.next(g)) {
    if (SameGroupKey(types_, keys, row, keys_, g)) return g;
  }
  const uint32_t group = size();
  if (!table_.Fits(group + 1)) {
    table_.Reset(2 * group);
    for (uint32_t g = 0; g < group; ++g) {
      table_.Insert(table_.Find(hashes_[g]), hashes_[g], g);
    }
    slot = table_.Find(hash);
  }
  table_.Insert(slot, hash, group);
  hashes_.push_back(hash);
  if (keys_.size() != keys.size()) {
    for (const auto& k : keys) {
      keys_.emplace_back(k.type());
      types_.push_back(k.physical_type());
    }
  }
  for (size_t k = 0; k < keys.size(); ++k) keys_[k].AppendFrom(keys[k], row);
  return group;
}

}  // namespace costdb
