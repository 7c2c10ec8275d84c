#pragma once

#include <cstdint>
#include <vector>

#include "storage/column_vector.h"

namespace costdb {

/// The flat open-addressing hash table behind the engine's hash joins and
/// GROUP BYs. It maps 64-bit row hashes (kernels::HashRows) to chains of
/// caller-numbered entries (build rows, group ids); the keys stay in the
/// caller's typed columns, and the caller's key comparison decides
/// equality.
///
/// A slot is 8 bytes: the hash's upper 32 bits as a tag and the head entry
/// of a chain. Entries chain through one `next` array, each prepended to
/// its chain, so a chain lists its entries in descending insertion order.
/// Lookup probes linearly from the hash's low bits to the first slot that
/// is empty or carries the tag. Slots are never removed, so every entry of
/// one hash sits in the chain that a later lookup of that hash finds; the
/// chain may also hold entries of other hashes with the same tag, which
/// the key comparison rejects. The slot count is a power of two at least
/// twice the entry count (load <= 0.5).
class HashTable {
 public:
  static constexpr uint32_t kEnd = 0xffffffffu;  // empty slot, end of chain

  HashTable() { Reset(0); }

  /// Empties the table and sizes it for `entries` entries.
  void Reset(size_t entries);

  /// True when `entries` entries fit within the load bound.
  bool Fits(size_t entries) const { return 2 * entries <= slots_.size(); }

  /// The slot of `hash`'s chain: the slot carrying its tag, or the empty
  /// slot that Insert would claim.
  size_t Find(uint64_t hash) const {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    size_t pos = static_cast<size_t>(hash) & mask_;
    while (slots_[pos].head != kEnd && slots_[pos].tag != tag) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }

  uint32_t head(size_t slot) const { return slots_[slot].head; }
  uint32_t next(uint32_t entry) const { return next_[entry]; }

  /// Start loading the first slot Find(hash) reads.
  void PrefetchSlot(uint64_t hash) const {
    __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
  }
  /// Start loading `entry`'s chain link.
  void PrefetchNext(uint32_t entry) const {
    __builtin_prefetch(&next_[entry]);
  }

  /// Prepends `entry` to the chain of `slot`, a Find(hash) result.
  void Insert(size_t slot, uint64_t hash, uint32_t entry) {
    if (entry >= next_.size()) next_.resize(entry + 1);
    next_[entry] = slots_[slot].head;
    slots_[slot] = Slot{static_cast<uint32_t>(hash >> 32), entry};
  }

 private:
  struct Slot {
    uint32_t tag;
    uint32_t head;
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  size_t mask_ = 0;
};

/// The build side of a hash join: the build rows' key columns, indexed by
/// their hashes. Keys match on typed payloads: two int64 keys exactly, a
/// double on either side as double (so NaN matches nothing and -0.0
/// matches 0.0), strings bytewise. A row with a NULL key, on either side,
/// matches nothing.
class JoinTable {
 public:
  /// Index the rows of `keys`, hashed by kernels::HashRows into `hashes`,
  /// in ascending row order.
  void Build(std::vector<ColumnVector> keys,
             const std::vector<uint64_t>& hashes);

  /// Append every (probe row, build row) match of the probe `keys`: probe
  /// rows ascending, and each probe row's matches in descending build-row
  /// order.
  void Probe(const std::vector<ColumnVector>& keys,
             const std::vector<uint64_t>& hashes,
             std::vector<uint32_t>* probe_rows,
             std::vector<uint32_t>* build_rows) const;

 private:
  std::vector<ColumnVector> keys_;
  HashTable table_;
};

/// Dense group ids for GROUP BY, sized by the groups it holds. Each group
/// keeps the key values of the first row that formed it, as typed key
/// columns. Keys group as EncodeRowKeyInto's bytes do (exec/engine.h):
/// NULLs form one group, keys of different physical types never share
/// one, doubles group bit for bit except that -0.0 joins 0.0, and strings
/// group bytewise.
class GroupTable {
 public:
  /// Group id of row `row` of `keys` (hashed `hash` by kernels::HashRows);
  /// a new group gets the next id and that row's key values. Every call
  /// must pass key columns of the same physical types.
  uint32_t FindOrAdd(const std::vector<ColumnVector>& keys, size_t row,
                     uint64_t hash);

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  const std::vector<ColumnVector>& keys() const { return keys_; }
  uint64_t hash(uint32_t group) const { return hashes_[group]; }

 private:
  HashTable table_;
  std::vector<uint64_t> hashes_;  // per group, to rehash on growth
  std::vector<ColumnVector> keys_;
  std::vector<PhysicalType> types_;  // of keys_
};

}  // namespace costdb
