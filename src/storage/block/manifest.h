#pragma once

/// Resident manifest of a table's persistent layout: which blocks exist, in
/// which leveled runs, holding which rows — the LSM-lite bookkeeping that
/// TableStorage maintains. Zone maps live here (always in RAM) so pruning
/// decisions never touch cold bytes; payloads live in the object store and
/// come back through the BlockCache.
///
/// Internal to the storage layer (ci/check_layering.py rule
/// "storage-internal"); catalog/service code sees BlockManifestSummary from
/// storage/persistent.h instead.

#include <cstdint>
#include <vector>

#include "storage/zone_map.h"

namespace costdb {
namespace block {

/// One immutable block: where its image lives in the object store, plus
/// resident metadata.
struct BlockMeta {
  uint64_t block_id = 0;  // monotonic per table, never reused — stale cache
                          // entries for compacted-away blocks are simply
                          // unreachable under their old ids
  // The storage object holding the block's image: named by the id of its
  // first block. An object holds consecutive blocks of one run back to
  // back, so its blocks' ids are consecutive too.
  uint64_t object_id = 0;
  uint64_t offset = 0;  // byte offset of the block's image in its object
  size_t rows = 0;
  double bytes = 0.0;                // encoded block file size
  std::vector<double> column_bytes;  // encoded bytes per column
  std::vector<ZoneMapEntry> zones;   // one per column
};

/// One immutable sorted run: the unit a memtable flush produces and
/// compaction consumes. Blocks within a run are in row order.
struct RunMeta {
  uint64_t run_id = 0;
  std::vector<BlockMeta> blocks;

  size_t objects() const {
    size_t n = 0;
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (i == 0 || blocks[i].object_id != blocks[i - 1].object_id) ++n;
    }
    return n;
  }
  size_t rows() const {
    size_t n = 0;
    for (const BlockMeta& b : blocks) n += b.rows;
    return n;
  }
  double bytes() const {
    double n = 0.0;
    for (const BlockMeta& b : blocks) n += b.bytes;
    return n;
  }
};

/// Leveled manifest. Age invariant (docs/STORAGE.md): rows only ever move
/// from level L to L+1 and every compaction moves ALL of level L, so runs
/// within a level are oldest-first and every run at L+1 predates every run
/// at L. Scan order is therefore deepest level first, then level-0 runs in
/// flush order — which reproduces insertion order exactly and is what makes
/// cold scans bit-identical to the RAM-resident path.
struct Manifest {
  std::vector<std::vector<RunMeta>> levels;  // levels[0] = freshest
  uint64_t next_block_id = 0;
  uint64_t next_run_id = 0;
  size_t compactions = 0;
};

}  // namespace block
}  // namespace costdb
