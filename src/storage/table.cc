#include "storage/table.h"

#include <algorithm>
#include <numeric>

#include "storage/cache.h"
#include "storage/persistent.h"

namespace costdb {

Table::Table(std::string name, std::vector<ColumnDef> columns,
             size_t row_group_size)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      row_group_size_(row_group_size) {}

Result<size_t> Table::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column_name) return i;
  }
  return Status::NotFound("no column " + column_name + " in table " + name_);
}

std::vector<LogicalType> Table::ColumnTypes() const {
  std::vector<LogicalType> types;
  types.reserve(columns_.size());
  for (const auto& c : columns_) types.push_back(c.type);
  return types;
}

void Table::ClearRows() {
  row_groups_.clear();
  num_rows_ = 0;
  seal_next_append_ = false;
  partitioning_.reset();
  clustering_key_.clear();  // the rows the claim described are gone
  if (storage_ != nullptr) storage_->DropAllRuns();
  ++layout_version_;
}

void Table::Append(const DataChunk& chunk) {
  partitioning_.reset();  // new rows are not assigned to any partition
  ++layout_version_;
  size_t offset = 0;
  const size_t total = chunk.num_rows();
  while (offset < total) {
    if (row_groups_.empty() || seal_next_append_ ||
        !row_groups_.back().resident ||
        row_groups_.back().num_rows() >= row_group_size_) {
      seal_next_append_ = false;
      RowGroup g;
      g.data = DataChunk(ColumnTypes());
      row_groups_.push_back(std::move(g));
    }
    RowGroup& group = row_groups_.back();
    const size_t old_rows = group.num_rows();
    size_t take = std::min(row_group_size_ - old_rows, total - offset);
    group.zones.resize(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      ColumnVector& column = group.data.column(c);
      const bool had_mask = column.has_nulls();
      column.AppendRange(chunk.column(c), offset, offset + take);
      // AppendRange carries the source's validity mask along even over a
      // NULL-free slice. Drop it then, so a column has a mask only when it
      // holds a NULL, and kernels keep their no-NULL fast paths.
      const auto& valid = column.validity();
      if (!had_mask && column.has_nulls() &&
          std::find(valid.begin() + old_rows, valid.end(), 0) == valid.end()) {
        column.MutableValidity().clear();
      }
      group.zones[c].Extend(column, old_rows);
    }
    offset += take;
  }
  num_rows_ += total;
  if (storage_ != nullptr) MaybeFlushAndCompact();
}

// -- Persistent tier --------------------------------------------------------

Status Table::AttachStorage(std::shared_ptr<TableStorage> storage) {
  if (storage_ != nullptr) {
    return Status::AlreadyExists("table " + name_ +
                                 " already has persistent storage");
  }
  storage_ = std::move(storage);
  return FlushMemtable();
}

size_t Table::memtable_rows() const {
  size_t rows = 0;
  for (const auto& g : row_groups_) {
    if (g.resident) rows += g.num_rows();
  }
  return rows;
}

Status Table::FlushMemtable() {
  if (storage_ == nullptr) return Status::OK();
  DataChunk pending(ColumnTypes());
  for (const auto& g : row_groups_) {
    if (g.resident) pending.Append(g.data);
  }
  if (pending.num_rows() == 0) return Status::OK();
  COSTDB_RETURN_NOT_OK(storage_->FlushRun(pending));
  row_groups_.erase(
      std::remove_if(row_groups_.begin(), row_groups_.end(),
                     [](const RowGroup& g) { return g.resident; }),
      row_groups_.end());
  RebuildColdGroups();
  partitioning_.reset();
  ++layout_version_;
  return Status::OK();
}

Result<bool> Table::CompactStorage(bool force) {
  if (storage_ == nullptr) return false;
  bool compacted = false;
  COSTDB_ASSIGN_OR_RETURN(compacted, storage_->Compact(force));
  if (compacted) {
    RebuildColdGroups();
    partitioning_.reset();
    ++layout_version_;
  }
  return compacted;
}

void Table::MaybeFlushAndCompact() {
  if (memtable_rows() < storage_->options().memtable_flush_rows) return;
  Status flushed = FlushMemtable();
  if (!flushed.ok()) {
    if (storage_error_.ok()) storage_error_ = flushed;
    return;
  }
  auto compacted = CompactStorage(/*force=*/false);
  if (!compacted.ok() && storage_error_.ok()) {
    storage_error_ = compacted.status();
  }
}

void Table::RebuildColdGroups() {
  std::vector<RowGroup> resident;
  for (auto& g : row_groups_) {
    if (g.resident) resident.push_back(std::move(g));
  }
  row_groups_.clear();
  for (ColdBlockInfo& b : storage_->ScanOrderBlocks()) {
    RowGroup g;
    g.resident = false;
    g.block_id = b.block_id;
    g.object_id = b.object_id;
    g.cold_rows = b.rows;
    g.zones = std::move(b.zones);
    row_groups_.push_back(std::move(g));
  }
  for (auto& g : resident) row_groups_.push_back(std::move(g));
}

Result<Table::RowGroupPin> Table::PinRowGroup(
    size_t group_index, const std::vector<size_t>& columns,
    BlockCacheStats* stats, BlockRun* run) const {
  if (group_index >= row_groups_.size()) {
    return Status::OutOfRange("table " + name_ + ": no row group " +
                              std::to_string(group_index));
  }
  for (size_t c : columns) {
    if (c >= columns_.size()) {
      return Status::OutOfRange("table " + name_ + ": no column " +
                                std::to_string(c));
    }
  }
  const RowGroup& group = row_groups_[group_index];
  RowGroupPin pin;
  pin.columns.assign(columns_.size(), nullptr);
  if (group.resident) {
    for (size_t c : columns) pin.columns[c] = &group.data.column(c);
    return pin;
  }
  COSTDB_ASSIGN_OR_RETURN(
      pin.hold, storage_->PinBlock(group.block_id, columns, stats, run));
  for (size_t i = 0; i < columns.size(); ++i) {
    pin.columns[columns[i]] = pin.hold[i].get();
  }
  return pin;
}

bool Table::Cached(const std::vector<size_t>& groups,
                   const std::vector<size_t>& columns) const {
  std::vector<uint64_t> block_ids;
  for (size_t g : groups) {
    if (!row_groups_[g].resident) block_ids.push_back(row_groups_[g].block_id);
  }
  return block_ids.empty() || storage_->Cached(block_ids, columns);
}

std::vector<size_t> Table::AllColumnIndices() const {
  std::vector<size_t> all(columns_.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// -- Layout operations ------------------------------------------------------

Status Table::ClusterBy(const std::string& column_name) {
  size_t col = 0;
  COSTDB_ASSIGN_OR_RETURN(col, ColumnIndex(column_name));
  // Materialize, sort row indices by the key column, rebuild groups.
  DataChunk all{ColumnTypes()};
  COSTDB_ASSIGN_OR_RETURN(all, ScanPinned());
  std::vector<uint32_t> order(all.num_rows());
  std::iota(order.begin(), order.end(), 0);
  const ColumnVector& key = all.column(col);
  switch (key.physical_type()) {
    case PhysicalType::kInt64: {
      const auto& v = key.ints();
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return v[a] < v[b]; });
      break;
    }
    case PhysicalType::kDouble: {
      const auto& v = key.doubles();
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return v[a] < v[b]; });
      break;
    }
    case PhysicalType::kString: {
      const auto& v = key.strings();
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return v[a] < v[b]; });
      break;
    }
  }
  all.Slice(order);
  // A persistent table's runs are rewritten wholesale: the sorted rows
  // re-enter through Append (auto-flushing past the memtable threshold)
  // and the old blocks are dropped.
  if (storage_ != nullptr) storage_->DropAllRuns();
  row_groups_.clear();
  num_rows_ = 0;
  Append(all);
  COSTDB_RETURN_NOT_OK(FlushMemtable());
  clustering_key_ = column_name;
  return Status::OK();
}

double Table::EstimateColumnBytes(size_t column_index) const {
  const LogicalType type = columns_[column_index].type;
  // Evicted rows: the plain column bytes the manifest recorded.
  const double cold_bytes =
      storage_ != nullptr ? storage_->ColumnBytes(column_index) : 0.0;
  size_t resident_rows = 0;
  for (const auto& g : row_groups_) {
    if (g.resident) resident_rows += g.num_rows();
  }
  if (PhysicalTypeOf(type) == PhysicalType::kString) {
    double total_len = 0.0;
    size_t n = 0;
    for (const auto& g : row_groups_) {
      if (!g.resident) continue;
      const auto& strs = g.data.column(column_index).strings();
      for (const auto& s : strs) total_len += static_cast<double>(s.size());
      n += strs.size();
    }
    double avg = n > 0 ? total_len / static_cast<double>(n) : 16.0;
    return cold_bytes +
           static_cast<double>(resident_rows) * (avg + 4.0);  // + offset word
  }
  return cold_bytes +
         static_cast<double>(resident_rows) * TypeWidthBytes(type);
}

double Table::EstimateBytes() const {
  double total = 0.0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    total += EstimateColumnBytes(c);
  }
  return total;
}

Result<double> Table::PruneFraction(const std::string& column_name,
                                    CompareOp op, const Value& constant) const {
  size_t col = 0;
  COSTDB_ASSIGN_OR_RETURN(col, ColumnIndex(column_name));
  if (row_groups_.empty()) return 0.0;
  size_t pruned = 0;
  for (const auto& g : row_groups_) {
    if (!g.zones[col].MayMatch(op, constant)) ++pruned;
  }
  return static_cast<double>(pruned) / static_cast<double>(row_groups_.size());
}

Result<DataChunk> Table::ScanPinned() const {
  DataChunk out(ColumnTypes());
  const std::vector<size_t> all = AllColumnIndices();
  for (size_t g = 0; g < row_groups_.size(); ++g) {
    RowGroupPin pin;
    COSTDB_ASSIGN_OR_RETURN(pin, PinRowGroup(g, all));
    for (size_t c : all) {
      const ColumnVector& col = pin.column(c);
      out.column(c).AppendRange(col, 0, col.size());
    }
  }
  return out;
}

DataChunk Table::Scan() const {
  return ScanPinned().ValueOr(DataChunk(ColumnTypes()));
}

}  // namespace costdb
