#include "catalog/table_stats.h"

namespace costdb {

TableStats TableStats::Analyze(const Table& table, size_t histogram_buckets) {
  TableStats stats;
  stats.row_count = static_cast<double>(table.num_rows());
  const std::vector<size_t> all_columns = table.AllColumnIndices();
  for (size_t c = 0; c < table.columns().size(); ++c) {
    const ColumnDef& def = table.columns()[c];
    ColumnStats cs;
    HyperLogLog hll;
    std::vector<double> numeric_values;
    const bool is_numeric =
        PhysicalTypeOf(def.type) != PhysicalType::kString;
    if (is_numeric) numeric_values.reserve(table.num_rows());
    double total_width = 0.0;
    bool first = true;
    // Pin each group: resident groups borrow in place, evicted groups come
    // back through the block cache. A cold-read failure skips that group —
    // stats stay usable (slightly under-counted) instead of failing ANALYZE.
    for (size_t g = 0; g < table.row_groups().size(); ++g) {
      auto pin = table.PinRowGroup(g, all_columns);
      if (!pin.ok()) continue;
      const ColumnVector& col = pin->column(c);
      for (size_t i = 0; i < col.size(); ++i) {
        switch (col.physical_type()) {
          case PhysicalType::kInt64: {
            int64_t v = col.GetInt(i);
            hll.AddInt(v);
            numeric_values.push_back(static_cast<double>(v));
            total_width += TypeWidthBytes(def.type);
            break;
          }
          case PhysicalType::kDouble: {
            double v = col.GetDouble(i);
            hll.AddDouble(v);
            numeric_values.push_back(v);
            total_width += 8.0;
            break;
          }
          case PhysicalType::kString: {
            const std::string& v = col.GetString(i);
            hll.AddString(v);
            total_width += static_cast<double>(v.size());
            break;
          }
        }
        Value v = col.GetValue(i);
        if (first) {
          cs.min = v;
          cs.max = v;
          first = false;
        } else {
          if (v < cs.min) cs.min = v;
          if (cs.max < v) cs.max = v;
        }
      }
    }
    cs.ndv = hll.Estimate();
    if (table.num_rows() > 0) {
      cs.avg_width = total_width / static_cast<double>(table.num_rows());
      // NDV can't exceed the row count; HLL noise on tiny inputs can.
      cs.ndv = std::min(cs.ndv, stats.row_count);
    }
    if (is_numeric && !numeric_values.empty()) {
      cs.histogram = EquiDepthHistogram::Build(std::move(numeric_values),
                                               histogram_buckets);
      cs.has_histogram = true;
    }
    stats.columns[def.name] = std::move(cs);
  }
  return stats;
}

}  // namespace costdb
