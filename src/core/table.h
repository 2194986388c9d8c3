#ifndef IOLAP_CORE_TABLE_H_
#define IOLAP_CORE_TABLE_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "core/value.h"

namespace iolap {

/// An in-memory relation: a schema plus a vector of rows. Tables are the
/// storage substrate of the engine; the catalog owns base tables, and
/// partial query results are delivered as tables.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }

  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t i) const { return rows_[i]; }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Approximate payload size (bench_table1_batches' batch sizes).
  size_t ByteSize() const;

  /// Multi-line debug rendering (header + up to `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace iolap

#endif  // IOLAP_CORE_TABLE_H_
