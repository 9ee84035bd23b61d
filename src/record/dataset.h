// Dataset: an ordered collection of records with stable tuple ids and an
// associated schema. This is the unit the merge/purge methods operate on;
// it corresponds to the paper's "one sequential list of N records" formed
// by concatenating the input databases.

#ifndef MERGEPURGE_RECORD_DATASET_H_
#define MERGEPURGE_RECORD_DATASET_H_

#include <string>
#include <vector>

#include "record/record.h"
#include "record/schema.h"
#include "util/status.h"

namespace mergepurge {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}
  // Takes `records` as tuples 0..n-1, for callers that build them in
  // place (a range per worker) instead of appending one by one.
  Dataset(Schema schema, std::vector<Record> records)
      : schema_(std::move(schema)), records_(std::move(records)) {}

  const Schema& schema() const { return schema_; }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  // Appends a record and returns its tuple id (== index).
  TupleId Append(Record record);

  const Record& record(TupleId id) const { return records_[id]; }
  Record& mutable_record(TupleId id) { return records_[id]; }

  const std::vector<Record>& records() const { return records_; }

  // Concatenates another dataset (schemas must match), as in the paper's
  // first step: "we first concatenate them into one sequential list".
  // Tuple ids of `other` are shifted by the current size.
  Status Concatenate(const Dataset& other);

  void Reserve(size_t n) { records_.reserve(n); }
  void Clear() { records_.clear(); }

 private:
  Schema schema_;
  std::vector<Record> records_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_RECORD_DATASET_H_
