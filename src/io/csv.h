// CSV persistence for datasets (RFC-4180-style quoting). Used to save
// generated databases and to load externally supplied record sources.

#ifndef MERGEPURGE_IO_CSV_H_
#define MERGEPURGE_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "record/dataset.h"
#include "util/status.h"

namespace mergepurge {

// Parses one CSV record into fields. Handles quoted fields containing
// commas, doubled quotes and newlines.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

// Escapes one field for CSV output (quotes when it contains , " or space
// padding that must be preserved).
std::string EscapeCsvField(std::string_view field);

// Writes the dataset with a header row of field names; the rows are
// formatted in chunks on the pool (io/chunked_write.h).
Status WriteCsvFile(const Dataset& dataset, const std::string& path);

// Reads a CSV file whose header must match the given schema's field names.
// The file is read whole; one quote-aware pass finds where each record
// starts (a newline inside quotes belongs to its field), and the records
// are parsed in chunks on the pool. A malformed record fails the read
// with source:line of the first bad record in file order.
Result<Dataset> ReadCsvFile(const Schema& schema, const std::string& path);

// Serializes to / parses from an in-memory CSV string; ReadCsvString
// parses like ReadCsvFile.
std::string WriteCsvString(const Dataset& dataset);
Result<Dataset> ReadCsvString(const Schema& schema, std::string_view text);

}  // namespace mergepurge

#endif  // MERGEPURGE_IO_CSV_H_
