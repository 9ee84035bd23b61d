#include "io/pairs_io.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <vector>

#include "io/chunked_write.h"
#include "util/fault_injector.h"
#include "util/string_util.h"

namespace mergepurge {

namespace {
constexpr char kMagic[] = "MPP1";
}  // namespace

Status WritePairSetFile(const PairSet& pairs, const std::string& path) {
  MERGEPURGE_RETURN_NOT_OK(
      FaultInjector::Global().OnPoint(fault_points::kPairsWrite));
  const std::vector<std::pair<TupleId, TupleId>> sorted =
      pairs.ToSortedVector();
  return WriteRowsInChunks(
      path, std::string(kMagic) + "\n", sorted.size(),
      [&sorted](size_t begin, size_t end, std::string* out) {
        char line[32];  // Two 10-digit ids, a space and a newline.
        for (size_t i = begin; i < end; ++i) {
          char* cursor = std::to_chars(line, line + 11, sorted[i].first).ptr;
          *cursor++ = ' ';
          cursor = std::to_chars(cursor, cursor + 11, sorted[i].second).ptr;
          *cursor++ = '\n';
          out->append(line, cursor);
        }
      });
}

Result<PairSet> ReadPairSetFile(const std::string& path,
                                size_t num_records) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Status::ParseError(path + ": not a pair-set file");
  }
  PairSet pairs;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (std::sscanf(line.c_str(), "%" SCNu32 " %" SCNu32, &lo, &hi) != 2 ||
        lo >= hi) {
      return Status::ParseError(StringPrintf(
          "%s:%zu: malformed pair line", path.c_str(), line_number));
    }
    if (hi >= num_records) {
      return Status::OutOfRange(StringPrintf(
          "%s:%zu: pair references tuple id %" PRIu32 " but there are only "
          "%zu records",
          path.c_str(), line_number, hi, num_records));
    }
    pairs.Add(lo, hi);
  }
  return pairs;
}

}  // namespace mergepurge
