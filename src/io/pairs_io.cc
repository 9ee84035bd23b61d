#include "io/pairs_io.h"

#include <charconv>
#include <cinttypes>
#include <fstream>
#include <system_error>
#include <utility>
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
  const std::vector<uint64_t>& packed = pairs.packed();
  return WriteRowsInChunks(
      path, std::string(kMagic) + "\n", packed.size(),
      [&packed](size_t begin, size_t end, std::string* out) {
        char line[32];  // Two 10-digit ids, a space and a newline.
        for (size_t i = begin; i < end; ++i) {
          char* cursor =
              std::to_chars(line, line + 11, PackedHigh(packed[i])).ptr;
          *cursor++ = ' ';
          cursor = std::to_chars(cursor, cursor + 11, PackedLow(packed[i])).ptr;
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
  std::vector<uint64_t> matches;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    // Exactly "lo hi": two decimal ids, one space, nothing after.
    const char* const end = line.data() + line.size();
    uint32_t lo = 0;
    uint32_t hi = 0;
    const auto first = std::from_chars(line.data(), end, lo);
    const bool spaced =
        first.ec == std::errc() && first.ptr != end && *first.ptr == ' ';
    const auto second = std::from_chars(spaced ? first.ptr + 1 : end, end, hi);
    if (!spaced || second.ec != std::errc() || second.ptr != end || lo >= hi) {
      return Status::ParseError(StringPrintf(
          "%s:%zu: malformed pair line", path.c_str(), line_number));
    }
    if (hi >= num_records) {
      return Status::OutOfRange(StringPrintf(
          "%s:%zu: pair references tuple id %" PRIu32 " but there are only "
          "%zu records",
          path.c_str(), line_number, hi, num_records));
    }
    matches.push_back(PackMatch(lo, hi));
  }
  return PairSet(std::move(matches));
}

}  // namespace mergepurge
