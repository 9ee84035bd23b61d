#include "io/chunked_write.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "util/thread_pool.h"

namespace mergepurge {

Status WriteRowsInChunks(const std::string& path, std::string_view header,
                         size_t n, const RowFormatter& format) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  std::vector<std::string> chunks((n + kParallelGrain - 1) / kParallelGrain);
  ParallelFor(
      chunks.size(), AvailableCpus(),
      [&](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          format(c * kParallelGrain, std::min(n, (c + 1) * kParallelGrain),
                 &chunks[c]);
        }
      },
      /*grain=*/1);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const std::string& chunk : chunks) {
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace mergepurge
