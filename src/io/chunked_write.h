// Writes a file of n rows whose text is formatted in parallel: the rows
// are cut into chunks of kParallelGrain, each chunk is formatted into its
// own buffer on the pool (util/thread_pool.h), and the buffers are
// written in chunk order, so the file is byte-identical to a serial
// write. The batch run's CSV outputs, entity mapping and pair files go
// through it. Not durable: util/fs.h's WriteFileDurable is for files that
// must survive a crash.

#ifndef MERGEPURGE_IO_CHUNKED_WRITE_H_
#define MERGEPURGE_IO_CHUNKED_WRITE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace mergepurge {

// Appends the text of rows [begin, end) to *out.
using RowFormatter =
    std::function<void(size_t begin, size_t end, std::string* out)>;

// Creates or truncates `path` and writes `header`, then rows [0, n)
// formatted by `format`. IoError when the file cannot be opened or a
// write fails.
Status WriteRowsInChunks(const std::string& path, std::string_view header,
                         size_t n, const RowFormatter& format);

}  // namespace mergepurge

#endif  // MERGEPURGE_IO_CHUNKED_WRITE_H_
