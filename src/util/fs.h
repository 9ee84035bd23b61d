// Durable filesystem primitives shared by the crash-consistent writers
// (core/checkpoint, service/wal, service/snapshot). Every function
// reports failure as a Status — a full disk or a failed fsync must
// surface to the caller, never silently yield a manifest pointing at a
// truncated file. POSIX-only by design (the toolchain targets linux).
//
// The durable-write protocol used throughout:
//   1. write `path.tmp` in full,
//   2. fsync the tmp file (data hits the platter before the name does),
//   3. rename(tmp, path)  — atomic replacement,
//   4. fsync the containing directory (the rename itself is durable).
// A reader therefore either sees the complete old file or the complete
// new one, across power loss.

#ifndef MERGEPURGE_UTIL_FS_H_
#define MERGEPURGE_UTIL_FS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mergepurge {

// mkdir -p: creates `path` and any missing parents. Existing directories
// are fine; a non-directory in the way is an IoError.
Status MakeDirs(const std::string& path);

// True iff `path` exists (any file type).
bool PathExists(const std::string& path);

// Regular-file size; IoError when absent/unstatable.
Result<uint64_t> FileSizeOf(const std::string& path);

// Entry names in `dir` (no "." / ".."), sorted ascending.
Result<std::vector<std::string>> ListDir(const std::string& dir);

// fsync an open descriptor; `what` names it in error messages.
Status FsyncFd(int fd, const std::string& what);

// Opens `path` read-only, fsyncs it, closes. Works on directories too
// (how rename durability is achieved on POSIX).
Status FsyncPath(const std::string& path);

// The whole file as bytes; IoError when it cannot be opened or read.
Result<std::string> ReadFileToString(const std::string& path);

// Truncates the file to `size` bytes (used by WAL recovery to cut a torn
// tail), then fsyncs it.
Status TruncateFile(const std::string& path, uint64_t size);

Status RemoveFile(const std::string& path);

// The full durable-write protocol above in one call: tmp + fsync +
// rename + directory fsync. Any failure removes the tmp file and returns
// the error.
Status WriteFileDurable(const std::string& path, std::string_view content);

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_FS_H_
