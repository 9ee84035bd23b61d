#include "util/fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace mergepurge {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " failed: " + path + " (" + std::strerror(errno) + ")";
}

// Directory part of `path`, or "." when it has none.
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("MakeDirs: empty path");
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    prefix = path.substr(0, slash);
    pos = slash + 1;
    if (prefix.empty()) continue;  // Leading '/' of an absolute path.
    if (mkdir(prefix.c_str(), 0777) == 0 || errno == EEXIST) {
      struct stat st;
      if (stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        return Status::IoError("MakeDirs: not a directory: " + prefix);
      }
      continue;
    }
    return Status::IoError(ErrnoMessage("mkdir", prefix));
  }
  return Status::OK();
}

bool PathExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

Result<uint64_t> FileSizeOf(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) {
    return Status::IoError(ErrnoMessage("stat", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return Status::IoError(ErrnoMessage("opendir", dir));
  std::vector<std::string> names;
  while (struct dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status FsyncFd(int fd, const std::string& what) {
  if (fsync(fd) != 0) return Status::IoError(ErrnoMessage("fsync", what));
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open for fsync", path));
  Status status = FsyncFd(fd, path);
  close(fd);
  return status;
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
  std::string data;
  char buffer[1 << 16];
  while (true) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Status::IoError(ErrnoMessage("read", path));
      close(fd);
      return status;
    }
    if (n == 0) break;
    data.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return data;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IoError(ErrnoMessage("truncate", path));
  }
  return FsyncPath(path);
}

Status RemoveFile(const std::string& path) {
  if (unlink(path.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("unlink", path));
  }
  return Status::OK();
}

Status WriteFileDurable(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("open", tmp));
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      unlink(tmp.c_str());
      return Status::IoError(ErrnoMessage("write", tmp));
    }
    written += static_cast<size_t>(n);
  }
  Status status = FsyncFd(fd, tmp);
  close(fd);
  if (!status.ok()) {
    unlink(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status rename_status = Status::IoError(ErrnoMessage("rename", tmp));
    unlink(tmp.c_str());
    return rename_status;
  }
  return FsyncPath(DirName(path));
}

}  // namespace mergepurge
