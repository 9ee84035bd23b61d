// validate_report — asserts a JSON document contains required key paths.
//
//   validate_report --file=report.json counters/snm.comparisons
//                   counters/closure.unions passes
//                   window:object uptime_seconds:number state:string
//
// Each positional argument is a '/'-separated path of object keys,
// optionally suffixed with ':type' (object, array, string, number, bool)
// to also assert the resolved value's JSON kind. The tool exits 0 iff
// the file parses as JSON, every path resolves, and every typed path has
// the asserted kind. Used by tools/ci.sh to validate the CLI's
// --metrics-out / --trace-out documents and the service stats responses
// end to end.
//
// Exit codes: 0 all paths present (and well-typed), 1 parse failure,
// missing path, or type mismatch, 2 usage error.

#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/fs.h"
#include "util/string_util.h"

using namespace mergepurge;

namespace {

constexpr const char* kUsage =
    "usage: validate_report --file=doc.json key/path[:type] "
    "[key/path[:type]...]\n"
    "  types: object, array, string, number, bool";

// Walks `path` ("a/b/c") through nested objects from `root`.
const JsonValue* ResolvePath(const JsonValue& root,
                             const std::string& path) {
  const JsonValue* node = &root;
  for (std::string_view key : SplitView(path, '/')) {
    if (!node->is_object()) return nullptr;
    const JsonValue* child = node->Find(key);
    if (child == nullptr) return nullptr;
    node = child;
  }
  return node;
}

// "" always matches; otherwise the value's kind must agree.
bool KindMatches(const JsonValue& value, const std::string& type) {
  if (type.empty()) return true;
  if (type == "object") return value.is_object();
  if (type == "array") return value.is_array();
  if (type == "string") return value.is_string();
  if (type == "number") return value.is_number();
  if (type == "bool") return value.kind() == JsonValue::Kind::kBool;
  return false;
}

bool KnownType(const std::string& type) {
  return type.empty() || type == "object" || type == "array" ||
         type == "string" || type == "number" || type == "bool";
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::vector<std::pair<std::string, std::string>> checks;  // path, type
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--file=", 0) == 0) {
      file = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "validate_report: unknown flag %s\n%s\n",
                   arg.c_str(), kUsage);
      return 2;
    } else {
      // Metric names contain dots but never colons, so ':' cleanly
      // separates an optional type suffix from the path.
      std::string type;
      const size_t colon = arg.rfind(':');
      if (colon != std::string::npos) {
        type = arg.substr(colon + 1);
        arg.resize(colon);
      }
      if (!KnownType(type)) {
        std::fprintf(stderr, "validate_report: unknown type '%s'\n%s\n",
                     type.c_str(), kUsage);
        return 2;
      }
      checks.emplace_back(std::move(arg), std::move(type));
    }
  }
  if (file.empty() || checks.empty()) {
    std::fprintf(stderr, "validate_report: need --file= and >= 1 path\n%s\n",
                 kUsage);
    return 2;
  }

  Result<std::string> text = ReadFileToString(file);
  if (!text.ok()) {
    std::fprintf(stderr, "validate_report: cannot open %s\n", file.c_str());
    return 1;
  }
  Result<JsonValue> doc = JsonValue::Parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "validate_report: %s: %s\n", file.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }

  int failed = 0;
  for (const auto& [path, type] : checks) {
    const JsonValue* node = ResolvePath(*doc, path);
    if (node == nullptr) {
      std::fprintf(stderr, "validate_report: %s: missing %s\n",
                   file.c_str(), path.c_str());
      ++failed;
    } else if (!KindMatches(*node, type)) {
      std::fprintf(stderr, "validate_report: %s: %s is not %s\n",
                   file.c_str(), path.c_str(), type.c_str());
      ++failed;
    }
  }
  if (failed > 0) return 1;
  std::printf("validate_report: %s: %zu paths present\n", file.c_str(),
              checks.size());
  return 0;
}
