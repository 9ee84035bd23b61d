#include "eval/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "util/logging.h"
#include "util/string_util.h"

namespace mergepurge {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      status_ = Status::InvalidArgument("unexpected argument: " + arg);
      return;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      flags_.emplace_back(body, "true");
    } else {
      flags_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
    }
  }
}

std::string ArgParser::FirstUnknownFlag(
    std::span<const char* const> known) const {
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) return key;
  }
  return "";
}

bool ArgParser::Has(const std::string& name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return true;
  }
  return false;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& default_value) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return value;
  }
  return default_value;
}

int64_t ArgParser::GetInt(const std::string& name,
                          int64_t default_value) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return std::strtoll(value.c_str(), nullptr, 10);
  }
  return default_value;
}

double ArgParser::GetDouble(const std::string& name,
                            double default_value) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return std::strtod(value.c_str(), nullptr);
  }
  return default_value;
}

bool ArgParser::GetBool(const std::string& name, bool default_value) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) {
      return value == "true" || value == "1" || value == "yes";
    }
  }
  return default_value;
}

Result<size_t> WindowFlag(const ArgParser& args) {
  const int64_t window = args.GetInt("window", 10);
  if (window < 2) {
    return Status::InvalidArgument("--window must be >= 2 (got " +
                                   args.GetString("window", "") + ")");
  }
  return static_cast<size_t>(window);
}

Status ApplyLogLevelFlag(const ArgParser& args) {
  if (!args.Has("log-level")) return Status::OK();
  const std::string name = args.GetString("log-level", "");
  std::optional<LogLevel> level = ParseLogLevel(name);
  if (!level) {
    return Status::InvalidArgument(
        "bad --log-level '" + name +
        "' (expected debug, info, warning, or error)");
  }
  SetLogLevel(*level);
  return Status::OK();
}

GeneratorConfig PaperGeneratorConfig(size_t paper_num_records,
                                     double selection_rate,
                                     int max_duplicates, double scale,
                                     uint64_t seed) {
  GeneratorConfig config;
  if (scale <= 0.0) scale = 1.0;
  double scaled = static_cast<double>(paper_num_records) * scale;
  config.num_records = scaled < 100.0 ? 100 : static_cast<size_t>(scaled);
  config.duplicate_selection_rate = selection_rate;
  config.max_duplicates_per_record = max_duplicates;
  config.seed = seed;
  return config;
}

}  // namespace mergepurge
