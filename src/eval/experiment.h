// Shared experiment plumbing for the benchmark harnesses: --flag=value
// parsing and the common workload descriptors used across figure benches.

#ifndef MERGEPURGE_EVAL_EXPERIMENT_H_
#define MERGEPURGE_EVAL_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen/generator.h"
#include "util/status.h"

namespace mergepurge {

// Parses "--name=value" (and bare "--name" as boolean true) arguments.
// Unknown positional arguments are an error surfaced via status().
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  const Status& status() const { return status_; }

  bool Has(const std::string& name) const;

  // The first flag given that is not in `known`, or "" when all are known
  // (tools reject unknown flags as usage errors).
  std::string FirstUnknownFlag(std::span<const char* const> known) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  Status status_;
};

// The tools' --window=N flag (default 10); below 2 is a usage error,
// "--window must be >= 2 (got N)".
Result<size_t> WindowFlag(const ArgParser& args);

// Applies the tools' --log-level=LEVEL flag when given; an unknown level
// is a usage error.
Status ApplyLogLevelFlag(const ArgParser& args);

// Builds the generator config used throughout the paper-figure benches:
// `scale` scales the paper's record counts down to laptop sizes (scale=1.0
// reproduces the paper's N).
GeneratorConfig PaperGeneratorConfig(size_t paper_num_records,
                                     double selection_rate,
                                     int max_duplicates, double scale,
                                     uint64_t seed);

}  // namespace mergepurge

#endif  // MERGEPURGE_EVAL_EXPERIMENT_H_
