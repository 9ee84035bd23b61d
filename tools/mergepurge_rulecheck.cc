// mergepurge_rulecheck — static analyzer for rule-language theories.
//
// Vets an equational theory before it ever touches data: symmetry,
// blank-record closure safety, unsatisfiable/tautological thresholds,
// duplicate and subsumed rules, merge-directive problems. Every lint id is
// cataloged in docs/rule_lints.md.
//
//   mergepurge_rulecheck --rules=theory.rules | --builtin-employee
//                        [--format=text|json]   (default text)
//                        [--werror]             (warnings fail the run)
//                        [--out=FILE]           (default stdout)
//                        [--passes=SPEC|none]   (window-coverage input)
//
// --passes describes the sort passes the theory will run under, for the
// window-coverage lint: semicolon-separated passes, each
// "[name:]field+field+...", e.g.
//   --passes="last-name:last_name+first_name+ssn;address:address+city"
// With --builtin-employee the paper's standard three keys are implied;
// pass --passes=none to skip the lint entirely.
//
// Exit codes: 0 theory is clean (no errors; no warnings under --werror),
// 1 findings at a failing severity, 2 usage error. Diagnostics render to
// stdout (or --out); the pass/fail verdict goes to stderr, so scripted
// callers can capture the report and still read the outcome.
//
// Findings can be silenced at the source line with
//   # rulecheck: allow(<lint-id>[, <lint-id>...])
// on the line(s) directly above the offending rule or directive.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "keys/standard_keys.h"
#include "record/schema.h"
#include "rules/analysis/analyzer.h"
#include "rules/employee_theory.h"
#include "rules/theory_loader.h"
#include "util/fs.h"
#include "util/string_util.h"

using namespace mergepurge;

namespace {

constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge_rulecheck (--rules=FILE | --builtin-employee) "
    "[--format=text|json] [--werror] [--out=FILE] [--passes=SPEC|none]";

constexpr const char* kKnownFlags[] = {
    "rules", "builtin-employee", "format", "werror", "out", "passes",
};

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge_rulecheck: %s\n%s\n", message.c_str(),
               kUsage);
  return kExitUsage;
}

// "[name:]f1+f2[;...]" -> PassKeyFields list; false on a malformed spec.
bool ParsePasses(const std::string& spec,
                 std::vector<PassKeyFields>* passes) {
  int counter = 0;
  for (std::string_view pass_text : SplitView(spec, ';')) {
    PassKeyFields pass;
    size_t colon = pass_text.find(':');
    if (colon != std::string_view::npos) {
      pass.name = std::string(pass_text.substr(0, colon));
      pass_text.remove_prefix(colon + 1);
    } else {
      pass.name = StringPrintf("pass-%d", ++counter);
    }
    for (std::string_view field : SplitView(pass_text, '+')) {
      if (!field.empty()) pass.fields.emplace_back(field);
    }
    if (pass.fields.empty()) return false;
    passes->push_back(std::move(pass));
  }
  return !passes->empty();
}

// The paper's standard three keys, reduced to field names for the
// window-coverage lint (the --builtin-employee default).
std::vector<PassKeyFields> EmployeeStandardPasses() {
  const Schema schema = employee::MakeSchema();
  std::vector<PassKeyFields> passes;
  for (const KeySpec& key : StandardThreeKeys()) {
    PassKeyFields pass;
    pass.name = key.name;
    for (const KeyComponent& component : key.components) {
      const std::string& field = schema.field_name(component.field);
      if (std::find(pass.fields.begin(), pass.fields.end(), field) ==
          pass.fields.end()) {
        pass.fields.push_back(field);
      }
    }
    passes.push_back(std::move(pass));
  }
  return passes;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) return UsageError(args.status().message());
  const std::string unknown = args.FirstUnknownFlag(kKnownFlags);
  if (!unknown.empty()) return UsageError("unknown flag --" + unknown);
  if (args.Has("rules") == args.GetBool("builtin-employee", false)) {
    return UsageError(
        "exactly one of --rules and --builtin-employee is required");
  }
  const std::string format = args.GetString("format", "text");
  if (format != "text" && format != "json") {
    return UsageError("bad --format '" + format +
                      "' (expected text or json)");
  }

  std::string source_name = kBuiltinTheoryName;
  std::string source(EmployeeRulesText());
  if (args.Has("rules")) {
    source_name = args.GetString("rules", "");
    Result<std::string> text = ReadFileToString(source_name);
    if (!text.ok()) {
      std::fprintf(stderr, "mergepurge_rulecheck: cannot open %s\n",
                   source_name.c_str());
      return kExitFindings;
    }
    source = std::move(*text);
  }

  AnalyzerOptions analyzer_options;
  const std::string passes_spec = args.GetString("passes", "");
  if (passes_spec == "none") {
    // window-coverage explicitly disabled.
  } else if (!passes_spec.empty()) {
    if (!ParsePasses(passes_spec, &analyzer_options.passes)) {
      return UsageError("bad --passes '" + passes_spec +
                        "' (expected \"[name:]field+field[;...]\" or none)");
    }
  } else if (args.GetBool("builtin-employee", false)) {
    analyzer_options.passes = EmployeeStandardPasses();
  }

  AnalysisReport report =
      AnalyzeRuleSource(source, std::move(analyzer_options));
  std::string rendered = format == "json"
                             ? report.ToJson(source_name).Dump(2) + "\n"
                             : report.ToText(source_name);

  if (args.Has("out")) {
    const std::string out_path = args.GetString("out", "");
    std::ofstream out(out_path, std::ios::trunc | std::ios::binary);
    out << rendered;
    if (!out.good()) {
      std::fprintf(stderr, "mergepurge_rulecheck: cannot write %s\n",
                   out_path.c_str());
      return kExitFindings;
    }
  } else {
    std::fputs(rendered.c_str(), stdout);
  }

  const bool failed =
      report.HasErrors() ||
      (args.GetBool("werror", false) &&
       report.CountAtSeverity(LintSeverity::kWarning) > 0);
  std::fprintf(stderr, "mergepurge_rulecheck: %s: %s\n", source_name.c_str(),
               failed ? "FAIL" : "OK");
  return failed ? kExitFindings : 0;
}
