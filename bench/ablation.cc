// Ablation studies for the design choices DESIGN.md calls out:
//
//   1. City spelling correction on/off (paper §3.2: +1.5-2.0% detected
//      duplicates from correcting the city field).
//   2. Distance function inside the equational theory (paper §2.3: edit vs
//      Damerau vs keyboard; outcomes "did not vary much").
//   3. Nickname table on/off.
//   4. Phonetic gate on/off (tighter theory).
//   Theory variants are rewrites of the built-in rule text
//   (EmployeeRulesText()), compiled like any rules file.
//   5. Window-vs-passes tradeoff at an equal comparison budget (1 key with
//      w=3k vs k keys with w=w0 — the paper's core argument).
//   6. Cluster-count sweep and fixed-key prefix length for the clustering
//      method.
//
//   ./build/bench/ablation [--scale=1.0] [--seed=42]
//   (scale multiplies the default 8,000-original database)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/merge_purge.h"
#include "core/multipass.h"
#include "core/sort_merge_detector.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "text/normalize.h"

using namespace mergepurge;

namespace {

struct Workload {
  Dataset raw;        // Unconditioned (for the engine's conditioning path).
  Dataset dataset;    // Conditioned.
  GroundTruth truth;
};

Workload MakeWorkload(double scale, uint64_t seed) {
  GeneratorConfig config = PaperGeneratorConfig(8000, 0.5, 5, scale, seed);
  auto db = DatabaseGenerator(config).Generate();
  if (!db.ok()) {
    std::fprintf(stderr, "generate: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  Workload w;
  w.raw = db->dataset;
  w.dataset = std::move(db->dataset);
  w.truth = std::move(db->truth);
  ConditionEmployeeDataset(&w.dataset);
  return w;
}

// --- Theory variants: rewrites of the built-in rule text. ---

std::string ReplaceAll(std::string text, std::string_view from,
                       std::string_view to) {
  for (size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

RuleProgram CompileVariant(const std::string& text) {
  auto program = RuleProgram::Compile(text, employee::MakeSchema());
  if (!program.ok()) {
    std::fprintf(stderr, "variant: %s\n", program.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*program);
}

// Cities must be equal instead of similar (the aggregate score keeps its
// city similarity).
std::string ExactCity(std::string text) {
  return ReplaceAll(std::move(text), "similarity(r1.city, r2.city) >= 0.80",
                    "r1.city == r2.city");
}

// `similarity` is Damerau; the variants swap in another distance
// function everywhere, aggregate score included.
std::string WithSimilarity(std::string text, std::string_view function) {
  return ReplaceAll(std::move(text), "similarity(",
                    std::string(function) + "(");
}

// Without the nickname table no two first names share a canonical name.
std::string NoNicknames(std::string text) {
  return ReplaceAll(std::move(text), "same_name(r1.first_name, r2.first_name)",
                    "r1.first_name != r1.first_name");
}

// Rules that rest on name similarity also require the surnames to sound
// alike (Soundex).
std::string PhoneticGate(std::string text) {
  for (const char* rule :
       {"ssn-names-similar", "ssn-nickname", "ssn-location-last",
        "ssn-close-names", "ssn-close-address", "paper-example-rule",
        "names-similar-address-corroborated", "nickname-last-address",
        "street-number-zip", "names-zip-address"}) {
    const std::string head = "rule " + std::string(rule) + ":\n  if ";
    text = ReplaceAll(std::move(text), head,
                      head + "sounds_like(r1.last_name, r2.last_name)\n  and ");
  }
  return text;
}

AccuracyReport RunMultipass(const Workload& w, const EquationalTheory& theory,
                            size_t window) {
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, window);
  auto result = mp.Run(w.dataset, StandardThreeKeys(), theory);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return EvaluateComponents(result->component_of, w.truth);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  Workload w = MakeWorkload(args.GetDouble("scale", 1.0),
                            static_cast<uint64_t>(args.GetInt("seed", 42)));
  std::printf("ablations on %zu records, multi-pass 3 keys\n\n",
              w.dataset.size());
  EmployeeTheory default_theory;

  // --- 1. Spell correction of the city field (engine path). ---
  // At the default error severity the theory's similarity thresholds
  // already absorb single-typo city names, so the correction shows its
  // value on a harsher workload (more, heavier typos) where corrupted
  // cities fall below the similarity threshold — the regime the paper's
  // +1.5-2.0% was measured in.
  {
    TablePrinter table(
        {"error severity", "city spell correction", "recall", "false-pos"});
    for (double severity : {1.0, 2.5}) {
      GeneratorConfig config =
          PaperGeneratorConfig(8000, 0.5, 5, args.GetDouble("scale", 1.0),
                               static_cast<uint64_t>(args.GetInt("seed", 42)));
      config.error_severity = severity;
      config.field_corruption_prob = severity > 1.0 ? 0.5 : 0.35;
      auto harsh = DatabaseGenerator(config).Generate();
      if (!harsh.ok()) return 1;
      // Exact-city theory: the matching regime in which the paper's
      // spelling correction pays off (thresholded similarity, our
      // default, already absorbs most city typos on its own).
      const RuleProgram strict_theory =
          CompileVariant(ExactCity(std::string(EmployeeRulesText())));
      for (bool on : {false, true}) {
        MergePurgeOptions options;
        options.keys = StandardThreeKeys();
        options.window = 10;
        options.spell_correct_city = on;
        auto result =
            MergePurgeEngine(options).Run(harsh->dataset, strict_theory);
        if (!result.ok()) return 1;
        AccuracyReport report =
            EvaluateComponents(result->component_of, harsh->truth);
        table.AddRow({FormatDouble(severity, 1), on ? "on" : "off",
                      FormatPercent(report.recall_percent),
                      FormatPercent(report.false_positive_percent)});
      }
    }
    std::printf(
        "1. spell-correcting the city field under exact city matching "
        "(paper: +1.5-2.0%%)\n");
    table.Print();
    std::printf("\n");
  }

  // --- 2. Distance function. ---
  {
    TablePrinter table({"distance", "recall", "false-pos"});
    const std::pair<const char*, const char*> kinds[] = {
        {"edit (Levenshtein)", "edit_similarity"},
        {"damerau", "similarity"},
        {"keyboard (typewriter)", "keyboard_similarity"},
    };
    for (const auto& [label, function] : kinds) {
      const RuleProgram theory = CompileVariant(
          WithSimilarity(std::string(EmployeeRulesText()), function));
      AccuracyReport report = RunMultipass(w, theory, 10);
      table.AddRow({label, FormatPercent(report.recall_percent),
                    FormatPercent(report.false_positive_percent)});
    }
    std::printf("2. distance function (paper: outcome varies little)\n");
    table.Print();
    std::printf("\n");
  }

  // --- 3 + 4. Nickname table and phonetic gate. ---
  {
    TablePrinter table({"variant", "recall", "false-pos"});
    struct Variant {
      const char* label;
      bool nicknames;
      bool gate;
    };
    for (const Variant& v :
         {Variant{"baseline", true, false},
          Variant{"no nickname table", false, false},
          Variant{"phonetic gate on", true, true}}) {
      std::string text(EmployeeRulesText());
      if (!v.nicknames) text = NoNicknames(std::move(text));
      if (v.gate) text = PhoneticGate(std::move(text));
      const RuleProgram theory = CompileVariant(text);
      AccuracyReport report = RunMultipass(w, theory, 10);
      table.AddRow({v.label, FormatPercent(report.recall_percent),
                    FormatPercent(report.false_positive_percent)});
    }
    std::printf("3/4. nickname table and phonetic gate\n");
    table.Print();
    std::printf("\n");
  }

  // --- 5. Window-vs-passes at equal comparison budget. ---
  {
    TablePrinter table({"strategy", "comparisons", "recall", "false-pos"});
    // 3 passes with w=10 cost ~3*9*N comparisons; one pass with w=28 costs
    // ~27*N: the same budget spent one way or the other.
    MultiPass mp(MultiPass::Method::kSortedNeighborhood, 10);
    auto multi = mp.Run(w.dataset, StandardThreeKeys(), default_theory);
    if (!multi.ok()) return 1;
    uint64_t multi_comparisons = 0;
    for (const PassResult& pass : multi->passes) {
      multi_comparisons += pass.comparisons;
    }
    AccuracyReport multi_report =
        EvaluateComponents(multi->component_of, w.truth);
    table.AddRow({"3 keys, w=10 (+closure)",
                  FormatCount(multi_comparisons),
                  FormatPercent(multi_report.recall_percent),
                  FormatPercent(multi_report.false_positive_percent)});

    auto single = SortedNeighborhood(28).Run(w.dataset, LastNameKey(),
                                             default_theory);
    if (!single.ok()) return 1;
    AccuracyReport single_report =
        EvaluatePairSet(single->pairs, w.dataset.size(), w.truth);
    table.AddRow({"1 key (last-name), w=28",
                  FormatCount(single->comparisons),
                  FormatPercent(single_report.recall_percent),
                  FormatPercent(single_report.false_positive_percent)});
    std::printf("5. equal comparison budget: several cheap passes vs one "
                "expensive pass\n");
    table.Print();
    std::printf("\n");
  }

  // --- 5b. Merge-phase detection (SortMergeDetector) vs classic SNM. ---
  {
    TablePrinter table({"algorithm", "window", "comparisons", "recall"});
    EmployeeTheory theory;
    for (size_t window : {5, 10}) {
      auto snm = SortedNeighborhood(window).Run(w.dataset, LastNameKey(),
                                                theory);
      auto detector = SortMergeDetector(window).Run(w.dataset,
                                                    LastNameKey(), theory);
      if (!snm.ok() || !detector.ok()) return 1;
      AccuracyReport snm_report =
          EvaluatePairSet(snm->pairs, w.dataset.size(), w.truth);
      AccuracyReport det_report =
          EvaluatePairSet(detector->pairs, w.dataset.size(), w.truth);
      table.AddRow({"classic SNM", std::to_string(window),
                    FormatCount(snm->comparisons),
                    FormatPercent(snm_report.recall_percent)});
      table.AddRow({"merge-phase detection", std::to_string(window),
                    FormatCount(detector->comparisons),
                    FormatPercent(det_report.recall_percent)});
    }
    std::printf("5b. detect during merge-sort phases ([9]/[3]) vs final "
                "window scan\n");
    table.Print();
    std::printf("\n");
  }

  // --- 6. Clustering method: cluster count and fixed-key prefix. ---
  {
    TablePrinter table({"clusters", "prefix", "recall", "avg pass time(s)"});
    EmployeeTheory theory;
    for (size_t clusters : {8, 32, 128}) {
      for (size_t prefix : {2, 3, 5}) {
        ClusteringOptions options;
        options.num_clusters = clusters;
        options.window = 10;
        options.fixed_key_prefix = prefix;
        MultiPass mp(MultiPass::Method::kClustering, 10, options);
        auto result = mp.Run(w.dataset, StandardThreeKeys(), theory);
        if (!result.ok()) return 1;
        double avg_time = 0;
        for (const PassResult& pass : result->passes) {
          avg_time += pass.total_seconds;
        }
        avg_time /= static_cast<double>(result->passes.size());
        AccuracyReport report =
            EvaluateComponents(result->component_of, w.truth);
        table.AddRow({std::to_string(clusters), std::to_string(prefix),
                      FormatPercent(report.recall_percent),
                      FormatDouble(avg_time, 3)});
      }
    }
    std::printf("6. clustering method: cluster count x fixed-key prefix\n");
    table.Print();
  }
  return 0;
}
