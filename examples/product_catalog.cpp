// A second domain (paper §2.3: "We could equally as well demonstrate the
// concepts using alternative databases of different typed objects and
// correspondingly different rule sets."): deduplicating a PRODUCT CATALOG
// merged from several supplier feeds.
//
// Schema: sku, brand, model, description, price_cents. The equational
// theory is written entirely in the rule language; keys, conditioning and
// the merge policy are domain-specific. Nothing in the engine knows about
// employees.
//
//   ./build/examples/product_catalog [--products=4000]

#include <cstdio>
#include <string>
#include <vector>

#include "core/merge_purge.h"
#include "core/multipass.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "gen/error_model.h"
#include "rules/analysis/analyzer.h"
#include "rules/rule_program.h"
#include "text/normalize.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace mergepurge;

namespace {

constexpr FieldId kSku = 0;
constexpr FieldId kBrand = 1;
constexpr FieldId kModel = 2;
constexpr FieldId kDescription = 3;
constexpr FieldId kPriceCents = 4;

Schema ProductSchema() {
  return Schema({"sku", "brand", "model", "description", "price_cents"});
}

// Product equational theory: SKUs are strong identifiers when present;
// otherwise brand+model must agree closely with a corroborating
// description or price.
constexpr char kProductRules[] = R"(
merge description: prefer longest
merge sku: prefer non_empty_first

# Join only on PLAUSIBLE skus: degenerate identifiers (truncated feed
# values) would transitively merge unrelated products.
rule same-sku:
  if r1.sku == r2.sku and length(r1.sku) >= 6
  then match

rule sku-typo-brand:
  if not empty(r1.sku) and not empty(r2.sku)
  and damerau(r1.sku, r2.sku) <= 1
  and r1.brand == r2.brand and not empty(r1.brand)
  and similarity(r1.model, r2.model) >= 0.7
  then match

rule brand-model-exact:
  if r1.brand == r2.brand and not empty(r1.brand)
  and r1.model == r2.model and not empty(r1.model)
  then match

# Model NUMBERS are identifiers: a one-character model-number difference
# is a different product, so the digits must agree exactly and only the
# letter part may differ slightly (feed typos).
rule brand-model-close-description:
  if r1.brand == r2.brand and not empty(r1.brand)
  and digits(r1.model) == digits(r2.model) and not empty(digits(r1.model))
  and similarity(r1.model, r2.model) >= 0.8
  and not empty(r1.model) and not empty(r2.model)
  and similarity(r1.description, r2.description) >= 0.7
  then match

rule model-price:
  if digits(r1.model) == digits(r2.model) and not empty(digits(r1.model))
  and similarity(r1.model, r2.model) >= 0.85
  and not empty(r1.model) and not empty(r2.model)
  and r1.price_cents == r2.price_cents and not empty(r1.price_cents)
  and sounds_like(r1.brand, r2.brand)
  then match
)";

struct Catalog {
  Dataset dataset;
  GroundTruth truth;
};

// Synthesizes a catalog with duplicated, corrupted listings (different
// suppliers list the same product with typos and reformatted models).
Catalog MakeCatalog(size_t products, uint64_t seed) {
  static constexpr const char* kBrands[] = {
      "ACME",  "GLOBEX",   "INITECH", "UMBRA",   "VANDELAY",
      "HOOLI", "WAYSTAR",  "STARK",   "WONKA",   "TYRELL",
      "CYBER", "APERTURE", "MONARCH", "SIRIUS",  "OSCORP",
  };
  static constexpr const char* kLines[] = {
      "DRILL", "ROUTER", "SANDER", "SAW",    "LATHE",  "PRESS",
      "PUMP",  "VALVE",  "MOTOR",  "SENSOR", "CAMERA", "MONITOR",
  };
  Rng rng(seed);
  ErrorModel errors;
  std::vector<Record> records;
  std::vector<uint32_t> origin;

  for (size_t i = 0; i < products; ++i) {
    Record product;
    std::string brand = kBrands[rng.NextBounded(15)];
    std::string line = kLines[rng.NextBounded(12)];
    std::string model =
        line + " " + std::to_string(100 + rng.NextBounded(900)) +
        std::string(1, static_cast<char>('A' + rng.NextBounded(26)));
    product.set_field(kSku, StringPrintf("%c%c-%06llu", brand[0], line[0],
                                         static_cast<unsigned long long>(
                                             rng.NextBounded(1000000))));
    product.set_field(kBrand, brand);
    product.set_field(kModel, model);
    product.set_field(kDescription,
                      brand + " " + model + " PROFESSIONAL SERIES");
    product.set_field(kPriceCents,
                      std::to_string(999 + rng.NextBounded(200000)));

    // 0-3 extra supplier listings with feed-specific corruption.
    size_t listings = rng.NextBounded(4);
    for (size_t l = 0; l < listings; ++l) {
      Record listing = product;
      if (rng.NextBernoulli(0.3)) listing.set_field(kSku, "");
      if (!listing.field(kSku).empty() && rng.NextBernoulli(0.2)) {
        listing.set_field(kSku,
                          errors.InjectOneTypo(listing.field(kSku), &rng));
      }
      if (rng.NextBernoulli(0.4)) {
        listing.set_field(kModel,
                          errors.InjectOneTypo(listing.field(kModel), &rng));
      }
      if (rng.NextBernoulli(0.5)) {
        listing.set_field(kDescription,
                          std::string(listing.field(kBrand)) + " " +
                              std::string(listing.field(kModel)));
      }
      records.push_back(std::move(listing));
      origin.push_back(static_cast<uint32_t>(i));
    }
    records.push_back(std::move(product));
    origin.push_back(static_cast<uint32_t>(i));
  }

  // Shuffle in lockstep.
  for (size_t i = records.size(); i > 1; --i) {
    size_t j = rng.NextBounded(i);
    std::swap(records[i - 1], records[j]);
    std::swap(origin[i - 1], origin[j]);
  }

  Catalog catalog;
  catalog.dataset = Dataset(ProductSchema());
  for (Record& r : records) catalog.dataset.Append(std::move(r));
  catalog.truth = GroundTruth(std::move(origin));
  return catalog;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 1;
  }
  Catalog catalog = MakeCatalog(
      static_cast<size_t>(args.GetInt("products", 4000)), 77);
  std::printf("catalog: %zu listings, %llu true duplicate pairs\n",
              catalog.dataset.size(),
              static_cast<unsigned long long>(
                  catalog.truth.NumTruePairs()));

  // Domain conditioning: normalize the text fields.
  for (size_t t = 0; t < catalog.dataset.size(); ++t) {
    Record& r = catalog.dataset.mutable_record(static_cast<TupleId>(t));
    for (FieldId f : {kSku, kBrand, kModel, kDescription}) {
      r.set_field(f, NormalizeBasic(r.field(f)));
    }
  }

  // Domain keys: sku; brand+model; model alone.
  KeySpec sku_key{"sku", {KeyComponent::Full(kSku),
                          KeyComponent::Prefix(kBrand, 4)}};
  KeySpec brand_model_key{"brand-model",
                          {KeyComponent::Full(kBrand),
                           KeyComponent::Full(kModel)}};
  KeySpec model_key{"model", {KeyComponent::Full(kModel),
                              KeyComponent::Prefix(kBrand, 3)}};

  // Static preflight of the domain theory against the domain keys: any
  // rulecheck finding — including a rule no pass can window
  // (window-coverage) — aborts before data is touched.
  AnalyzerOptions lint_options;
  lint_options.passes = {
      {"sku", {"sku", "brand"}},
      {"brand-model", {"brand", "model"}},
      {"model", {"model", "brand"}},
  };
  AnalysisReport lint = AnalyzeRuleSource(kProductRules, lint_options);
  if (!lint.empty()) {
    std::fputs(lint.ToText("<product-rules>").c_str(), stderr);
    return 1;
  }

  Result<RuleProgram> theory =
      RuleProgram::Compile(kProductRules, catalog.dataset.schema());
  if (!theory.ok()) {
    std::fprintf(stderr, "rules: %s\n", theory.status().ToString().c_str());
    return 1;
  }

  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 10);
  auto result = mp.Run(catalog.dataset,
                       {sku_key, brand_model_key, model_key}, *theory);
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"pass", "pairs", "recall"});
  for (const PassResult& pass : result->passes) {
    AccuracyReport report = EvaluatePairSet(
        pass.pairs, catalog.dataset.size(), catalog.truth);
    table.AddRow({pass.key_name, FormatCount(pass.pairs.size()),
                  FormatPercent(report.recall_percent)});
  }
  AccuracyReport multi =
      EvaluateComponents(result->component_of, catalog.truth);
  table.AddRow({"multipass+closure",
                FormatCount(result->union_pair_count),
                FormatPercent(multi.recall_percent)});
  table.Print();
  std::printf("false positives: %.2f%% of true pairs\n",
              multi.false_positive_percent);

  // Purge with the rule program's merge directives.
  Result<Dataset> purged = theory->purge_policy().Purge(
      catalog.dataset, result->component_of);
  if (!purged.ok()) {
    std::fprintf(stderr, "%s\n", purged.status().ToString().c_str());
    return 1;
  }
  std::printf("catalog: %zu listings -> %zu distinct products\n",
              catalog.dataset.size(), purged->size());
  return 0;
}
