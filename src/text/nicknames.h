// Nickname / name-equivalence table (paper §3.2): "A nicknames database or
// name equivalence database is used to assign a common name to records
// containing identified nicknames" — e.g. Joseph and Giuseppe are the same
// name in English and Italian; Bob is a diminutive of Robert.
//
// Canonicalize() maps any known variant to the canonical form; names not in
// the table pass through unchanged. The table is case-insensitive and works
// on normalized (upper-case) names as produced by NormalizeName().

#ifndef MERGEPURGE_TEXT_NICKNAMES_H_
#define MERGEPURGE_TEXT_NICKNAMES_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mergepurge {

class NicknameTable {
 public:
  // Builds the built-in table of common English nicknames and
  // cross-language equivalents.
  static const NicknameTable& Default();

  NicknameTable() = default;

  // Registers `variant` as mapping to `canonical`. Both are stored
  // upper-cased. Re-registering a variant overwrites the old mapping.
  void AddVariant(std::string_view canonical, std::string_view variant);

  // Registers canonical plus each of its variants.
  void AddGroup(std::string_view canonical,
                const std::vector<std::string_view>& variants);

  // Returns the canonical form of `name`, or `name` itself (upper-cased)
  // when unknown.
  std::string Canonicalize(std::string_view name) const;

  size_t size() const { return variant_to_canonical_.size(); }

 private:
  std::unordered_map<std::string, std::string> variant_to_canonical_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_NICKNAMES_H_
