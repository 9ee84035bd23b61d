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

#include <functional>
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

  // True when both names canonicalize to the same string. Allocation-free
  // for names without lower-case letters, which is what conditioning
  // produces; mixed-case names take the Canonicalize path.
  bool SameCanonicalName(std::string_view a, std::string_view b) const;

  size_t size() const { return variant_to_canonical_.size(); }

 private:
  // Lets find() take a string_view without building a std::string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, std::string, ViewHash, std::equal_to<>>
      variant_to_canonical_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_NICKNAMES_H_
