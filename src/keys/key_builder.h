// Sort-key construction (paper §2.2 phase 1 and §2.4).
//
// "A key is defined to be a sequence of a subset of attributes, or
// substrings within the attributes, chosen from the record. For example, we
// may choose a key as the last name of the employee record, followed by the
// first non blank character of the first name sub-field followed by the
// first six digits of the social security field."
//
// A KeySpec is an ordered list of KeyComponents; KeyBuilder renders a
// record into its key string. Keys are compared as plain byte strings, so
// component order encodes priority ("attributes that appear first in the
// key have a higher priority").

#ifndef MERGEPURGE_KEYS_KEY_BUILDER_H_
#define MERGEPURGE_KEYS_KEY_BUILDER_H_

#include <string>
#include <vector>

#include "record/dataset.h"
#include "record/record.h"
#include "record/schema.h"
#include "util/status.h"

namespace mergepurge {

struct KeyComponent {
  enum class Kind {
    kFullField,      // The whole field value (variable length).
    kPrefix,         // The first `length` characters.
    kFirstNonBlank,  // The first non-space character (1 char or empty).
    kDigitPrefix,    // The first `length` digit characters.
    kSoundex,        // The field's Soundex code (4 chars, fixed width).
  };

  FieldId field = kInvalidField;
  Kind kind = Kind::kFullField;
  size_t length = 0;  // Used by kPrefix / kDigitPrefix.

  static KeyComponent Full(FieldId field) {
    return {field, Kind::kFullField, 0};
  }
  static KeyComponent Prefix(FieldId field, size_t length) {
    return {field, Kind::kPrefix, length};
  }
  static KeyComponent FirstNonBlank(FieldId field) {
    return {field, Kind::kFirstNonBlank, 0};
  }
  static KeyComponent DigitPrefix(FieldId field, size_t length) {
    return {field, Kind::kDigitPrefix, length};
  }
  // A phonetic key component: "keys should be chosen so that ... similar
  // and matching records should have nearly equal key values" (§2.2) —
  // Soundex makes the key invariant to many typographical errors in the
  // field, at the price of coarser ordering.
  static KeyComponent SoundexCode(FieldId field) {
    return {field, Kind::kSoundex, 0};
  }
};

struct KeySpec {
  std::string name;  // For experiment reports ("last-name key").
  std::vector<KeyComponent> components;

  // Returns a fixed-width variant of this spec: every kFullField component
  // becomes a kPrefix of `prefix_length`. This is the key the clustering
  // method uses ("the clustering method uses the fixed-sized key extracted
  // during its clustering phase", §3.4).
  KeySpec FixedWidth(size_t prefix_length) const;
};

class KeyBuilder {
 public:
  explicit KeyBuilder(KeySpec spec) : spec_(std::move(spec)) {}

  const KeySpec& spec() const { return spec_; }

  // Renders the key for one record. Fixed-length components are padded
  // with spaces (sorting below any letter/digit) so all keys from a spec
  // with only fixed components have equal width.
  std::string BuildKey(const Record& record) const;

  // Renders keys for every record in order, range by range on a pool of
  // AvailableCpus() threads (util/thread_pool.h). Adds the ranges' summed
  // run time, the cost on one CPU, to *busy_seconds when given.
  std::vector<std::string> BuildKeys(const Dataset& dataset,
                                     double* busy_seconds = nullptr) const;

  // Validates the spec against a schema (fields in range, lengths set).
  Status Validate(const Schema& schema) const;

 private:
  KeySpec spec_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_KEYS_KEY_BUILDER_H_
