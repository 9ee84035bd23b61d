#include "keys/key_builder.h"

#include <cctype>

#include "text/phonetic.h"

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace mergepurge {

KeySpec KeySpec::FixedWidth(size_t prefix_length) const {
  KeySpec out = *this;
  out.name = name + "-fixed";
  for (KeyComponent& component : out.components) {
    if (component.kind == KeyComponent::Kind::kFullField) {
      component.kind = KeyComponent::Kind::kPrefix;
      component.length = prefix_length;
    }
  }
  return out;
}

std::string KeyBuilder::BuildKey(const Record& record) const {
  std::string key;
  for (const KeyComponent& component : spec_.components) {
    std::string_view value = record.field(component.field);
    switch (component.kind) {
      case KeyComponent::Kind::kFullField:
        key.append(value);
        break;
      case KeyComponent::Kind::kPrefix: {
        std::string_view p = Prefix(value, component.length);
        key.append(p);
        key.append(component.length - p.size(), ' ');
        break;
      }
      case KeyComponent::Kind::kFirstNonBlank: {
        char c = ' ';
        for (char v : value) {
          if (v != ' ') {
            c = v;
            break;
          }
        }
        key.push_back(c);
        break;
      }
      case KeyComponent::Kind::kDigitPrefix: {
        size_t taken = 0;
        for (char v : value) {
          if (taken == component.length) break;
          if (std::isdigit(static_cast<unsigned char>(v))) {
            key.push_back(v);
            ++taken;
          }
        }
        key.append(component.length - taken, ' ');
        break;
      }
      case KeyComponent::Kind::kSoundex: {
        std::string code = Soundex(value);
        key.append(code);
        key.append(4 - code.size(), ' ');  // Codes are 4 chars or empty.
        break;
      }
    }
  }
  return key;
}

std::vector<std::string> KeyBuilder::BuildKeys(const Dataset& dataset,
                                               double* busy_seconds) const {
  std::vector<std::string> keys(dataset.size());
  const double busy = ParallelFor(
      dataset.size(), AvailableCpus(), [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          keys[t] = BuildKey(dataset.record(static_cast<TupleId>(t)));
        }
      });
  if (busy_seconds != nullptr) *busy_seconds += busy;
  return keys;
}

Status KeyBuilder::Validate(const Schema& schema) const {
  if (spec_.components.empty()) {
    return Status::InvalidArgument("key spec has no components");
  }
  for (const KeyComponent& component : spec_.components) {
    if (component.field >= schema.num_fields()) {
      return Status::InvalidArgument(StringPrintf(
          "key component references field %zu but schema has %zu fields",
          component.field, schema.num_fields()));
    }
    if ((component.kind == KeyComponent::Kind::kPrefix ||
         component.kind == KeyComponent::Kind::kDigitPrefix) &&
        component.length == 0) {
      return Status::InvalidArgument(
          "prefix key component must have length > 0");
    }
  }
  return Status::OK();
}

}  // namespace mergepurge
