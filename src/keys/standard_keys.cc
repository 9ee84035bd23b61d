#include "keys/standard_keys.h"

#include <string>

#include "record/schema.h"
#include "util/string_util.h"

namespace mergepurge {

KeySpec LastNameKey() {
  KeySpec spec;
  spec.name = "last-name";
  spec.components = {
      KeyComponent::Full(employee::kLastName),
      KeyComponent::FirstNonBlank(employee::kFirstName),
      KeyComponent::DigitPrefix(employee::kSsn, 6),
  };
  return spec;
}

KeySpec FirstNameKey() {
  KeySpec spec;
  spec.name = "first-name";
  spec.components = {
      KeyComponent::Full(employee::kFirstName),
      KeyComponent::FirstNonBlank(employee::kLastName),
      KeyComponent::DigitPrefix(employee::kSsn, 6),
  };
  return spec;
}

KeySpec AddressKey() {
  KeySpec spec;
  spec.name = "address";
  spec.components = {
      KeyComponent::Full(employee::kAddress),
      KeyComponent::Prefix(employee::kLastName, 4),
      KeyComponent::Prefix(employee::kCity, 4),
  };
  return spec;
}

std::vector<KeySpec> StandardThreeKeys() {
  return {LastNameKey(), FirstNameKey(), AddressKey()};
}

KeySpec PhoneticLastNameKey() {
  KeySpec spec;
  spec.name = "soundex-last-name";
  spec.components = {
      KeyComponent::SoundexCode(employee::kLastName),
      KeyComponent::Full(employee::kLastName),
      KeyComponent::FirstNonBlank(employee::kFirstName),
      KeyComponent::DigitPrefix(employee::kSsn, 6),
  };
  return spec;
}

Result<std::vector<KeySpec>> KeysFromNames(std::string_view names) {
  std::vector<KeySpec> keys;
  for (std::string_view name : SplitView(names, ',')) {
    if (name == "last-name") {
      keys.push_back(LastNameKey());
    } else if (name == "first-name") {
      keys.push_back(FirstNameKey());
    } else if (name == "address") {
      keys.push_back(AddressKey());
    } else if (name == "soundex-last-name") {
      keys.push_back(PhoneticLastNameKey());
    } else {
      return Status::InvalidArgument(
          "unknown key '" + std::string(name) +
          "' (expected last-name, first-name, address, soundex-last-name)");
    }
  }
  if (keys.empty()) {
    return Status::InvalidArgument("no keys given");
  }
  return keys;
}

}  // namespace mergepurge
