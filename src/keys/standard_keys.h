// The three keys of the paper's experiments (§3.3): "On the first run the
// last name was the principal field of the key. On the second run, the
// first name was the principal field, while in the last run, the street
// address was the principal field."

#ifndef MERGEPURGE_KEYS_STANDARD_KEYS_H_
#define MERGEPURGE_KEYS_STANDARD_KEYS_H_

#include <string_view>
#include <vector>

#include "keys/key_builder.h"
#include "util/status.h"

namespace mergepurge {

// Last name first, then first-name initial, then 6 SSN digits.
KeySpec LastNameKey();

// First name first, then last-name initial, then 6 SSN digits.
KeySpec FirstNameKey();

// Street address first, then last-name prefix, then city prefix.
KeySpec AddressKey();

// The three standard keys in paper order (last-name, first-name, address);
// the multi-pass experiments run one pass per entry.
std::vector<KeySpec> StandardThreeKeys();

// Extension: Soundex of the last name first — typo-invariant ordering at
// the price of coarser discrimination (ablated in bench/ablation).
KeySpec PhoneticLastNameKey();

// The tools' --keys flag: comma-separated key names (last-name,
// first-name, address, soundex-last-name), one pass each, in order.
Result<std::vector<KeySpec>> KeysFromNames(std::string_view names);

}  // namespace mergepurge

#endif  // MERGEPURGE_KEYS_STANDARD_KEYS_H_
