#include "text/edit_distance.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace mergepurge {

namespace {

// Full Levenshtein or OSA Damerau distance. A shorter string of at most
// 64 bytes runs Hyyrö's bit-vector recurrence (Myers 1999; Hyyrö 2003 adds
// the transposition term tr): one DP column per character of the longer
// string, in a few word operations. Only the peq entries of characters in
// either string are cleared, and only those are read. Longer strings fall
// back to the rolling-row DP.
int Distance(std::string_view a, std::string_view b, bool transpositions) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size();
  if (m == 0) return static_cast<int>(b.size());

  if (m <= 64) {
    uint64_t peq[256];
    for (char c : a) peq[static_cast<unsigned char>(c)] = 0;
    for (char c : b) peq[static_cast<unsigned char>(c)] = 0;
    for (size_t i = 0; i < m; ++i) {
      peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
    }
    const uint64_t last = uint64_t{1} << (m - 1);
    uint64_t vp = ~uint64_t{0};
    uint64_t vn = 0;
    uint64_t d0 = 0;
    uint64_t pm_prev = 0;
    int score = static_cast<int>(m);
    for (char c : b) {
      const uint64_t pm = peq[static_cast<unsigned char>(c)];
      const uint64_t tr =
          transpositions ? (((~d0) & pm) << 1) & pm_prev : uint64_t{0};
      d0 = (((pm & vp) + vp) ^ vp) | pm | vn | tr;
      uint64_t hp = vn | ~(d0 | vp);
      uint64_t hn = d0 & vp;
      score += (hp & last) ? 1 : 0;
      score -= (hn & last) ? 1 : 0;
      hp = (hp << 1) | 1;
      hn <<= 1;
      vp = hn | ~(d0 | hp);
      vn = hp & d0;
      pm_prev = pm;
    }
    return score;
  }

  // Three rolling rows over the shorter string; the oldest is only read
  // for the transposition case.
  const size_t w = m + 1;
  std::vector<int> rows(3 * w);
  int* prev2 = rows.data();
  int* prev = prev2 + w;
  int* curr = prev + w;
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= b.size(); ++i) {
    curr[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = (b[i - 1] == a[j - 1]) ? 0 : 1;
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost});
      if (transpositions && i > 1 && j > 1 && b[i - 1] == a[j - 2] &&
          b[i - 2] == a[j - 1]) {
        curr[j] = std::min(curr[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, curr);
  }
  return prev[m];
}

// The bounded contract, min(distance, max_distance + 1), or 0 for a
// negative bound. Most calls in a window scan only prove the distance
// exceeds a small bound, so a cascade of exact tests decides them before
// the kernel:
//  1. the length gap, a lower bound;
//  2. a common prefix changes neither distance, so it is stripped; an
//     empty remainder leaves the gap as the distance;
//  3. the remainders now differ in their first byte: with bound 0 that is
//     the answer, and with bound 1 only an edit of that byte (or, for OSA,
//     its swap with the next) can make them equal, checked directly;
//  4. one edit changes at most two bits of a 64-bit byte-presence mask
//     and a transposition none, so half the masks' differing bits, rounded
//     up, is a lower bound. `mask_xor(a, b)` gives the differing bits: the
//     caller's masks of the whole strings, or masks of the remainders;
//  5. only then the kernel, on the stripped strings.
template <typename MaskXor>
int Bounded(std::string_view a, std::string_view b, int max_distance,
            bool transpositions, MaskXor mask_xor) {
  if (max_distance < 0) return 0;
  if (a.size() > b.size()) std::swap(a, b);
  const size_t gap = b.size() - a.size();
  if (gap > static_cast<size_t>(max_distance)) return max_distance + 1;
  const size_t prefix =
      std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin();
  a.remove_prefix(prefix);
  b.remove_prefix(prefix);
  if (a.empty()) return static_cast<int>(gap);
  if (max_distance == 0) return 1;
  if (max_distance == 1) {
    if (gap == 1) return a == b.substr(1) ? 1 : 2;
    if (a.substr(1) == b.substr(1)) return 1;
    return transpositions && a.size() >= 2 && a[0] == b[1] && a[1] == b[0] &&
                   a.substr(2) == b.substr(2)
               ? 1
               : 2;
  }
  if ((std::popcount(mask_xor(a, b)) + 1) / 2 > max_distance) {
    return max_distance + 1;
  }
  return std::min(Distance(a, b, transpositions), max_distance + 1);
}

// The remainders' masks, computed only when the cascade reaches step 4.
uint64_t RemainderMaskXor(std::string_view a, std::string_view b) {
  return PresenceMask(a) ^ PresenceMask(b);
}

}  // namespace

uint64_t PresenceMask(std::string_view s) {
  // Two accumulators, so consecutive bytes do not wait on each other.
  uint64_t even = 0;
  uint64_t odd = 0;
  size_t i = 0;
  for (; i + 2 <= s.size(); i += 2) {
    even |= uint64_t{1} << (static_cast<unsigned char>(s[i]) & 63);
    odd |= uint64_t{1} << (static_cast<unsigned char>(s[i + 1]) & 63);
  }
  if (i < s.size()) even |= uint64_t{1} << (static_cast<unsigned char>(s[i]) & 63);
  return even | odd;
}

int EditDistance(std::string_view a, std::string_view b) {
  return Distance(a, b, /*transpositions=*/false);
}

int DamerauDistance(std::string_view a, std::string_view b) {
  return Distance(a, b, /*transpositions=*/true);
}

int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance) {
  return Bounded(a, b, max_distance, /*transpositions=*/false,
                 RemainderMaskXor);
}

int BoundedDamerauDistance(std::string_view a, std::string_view b,
                           int max_distance) {
  return Bounded(a, b, max_distance, /*transpositions=*/true,
                 RemainderMaskXor);
}

int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance, uint64_t mask_a, uint64_t mask_b) {
  return Bounded(a, b, max_distance, /*transpositions=*/false,
                 [mask_a, mask_b](std::string_view, std::string_view) {
                   return mask_a ^ mask_b;
                 });
}

int BoundedDamerauDistance(std::string_view a, std::string_view b,
                           int max_distance, uint64_t mask_a,
                           uint64_t mask_b) {
  return Bounded(a, b, max_distance, /*transpositions=*/true,
                 [mask_a, mask_b](std::string_view, std::string_view) {
                   return mask_a ^ mask_b;
                 });
}

double StringSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  int d = DamerauDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

}  // namespace mergepurge
