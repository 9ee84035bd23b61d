#include "text/phonetic.h"

#include <cctype>

namespace mergepurge {

namespace {

// Soundex digit classes; 0 means "not coded" (vowels, h, w, y).
char SoundexDigit(char c) {
  switch (std::tolower(static_cast<unsigned char>(c))) {
    case 'b':
    case 'f':
    case 'p':
    case 'v':
      return '1';
    case 'c':
    case 'g':
    case 'j':
    case 'k':
    case 'q':
    case 's':
    case 'x':
    case 'z':
      return '2';
    case 'd':
    case 't':
      return '3';
    case 'l':
      return '4';
    case 'm':
    case 'n':
      return '5';
    case 'r':
      return '6';
    default:
      return '0';
  }
}

bool IsVowel(char c) {
  switch (std::tolower(static_cast<unsigned char>(c))) {
    case 'a':
    case 'e':
    case 'i':
    case 'o':
    case 'u':
      return true;
    default:
      return false;
  }
}

// Strips non-letters and upper-cases; returns empty if no letters.
std::string LettersUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

}  // namespace

std::string Soundex(std::string_view name) {
  std::string letters = LettersUpper(name);
  if (letters.empty()) return "";

  std::string code;
  code += letters[0];
  char prev_digit = SoundexDigit(letters[0]);
  for (size_t i = 1; i < letters.size() && code.size() < 4; ++i) {
    char c = letters[i];
    char digit = SoundexDigit(c);
    char lower = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (lower == 'h' || lower == 'w') {
      // h and w are transparent: they do not reset the repeat suppression.
      continue;
    }
    if (digit != '0' && digit != prev_digit) code += digit;
    prev_digit = digit;
  }
  while (code.size() < 4) code += '0';
  return code;
}

std::string Nysiis(std::string_view name) {
  std::string s = LettersUpper(name);
  if (s.empty()) return "";

  // Initial-letter transformations.
  auto starts_with = [&s](const char* p) {
    return s.rfind(p, 0) == 0;
  };
  if (starts_with("MAC")) {
    s.replace(0, 3, "MCC");
  } else if (starts_with("KN")) {
    s.replace(0, 2, "NN");
  } else if (starts_with("K")) {
    s.replace(0, 1, "C");
  } else if (starts_with("PH") || starts_with("PF")) {
    s.replace(0, 2, "FF");
  } else if (starts_with("SCH")) {
    s.replace(0, 3, "SSS");
  }

  // Final-letter transformations.
  auto ends_with = [&s](const char* p) {
    size_t len = std::char_traits<char>::length(p);
    return s.size() >= len && s.compare(s.size() - len, len, p) == 0;
  };
  if (ends_with("EE") || ends_with("IE")) {
    s.replace(s.size() - 2, 2, "Y");
  } else if (ends_with("DT") || ends_with("RT") || ends_with("RD") ||
             ends_with("NT") || ends_with("ND")) {
    s.replace(s.size() - 2, 2, "D");
  }

  std::string key;
  key += s[0];
  char last = s[0];
  for (size_t i = 1; i < s.size(); ++i) {
    char c = s[i];
    std::string repl(1, c);
    if (IsVowel(c)) {
      if (i + 1 < s.size() && c == 'E' && s[i + 1] == 'V') {
        repl = "AF";
        ++i;  // Consume the V.
      } else {
        repl = "A";
      }
    } else if (c == 'Q') {
      repl = "G";
    } else if (c == 'Z') {
      repl = "S";
    } else if (c == 'M') {
      repl = "N";
    } else if (c == 'K') {
      repl = (i + 1 < s.size() && s[i + 1] == 'N') ? "N" : "C";
    } else if (c == 'S' && i + 2 < s.size() && s[i + 1] == 'C' &&
               s[i + 2] == 'H') {
      repl = "SSS";
      i += 2;
    } else if (c == 'P' && i + 1 < s.size() && s[i + 1] == 'H') {
      repl = "FF";
      ++i;
    } else if (c == 'H' &&
               (!IsVowel(last) ||
                (i + 1 < s.size() && !IsVowel(s[i + 1])))) {
      repl = std::string(1, last);
    } else if (c == 'W' && IsVowel(last)) {
      repl = std::string(1, last);
    }
    for (char rc : repl) {
      if (rc != key.back()) key += rc;
      last = rc;
    }
  }

  // Trailing S / AY / A cleanup.
  if (key.size() > 1 && key.back() == 'S') key.pop_back();
  if (key.size() > 2 && key.compare(key.size() - 2, 2, "AY") == 0) {
    key.replace(key.size() - 2, 2, "Y");
  }
  if (key.size() > 1 && key.back() == 'A') key.pop_back();

  if (key.size() > 6) key.resize(6);
  return key;
}

}  // namespace mergepurge
