// Tiny command-line flag parser for the examples and benchmark harnesses.
//
// Supports `--name value` and `--name=value`; every flag is registered with a
// default and a help string, and `--help` prints the generated usage text.
// Flags registered with a "true"/"false" default are boolean and may stand
// alone (`--list-backends` == `--list-backends true`) when the next token is
// another flag or the end of the line.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cellgan::common {

/// Strict unsigned decimal: digits only (no sign, space or suffix) that fit
/// in T; `out` is untouched on failure. strtoull silently wraps negative
/// input, so unsigned flag and spec values are parsed through this instead.
template <std::unsigned_integral T>
bool parse_unsigned(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  return !text.empty() && text.find_first_not_of("0123456789") == text.npos &&
         std::from_chars(text.data(), end, out).ec == std::errc{};
}

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Register flags before parse(). Returned value is the parsed result
  /// after parse() has run; before that it holds the default.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parse argv. Returns false (after printing usage) on --help or on an
  /// unknown/malformed flag.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True when the flag was given explicitly on the command line (as opposed
  /// to holding its registered default). Lets layered configuration (e.g.
  /// core::RunSpec over a --spec file) apply only the flags the user typed.
  bool was_set(const std::string& name) const;

  void print_usage() const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    bool set = false;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;  // registration order for usage text
};

}  // namespace cellgan::common
