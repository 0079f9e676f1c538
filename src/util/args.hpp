// Minimal command-line flag parser for the example binaries.
//
// Supports `--name value`, `--name=value`, `--flag` (boolean), and bare
// positional arguments, with typed accessors and defaults. There is no
// flag registry: a flag no accessor reads is ignored, so a misspelt or
// retired flag silently keeps its default. Malformed values of flags that
// are read fail loudly (see parse_double). `--help` support is left to
// callers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ftl::util {

/// Strict full-token numeric parses: the *entire* token must be a valid
/// number ("1e5x", "bogus", "" and out-of-range values all return nullopt).
/// Args::get uses these and aborts loudly on garbage — a mistyped
/// `--rate bogus` must never silently become 0.0.
[[nodiscard]] std::optional<double> parse_double(std::string_view token);
[[nodiscard]] std::optional<long long> parse_long_long(std::string_view token);

/// True when `token` can serve as the space-separated value of a preceding
/// flag: anything not beginning with '-', the bare "-" (stdin convention),
/// and numeric tokens such as "-5", "-0.25", or "-1e-3". Dash tokens that
/// are not numbers ("-v", "--flag") are flags in their own right and must
/// not be swallowed as values. Args pairs each flag with its value by this
/// rule.
[[nodiscard]] bool is_value_token(std::string_view token);

class Args {
 public:
  /// Parses argv; aborts with a message on malformed input (a bare `--`).
  Args(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed accessors with defaults.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] long long get(const std::string& name,
                              long long fallback) const;
  [[nodiscard]] std::size_t get(const std::string& name,
                                std::size_t fallback) const;
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;  // name -> value ("" = bare)
  std::vector<std::string> positional_;
};

}  // namespace ftl::util
