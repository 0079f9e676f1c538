#include "util/args.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"

namespace ftl::util {

std::optional<double> parse_double(std::string_view token) {
  if (token.empty()) return std::nullopt;
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  // The whole token must be consumed: "1e5x" and "bogus" are errors, not
  // truncations. Overflow to +-inf is rejected too (errno == ERANGE with an
  // infinite result); gradual underflow to a denormal/zero is accepted.
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  if (errno == ERANGE && std::isinf(v)) return std::nullopt;
  return v;
}

std::optional<long long> parse_long_long(std::string_view token) {
  if (token.empty()) return std::nullopt;
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  if (errno == ERANGE) return std::nullopt;  // silently saturating is worse
  return v;
}

namespace {

/// Aborts with a message naming the flag and the offending token; flag
/// typos and malformed values must fail loudly, never parse as 0.
[[noreturn]] void bad_flag_value(const std::string& name,
                                 const std::string& value, const char* want) {
  std::fprintf(stderr, "ftl: invalid value for flag --%s: '%s' (want %s)\n",
               name.c_str(), value.c_str(), want);
  std::abort();
}

}  // namespace

bool is_value_token(std::string_view token) {
  if (token.empty() || token[0] != '-') return true;
  if (token.size() == 1) return true;  // bare "-" (stdin convention)
  // A dash token is a value only if it parses as a complete number.
  const std::string s(token);
  char* end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

Args::Args(int argc, const char* const* argv) {
  FTL_ASSERT(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    FTL_ASSERT_MSG(!body.empty(), "bare '--' is not a valid flag");
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token exists and is not itself a flag
    // (negative numbers count as values); otherwise a boolean `--name`.
    if (i + 1 < argc && is_value_token(argv[i + 1])) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool Args::has(const std::string& name) const {
  return flags_.find(name) != flags_.end();
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  const auto v = parse_double(it->second);
  if (!v) bad_flag_value(name, it->second, "a number");
  return *v;
}

long long Args::get(const std::string& name, long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  const auto v = parse_long_long(it->second);
  if (!v) bad_flag_value(name, it->second, "an in-range integer");
  return *v;
}

std::size_t Args::get(const std::string& name, std::size_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  const auto v = parse_long_long(it->second);
  if (!v) bad_flag_value(name, it->second, "an in-range integer");
  // `--servers -5` must not wrap to ~1.8e19 and attempt a huge allocation.
  if (*v < 0) bad_flag_value(name, it->second, "a non-negative integer");
  return static_cast<std::size_t>(*v);
}

bool Args::get(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  return false;
}

}  // namespace ftl::util
