// 64-bit FNV-1a, for tests that pin a computation's exact output to one
// recorded constant.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace ftl::test {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  /// Little-endian, so the hash does not depend on the host's byte order.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  /// The bit pattern: -0.0 and +0.0 hash differently.
  void f64(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    u64(b);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

}  // namespace ftl::test
