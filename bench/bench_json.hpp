// Output helpers shared by the bench binaries that print JSON. Bench-only:
// nothing under src/ includes this header.
#pragma once

#include <cstdio>
#include <string>

/// Indent an embedded JSON document so the output stays readable.
inline void print_indented(const std::string& json, const char* pad) {
  std::printf("%s", pad);
  for (const char c : json) {
    std::putchar(c);
    if (c == '\n') std::printf("%s", pad);
  }
}
