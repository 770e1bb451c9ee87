#include "src/util/format.h"

#include <cstdio>

namespace dprof {

void StringAppendV(std::string* out, const char* fmt, va_list args) {
  va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (n <= 0) {
    return;
  }
  const size_t old_size = out->size();
  out->resize(old_size + static_cast<size_t>(n) + 1);
  std::vsnprintf(&(*out)[old_size], static_cast<size_t>(n) + 1, fmt, args);
  out->resize(old_size + static_cast<size_t>(n));
}

void StringAppendF(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  StringAppendV(out, fmt, args);
  va_end(args);
}

}  // namespace dprof
