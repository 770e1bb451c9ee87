// printf-style formatting into std::string, for reports assembled in memory
// (audit messages, bench output) rather than written straight to stdout.

#ifndef DPROF_SRC_UTIL_FORMAT_H_
#define DPROF_SRC_UTIL_FORMAT_H_

#include <cstdarg>
#include <string>

namespace dprof {

// Appends the text formatted from `args` to `out`; no length limit.
void StringAppendV(std::string* out, const char* fmt, va_list args);

// Appends the formatted text to `out`; no length limit.
void StringAppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace dprof

#endif  // DPROF_SRC_UTIL_FORMAT_H_
