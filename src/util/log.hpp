// Minimal leveled logger for the library. Quiet by default (warnings and
// up). The level comes from the environment, parsed once before main:
// EBV_LOG_LEVEL=debug|info|warn|error (or 0-3).
#pragma once

#include <cstdarg>

namespace ebv::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// printf-style; a newline is appended.
void log(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace ebv::util

#define EBV_LOG_DEBUG(...) ::ebv::util::log(::ebv::util::LogLevel::kDebug, __VA_ARGS__)
#define EBV_LOG_INFO(...) ::ebv::util::log(::ebv::util::LogLevel::kInfo, __VA_ARGS__)
#define EBV_LOG_WARN(...) ::ebv::util::log(::ebv::util::LogLevel::kWarn, __VA_ARGS__)
#define EBV_LOG_ERROR(...) ::ebv::util::log(::ebv::util::LogLevel::kError, __VA_ARGS__)
