#include "util/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ebv::util {

namespace {

/// Verbosity: EBV_LOG_LEVEL=debug|info|warn|error (or 0-3); default stays
/// warnings-and-up. Parsed exactly once, before main.
LogLevel level_from_env() {
    if (const char* v = std::getenv("EBV_LOG_LEVEL")) {
        if (!std::strcmp(v, "debug") || !std::strcmp(v, "0")) return LogLevel::kDebug;
        if (!std::strcmp(v, "info") || !std::strcmp(v, "1")) return LogLevel::kInfo;
        if (!std::strcmp(v, "warn") || !std::strcmp(v, "2")) return LogLevel::kWarn;
        if (!std::strcmp(v, "error") || !std::strcmp(v, "3")) return LogLevel::kError;
        std::fprintf(stderr, "[ebv WARN] unknown EBV_LOG_LEVEL '%s' ignored\n", v);
    }
    return LogLevel::kWarn;
}

const LogLevel g_level = level_from_env();

const char* level_name(LogLevel l) {
    switch (l) {
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO";
        case LogLevel::kWarn: return "WARN";
        case LogLevel::kError: return "ERROR";
    }
    return "?";
}
}  // namespace

void log(LogLevel level, const char* fmt, ...) {
    if (level < g_level) return;
    std::fprintf(stderr, "[ebv %s] ", level_name(level));
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
}

}  // namespace ebv::util
