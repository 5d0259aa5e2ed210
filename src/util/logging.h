// Minimal leveled logger.  Off by default so benches stay quiet; tests and
// examples can raise the level to trace protocol events.
#pragma once

#include <cstdio>
#include <string>

namespace wira {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide log threshold, backed by an atomic with relaxed ordering
/// so any thread may read it: levels are advisory and a racing
/// set_log_level only affects which messages appear, never memory safety.
LogLevel log_level();
void set_log_level(LogLevel level);

void log_write(LogLevel level, const char* tag, const std::string& msg);

}  // namespace wira

#define WIRA_LOG(level, tag, msg)                                \
  do {                                                           \
    if (static_cast<int>(level) >=                               \
        static_cast<int>(::wira::log_level())) {                 \
      ::wira::log_write(level, tag, msg);                        \
    }                                                            \
  } while (0)

#define WIRA_TRACE(tag, msg) WIRA_LOG(::wira::LogLevel::kTrace, tag, msg)
#define WIRA_DEBUG(tag, msg) WIRA_LOG(::wira::LogLevel::kDebug, tag, msg)
#define WIRA_INFO(tag, msg) WIRA_LOG(::wira::LogLevel::kInfo, tag, msg)
#define WIRA_WARN(tag, msg) WIRA_LOG(::wira::LogLevel::kWarn, tag, msg)
