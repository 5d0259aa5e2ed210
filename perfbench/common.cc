#include "common.h"

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

namespace {

double cpu_s(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::atomic<uint64_t> g_forks{0};

void count_fork() { g_forks.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  Usage u;
  u.self_cpu_s = cpu_s(self);
  u.children_cpu_s = cpu_s(children);
  return u;
}

namespace {

/// VmHWM of /proc/<pid>/status in MB; 0 when unreadable.
double peak_rss_mb_of(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double self_peak_rss_mb() { return peak_rss_mb_of("self"); }

double children_peak_rss_mb() {
  const std::string self = std::to_string(getpid());
  std::ifstream children("/proc/self/task/" + self + "/children");
  double peak = 0;
  std::string pid;
  while (children >> pid) peak = std::max(peak, peak_rss_mb_of(pid));
  return peak;
}

size_t thread_count() {
  std::error_code ec;
  size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

uint64_t forks_so_far() {
  static const bool armed = [] {
    return pthread_atfork(count_fork, nullptr, nullptr) == 0;
  }();
  (void)armed;
  return g_forks.load(std::memory_order_relaxed);
}

void RunResult::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  detail.push_back("\"" + json_escape(key) + "\": " + buf);
}

void RunResult::note(const std::string& key, const std::string& value) {
  detail.push_back("\"" + json_escape(key) + "\": \"" + json_escape(value) +
                   "\"");
}

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
