#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>

#include "obs/qlog.h"

namespace wira::obs {

namespace {

/// Crash-dump header magic: "WFRD" in little-endian byte order.
constexpr uint32_t kCrashMagic = 0x44524657;
constexpr uint32_t kCrashVersion = 1;
/// Sanity bound when reading a crash dump back: no vantage legitimately
/// retains more slots than this (guards allocation on a corrupt file).
constexpr uint64_t kMaxDumpSlots = 1u << 20;

/// write(2) loop — async-signal-safe (no stdio, no allocation).
bool write_fd_all(int fd, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<size_t>(w);
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Merges two individually time-ordered slot sequences into one
/// time-ordered list (qlog consumers require non-decreasing time).  Both
/// inputs are subsequences of one monotone event stream, so a plain
/// two-way merge restores global order.
std::vector<trace::Event> merge_slots(std::span<const trace::Event> milestones,
                                      std::span<const trace::Event> ring) {
  std::vector<trace::Event> out;
  out.reserve(milestones.size() + ring.size());
  size_t m = 0, r = 0;
  while (m < milestones.size() || r < ring.size()) {
    const bool take_milestone =
        r >= ring.size() ||
        (m < milestones.size() && milestones[m].time <= ring[r].time);
    out.push_back(take_milestone ? milestones[m++] : ring[r++]);
  }
  return out;
}

template <typename T>
bool read_pod(std::istream& in, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return static_cast<bool>(
      in.read(reinterpret_cast<char*>(out), sizeof(T)));
}

bool read_slots(std::istream& in, uint64_t n,
                std::vector<trace::Event>* out) {
  if (n > kMaxDumpSlots) return false;
  out->resize(static_cast<size_t>(n));
  for (trace::Event& s : *out) {
    if (!read_pod(in, &s)) return false;
    s.detail[sizeof(s.detail) - 1] = '\0';
  }
  return true;
}

bool read_vantage(std::istream& in, std::vector<trace::Event>* out,
                  std::string* error) {
  uint64_t counts[2] = {0, 0};
  if (!read_pod(in, &counts)) {
    *error = "truncated crash dump (vantage header)";
    return false;
  }
  std::vector<trace::Event> milestones, ring;
  if (!read_slots(in, counts[0], &milestones) ||
      !read_slots(in, counts[1], &ring)) {
    *error = "truncated crash dump (event slots)";
    return false;
  }
  *out = merge_slots(milestones, ring);
  return true;
}

}  // namespace

bool recorder_milestone(trace::EventType t) {
  using trace::EventType;
  switch (t) {
    case EventType::kHandshakeEvent:
    case EventType::kInitApplied:
    case EventType::kCookieEvent:
    case EventType::kFrameComplete:
    case EventType::kRequestReceived:
    case EventType::kOriginByte:
    case EventType::kFfParsed:
    case EventType::kCornerCase:
    case EventType::kRequestSent:
    case EventType::kFirstVideoByte:
    case EventType::kStallObserved:
    case EventType::kDecodeError:
      return true;
    default:
      return false;
  }
}

VantageRecorder::VantageRecorder(const RecorderConfig& cfg) {
  milestones_.resize(std::max<size_t>(cfg.milestone_capacity, 1));
  ring_.resize(std::max<size_t>(cfg.ring_capacity, 1));
}

void VantageRecorder::store(std::vector<trace::Event>& slots,
                            std::atomic<uint64_t>& seq, size_t slot,
                            const trace::Event& e) {
  slots[slot] = e;
  // Commit: the release store is what a signal handler's acquire load
  // pairs with — slots beyond the committed count are never read.
  seq.fetch_add(1, std::memory_order_release);
}

void VantageRecorder::on_event(const trace::Event& e) {
  const size_t t = static_cast<size_t>(e.type);
  if (t < trace::kEventTypeCount) type_counts_[t]++;
  const uint64_t mc = milestone_count_.load(std::memory_order_relaxed);
  if (recorder_milestone(e.type) && mc < milestones_.size()) {
    store(milestones_, milestone_count_, static_cast<size_t>(mc), e);
    return;
  }
  // High-rate transport event — or milestone overflow, which spills here
  // so it is still recorded (just evictable).
  const uint64_t seq = ring_seq_.load(std::memory_order_relaxed);
  store(ring_, ring_seq_, static_cast<size_t>(seq % ring_.size()), e);
}

void VantageRecorder::reset() {
  milestone_count_.store(0, std::memory_order_relaxed);
  ring_seq_.store(0, std::memory_order_relaxed);
  std::memset(type_counts_, 0, sizeof(type_counts_));
}

uint64_t VantageRecorder::total_events() const {
  return milestone_count_.load(std::memory_order_relaxed) +
         ring_seq_.load(std::memory_order_relaxed);
}

uint32_t VantageRecorder::count(trace::EventType t) const {
  const size_t i = static_cast<size_t>(t);
  return i < trace::kEventTypeCount ? type_counts_[i] : 0;
}

size_t VantageRecorder::retained() const {
  const uint64_t seq = ring_seq_.load(std::memory_order_relaxed);
  return static_cast<size_t>(
      milestone_count_.load(std::memory_order_relaxed) +
      std::min<uint64_t>(seq, ring_.size()));
}

std::vector<trace::Event> VantageRecorder::snapshot() const {
  const uint64_t mc = milestone_count_.load(std::memory_order_acquire);
  const uint64_t seq = ring_seq_.load(std::memory_order_acquire);
  std::vector<trace::Event> ring;
  const uint64_t cap = ring_.size();
  const uint64_t rc = std::min(seq, cap);
  ring.reserve(static_cast<size_t>(rc));
  const uint64_t start = seq <= cap ? 0 : seq % cap;
  for (uint64_t k = 0; k < rc; ++k) {
    ring.push_back(ring_[static_cast<size_t>((start + k) % cap)]);
  }
  return merge_slots({milestones_.data(), static_cast<size_t>(mc)}, ring);
}

bool VantageRecorder::dump_raw(int fd) const {
  const uint64_t mc = milestone_count_.load(std::memory_order_acquire);
  const uint64_t seq = ring_seq_.load(std::memory_order_acquire);
  const uint64_t cap = ring_.size();
  const uint64_t rc = std::min(seq, cap);
  const uint64_t counts[2] = {mc, rc};
  if (!write_fd_all(fd, counts, sizeof(counts))) return false;
  if (!write_fd_all(fd, milestones_.data(),
                    static_cast<size_t>(mc) * sizeof(trace::Event))) {
    return false;
  }
  if (seq <= cap) {
    return write_fd_all(fd, ring_.data(),
                        static_cast<size_t>(rc) * sizeof(trace::Event));
  }
  // Wrapped ring: oldest-first is [seq % cap, cap) then [0, seq % cap).
  const size_t start = static_cast<size_t>(seq % cap);
  return write_fd_all(fd, ring_.data() + start,
                      (static_cast<size_t>(cap) - start) *
                          sizeof(trace::Event)) &&
         write_fd_all(fd, ring_.data(), start * sizeof(trace::Event));
}

void FlightRecorder::write_sqlog_pair(std::ostream& server_os,
                                      std::ostream& client_os,
                                      const std::string& name) const {
  obs::write_sqlog_pair(server_os, client_os, name, server_.snapshot(),
                        client_.snapshot());
}

bool FlightRecorder::crash_dump(int fd, uint64_t session_index,
                                uint32_t scheme) const {
  const uint32_t magic_version[2] = {kCrashMagic, kCrashVersion};
  const uint32_t scheme_pad[2] = {scheme, 0};
  return write_fd_all(fd, magic_version, sizeof(magic_version)) &&
         write_fd_all(fd, &session_index, sizeof(session_index)) &&
         write_fd_all(fd, scheme_pad, sizeof(scheme_pad)) &&
         server_.dump_raw(fd) && client_.dump_raw(fd);
}

bool FlightRecorder::read_crash_dump(std::istream& in, CrashDump* out,
                                     std::string* error) {
  uint32_t magic_version[2] = {0, 0};
  if (!read_pod(in, &magic_version)) {
    *error = "truncated crash dump (header)";
    return false;
  }
  if (magic_version[0] != kCrashMagic || magic_version[1] != kCrashVersion) {
    *error = "bad crash dump magic/version";
    return false;
  }
  uint32_t scheme_pad[2] = {0, 0};
  if (!read_pod(in, &out->session_index) || !read_pod(in, &scheme_pad)) {
    *error = "truncated crash dump (header)";
    return false;
  }
  out->scheme = scheme_pad[0];
  return read_vantage(in, &out->server_events, error) &&
         read_vantage(in, &out->client_events, error);
}

}  // namespace wira::obs
