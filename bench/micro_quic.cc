// Microbenchmarks: QUIC wire codecs, connection-timer churn on the event
// loop, and end-to-end emulated sessions (sessions/second bounds how large
// the Monte-Carlo experiments can be).
#include <benchmark/benchmark.h>

#include "exp/session_runner.h"
#include "quic/packet.h"
#include "sim/event_loop.h"

namespace {

using namespace wira;
using namespace wira::quic;

Packet make_data_packet() {
  Packet p;
  p.type = PacketType::kOneRtt;
  p.conn_id = 7;
  p.packet_number = 12345;
  RangeSet acked;
  acked.add(100, 200);
  acked.add(250, 300);
  p.frames.emplace_back(build_ack(acked, milliseconds(1)));
  StreamFrame f;
  f.stream_id = 3;
  f.offset = 1 << 20;
  // Spans borrow; back the payload with function-static storage so the
  // returned packet stays valid for the benchmark's lifetime.
  static const std::vector<uint8_t> payload(1350, 0xCD);
  f.data = payload;
  p.frames.emplace_back(std::move(f));
  return p;
}

void BM_PacketSerialize(benchmark::State& state) {
  const Packet p = make_data_packet();
  for (auto _ : state) {
    auto bytes = serialize_packet(p);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_PacketSerialize);

void BM_PacketParse(benchmark::State& state) {
  const auto bytes = serialize_packet(make_data_packet());
  for (auto _ : state) {
    auto p = parse_packet(bytes);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_PacketParse);

void BM_HandshakeSerializeParse(benchmark::State& state) {
  HandshakeMessage chlo;
  chlo.msg_tag = kTagCHLO;
  chlo.set_str(kTagVER, "Q043");
  chlo.set(kTagSCID, std::vector<uint8_t>{0xAA, 0xBB});
  chlo.set(kTagHQST, std::vector<uint8_t>(73, 0x33));
  for (auto _ : state) {
    auto parsed = parse_handshake(serialize_handshake(chlo));
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_HandshakeSerializeParse);

// Event-loop timer churn as a busy connection sees it: 64 pending
// link-style events, each rescheduling itself after it runs, plus one
// PTO-style timer re-armed 200 ms ahead after every pop (so it never
// fires).  `rearm` is the only difference between the two variants.
template <typename Rearm>
void run_timer_churn(benchmark::State& state, Rearm rearm) {
  struct Links {
    sim::EventLoop loop;
    void depart(int i) {
      loop.schedule_in(microseconds(40 + i), [this, i] { depart(i); });
    }
  } links;
  for (int i = 0; i < 64; ++i) links.depart(i);
  sim::EventId timer =
      links.loop.schedule_in(milliseconds(200), [] {});
  for (auto _ : state) {
    links.loop.run(1);
    rearm(links.loop, timer, links.loop.now() + milliseconds(200));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel("items = events");
}

void BM_EventLoopCancelSchedule(benchmark::State& state) {
  run_timer_churn(state, [](sim::EventLoop& loop, sim::EventId& timer,
                            TimeNs when) {
    loop.cancel(timer);
    timer = loop.schedule_at(when, [] {});
  });
}
BENCHMARK(BM_EventLoopCancelSchedule);

void BM_EventLoopReschedule(benchmark::State& state) {
  run_timer_churn(state, [](sim::EventLoop& loop, sim::EventId& timer,
                            TimeNs when) {
    if (!loop.reschedule(timer, when)) timer = loop.schedule_at(when, [] {});
  });
}
BENCHMARK(BM_EventLoopReschedule);

void BM_FullSession(benchmark::State& state) {
  // One complete emulated live-streaming session (handshake, ~1 MB of
  // media, loss recovery, cookie sync) per iteration.
  uint64_t seed = 1;
  for (auto _ : state) {
    exp::SessionConfig cfg;
    cfg.path.bandwidth = mbps(12);
    cfg.path.rtt = milliseconds(60);
    cfg.path.loss_rate = 0.01;
    cfg.stream.iframe_mean_bytes = 50'000;
    cfg.seed = ++seed;
    cfg.scheme = core::Scheme::kWira;
    auto r = exp::run_session(cfg);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("one 8s live session per iteration");
}
BENCHMARK(BM_FullSession)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
