// Microbenchmarks: Frame Perception — the L4 parser sits on the hot send
// path of every live stream, so its cost matters (the paper's whole
// implementation budget is ~1000 LoC inside nginx/LSQUIC).
//
// The FrameParser benchmarks report parses per second (items/s, one per
// iteration): the parser skips tag payloads and stops once FF_Size is
// known, so most stream bytes are never read and bytes/s would overstate
// it.  BM_FlvDemuxer, which reads every byte, reports bytes/s, and so do
// the two muxer benchmarks, which write every byte of one I-frame.
#include <benchmark/benchmark.h>

#include "core/frame_parser.h"
#include "media/flv.h"
#include "media/mpegts.h"
#include "media/stream_source.h"

namespace {

using namespace wira;

std::vector<uint8_t> make_stream_bytes(double iframe_kb, TimeNs tail) {
  media::StreamProfile p;
  p.stream_id = 1;
  p.iframe_mean_bytes = iframe_kb * 1000;
  media::LiveStream s(p, 99);
  std::vector<uint8_t> bytes;
  for (const auto& c : s.join_chunks(0)) {
    bytes.insert(bytes.end(), c.bytes.begin(), c.bytes.end());
  }
  for (const auto& c : s.chunks_between(0, tail)) {
    bytes.insert(bytes.end(), c.bytes.begin(), c.bytes.end());
  }
  return bytes;
}

void BM_FrameParserWholeBuffer(benchmark::State& state) {
  const auto bytes =
      make_stream_bytes(static_cast<double>(state.range(0)), seconds(1));
  for (auto _ : state) {
    core::FrameParser parser;
    auto ff = parser.feed(bytes);
    benchmark::DoNotOptimize(ff);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameParserWholeBuffer)->Arg(20)->Arg(66)->Arg(200);

void BM_FrameParserMtuChunks(benchmark::State& state) {
  const auto bytes = make_stream_bytes(66, seconds(1));
  for (auto _ : state) {
    core::FrameParser parser;
    for (size_t i = 0; i < bytes.size(); i += 1400) {
      const size_t n = std::min<size_t>(1400, bytes.size() - i);
      auto ff = parser.feed({bytes.data() + i, n});
      benchmark::DoNotOptimize(ff);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameParserMtuChunks);

void BM_FlvDemuxer(benchmark::State& state) {
  const auto bytes = make_stream_bytes(66, seconds(2));
  for (auto _ : state) {
    size_t tags = 0;
    media::FlvDemuxer demux([&](const media::FlvTag&) { tags++; });
    demux.feed(bytes);
    benchmark::DoNotOptimize(tags);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_FlvDemuxer);

// Muxes one key frame of state.range(0) KB per iteration into a buffer
// recycled across iterations, as LiveStream::mux_frame does with its pool.
template <typename Muxer>
void mux_key_frame(benchmark::State& state) {
  const media::MediaFrame f{media::TagType::kVideo, media::VideoKind::kKey,
                            static_cast<uint32_t>(state.range(0) * 1000),
                            milliseconds(40)};
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    Muxer mux(std::move(buf));
    mux.write_frame(f);
    buf = mux.take();
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}

void BM_FlvMuxFrame(benchmark::State& state) {
  mux_key_frame<media::FlvMuxer>(state);
}
BENCHMARK(BM_FlvMuxFrame)->Arg(20)->Arg(66)->Arg(200);

void BM_TsMuxFrame(benchmark::State& state) {
  mux_key_frame<media::TsMuxer>(state);
}
BENCHMARK(BM_TsMuxFrame)->Arg(20)->Arg(66)->Arg(200);

void BM_GopGeneration(benchmark::State& state) {
  media::StreamProfile p;
  media::LiveStream s(p, 3);
  uint64_t k = 0;
  for (auto _ : state) {
    auto g = s.gop(k++);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_GopGeneration);

}  // namespace

BENCHMARK_MAIN();
