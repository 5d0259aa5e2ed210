// Differential test of the sent-packet ring against a std::map reference
// model.  Both sides replay the same seeded traffic the way
// quic::Connection drives its table: sends with pure-ACK holes, ACKs with
// gaps, packet- and time-threshold losses, and PTO probes whose crypto
// re-send adds a packet while the lost one's bytes are still in use.
// After every operation the visit order, the contents and the emptiness
// of the two must agree.
#include "quic/sent_packet_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "quic/frames.h"
#include "util/rng.h"

namespace wira::quic {
namespace {

using StreamRef = SentPacketTable::StreamRef;

struct RefPacket {
  TimeNs sent_time = 0;
  uint64_t bytes = 0;
  uint64_t delivered_at_send = 0;
  std::vector<StreamRef> refs;
  std::vector<uint8_t> crypto;
};

std::vector<StreamRef> refs_of(const SentPacketTable& t,
                               const SentPacketTable::Entry& e) {
  std::vector<StreamRef> out;
  t.for_each_stream_ref(e, [&](const StreamRef& r) { out.push_back(r); });
  return out;
}

bool same_refs(const std::vector<StreamRef>& a,
               const std::vector<StreamRef>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].stream_id != b[i].stream_id || a[i].offset != b[i].offset ||
        a[i].length != b[i].length || a[i].fin != b[i].fin) {
      return false;
    }
  }
  return true;
}

/// One table and its reference model, fed identical operations.
class Differential {
 public:
  explicit Differential(SentPacketTable::Cache& cache) : table_(cache) {}

  PacketNumber next_pn() const { return next_pn_; }
  const SentPacketTable& table() const { return table_; }
  const std::map<PacketNumber, RefPacket>& model() const { return model_; }

  /// Sends one packet at `now`: a pure ACK when !tracked (a hole), else a
  /// tracked packet with `refs` stream refs and optional crypto bytes.
  void send(TimeNs now, bool tracked, int refs,
            const std::vector<uint8_t>& crypto, Rng& rng) {
    const PacketNumber pn = next_pn_++;
    if (!tracked) return;
    RefPacket ref;
    ref.sent_time = now;
    ref.bytes = 60 + rng.below(1400);
    ref.delivered_at_send = rng.next();
    ref.crypto = crypto;
    SentPacketTable::Entry& e = table_.add(pn);
    e.sent_time = ref.sent_time;
    e.bytes = ref.bytes;
    e.rate.delivered_at_send = ref.delivered_at_send;
    e.rate.sent_time = now;
    e.crypto_data.assign(crypto.begin(), crypto.end());
    for (int i = 0; i < refs; ++i) {
      const StreamRef r{1 + rng.below(4), rng.below(1 << 20),
                        1 + rng.below(1400), rng.below(8) == 0};
      table_.add_stream_ref(r);
      ref.refs.push_back(r);
    }
    model_.emplace(pn, std::move(ref));
  }

  /// The ACK walk of Connection::handle_ack: ascending up to the largest
  /// acked, erasing each covered packet.  Returns the acked packets.
  std::vector<PacketNumber> ack(const AckFrame& frame) {
    std::vector<PacketNumber> got, want;
    for (PacketNumber pn = table_.first(); pn <= frame.largest_acked;
         pn = table_.next(pn)) {
      if (!frame.covers(pn)) continue;
      got.push_back(pn);
      table_.erase(pn);
    }
    for (auto it = model_.begin();
         it != model_.end() && it->first <= frame.largest_acked;) {
      if (frame.covers(it->first)) {
        want.push_back(it->first);
        it = model_.erase(it);
      } else {
        ++it;
      }
    }
    EXPECT_EQ(got, want);
    return got;
  }

  /// The loss walk of Connection::detect_losses: packet threshold 3 or
  /// `threshold` since the send.  Lost packets are requeued (crypto
  /// re-sent) mid-walk.  Returns the lost packets.
  std::vector<PacketNumber> detect_losses(PacketNumber largest_acked,
                                          TimeNs now, TimeNs threshold) {
    std::vector<PacketNumber> lost, want;
    TimeNs next_loss = kNoTime, want_next_loss = kNoTime;
    // The model's verdicts first: the table's walk re-sends as it goes.
    for (const auto& [pn, ref] : model_) {
      if (pn >= largest_acked) break;
      if (largest_acked - pn >= 3 || now >= ref.sent_time + threshold) {
        want.push_back(pn);
      } else if (want_next_loss == kNoTime ||
                 ref.sent_time + threshold < want_next_loss) {
        want_next_loss = ref.sent_time + threshold;
      }
    }
    for (PacketNumber pn = table_.first(); pn < largest_acked;
         pn = table_.next(pn)) {
      const SentPacketTable::Entry& e = table_.at(pn);
      const TimeNs lost_at = e.sent_time + threshold;
      if (largest_acked - pn >= 3 || now >= lost_at) {
        lost.push_back(pn);
        requeue(pn, now);
      } else if (next_loss == kNoTime || lost_at < next_loss) {
        next_loss = lost_at;
      }
    }
    EXPECT_EQ(lost, want);
    EXPECT_EQ(next_loss, want_next_loss);
    return lost;
  }

  /// Connection::requeue_lost_payload: the crypto bytes move out of the
  /// ring, the packet is erased, and the bytes go out again as a new
  /// packet, which may grow the ring or land in the erased slot.
  void requeue(PacketNumber pn, TimeNs now) {
    SentPacketTable::Entry& e = table_.at(pn);
    resend_.swap(e.crypto_data);
    table_.erase(pn);
    auto it = model_.find(pn);
    ASSERT_NE(it, model_.end());
    const std::vector<uint8_t> crypto = std::move(it->second.crypto);
    model_.erase(it);
    EXPECT_EQ(resend_, crypto);
    if (resend_.empty()) return;
    const PacketNumber resent = next_pn_++;
    SentPacketTable::Entry& r = table_.add(resent);
    r.sent_time = now;
    r.bytes = 100;
    r.crypto_data.assign(resend_.begin(), resend_.end());
    RefPacket ref;
    ref.sent_time = now;
    ref.bytes = 100;
    ref.crypto = crypto;
    model_.emplace(resent, std::move(ref));
  }

  /// Connection::on_pto's probe: the least tracked packet is requeued.
  void pto(TimeNs now) {
    ASSERT_EQ(table_.first(),
              model_.empty() ? kNoPacket : model_.begin()->first);
    if (!table_.empty()) requeue(table_.first(), now);
  }

  /// Emptiness, visit order and every field agree with the model.
  ::testing::AssertionResult agrees() const {
    if (table_.empty() != model_.empty()) {
      return ::testing::AssertionFailure()
             << "empty " << table_.empty() << " vs model " << model_.size();
    }
    auto it = model_.begin();
    for (PacketNumber pn = table_.first(); pn != kNoPacket;
         pn = table_.next(pn), ++it) {
      if (it == model_.end() || it->first != pn) {
        return ::testing::AssertionFailure() << "visit order differs at "
                                             << pn;
      }
      const SentPacketTable::Entry& e = table_.at(pn);
      const RefPacket& ref = it->second;
      if (e.sent_time != ref.sent_time || e.bytes != ref.bytes ||
          e.rate.delivered_at_send != ref.delivered_at_send ||
          e.crypto_data != ref.crypto ||
          !same_refs(refs_of(table_, e), ref.refs)) {
        return ::testing::AssertionFailure() << "contents differ at " << pn;
      }
    }
    if (it != model_.end()) {
      return ::testing::AssertionFailure() << "table stops early";
    }
    return ::testing::AssertionSuccess();
  }

 private:
  SentPacketTable table_;
  std::map<PacketNumber, RefPacket> model_;
  std::vector<uint8_t> resend_;
  PacketNumber next_pn_ = 1;
};

/// An ACK for `largest` covering random runs below it, with random gaps.
AckFrame random_ack(PacketNumber least, PacketNumber largest, Rng& rng) {
  AckFrame f;
  f.largest_acked = largest;
  PacketNumber hi = largest;
  while (true) {
    const PacketNumber run = rng.below(6);
    const PacketNumber lo = hi - std::min(run, hi - least);
    f.ranges.push_back(Range{lo, hi});
    const PacketNumber gap = 2 + rng.below(4);
    if (lo < least + gap) break;
    hi = lo - gap;
  }
  return f;
}

std::vector<uint8_t> random_bytes(Rng& rng) {
  std::vector<uint8_t> b(1 + rng.below(300));
  for (uint8_t& v : b) v = static_cast<uint8_t>(rng.next());
  return b;
}

TEST(SentPacketTable, MatchesMapModelOnRandomTraffic) {
  // One cache for every seed, so later tables run on recycled (stale)
  // storage of every size the earlier ones grew.
  SentPacketTable::Cache cache;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    Differential d(cache);
    TimeNs now = 0;
    size_t acked = 0, lost = 0, probes = 0, resends = 0;
    for (int step = 0; step < 3000; ++step) {
      now += static_cast<TimeNs>(rng.below(2'000'000));
      const uint64_t op = rng.below(100);
      const PacketNumber sent_below = d.next_pn();
      if (op < 50) {
        // Bursts, so the live span outgrows the ring now and then.
        const int burst =
            rng.below(10) == 0 ? 40 + static_cast<int>(rng.below(120)) : 1;
        for (int i = 0; i < burst; ++i) {
          const bool tracked = rng.below(4) != 0;
          d.send(now, tracked, static_cast<int>(rng.below(4)),
                 rng.below(12) == 0 ? random_bytes(rng)
                                    : std::vector<uint8_t>{},
                 rng);
        }
      } else if (op < 75) {
        if (sent_below > 1) {
          const PacketNumber largest = 1 + rng.below(sent_below - 1);
          const PacketNumber least =
              d.model().empty() ? 1
                                : std::min(largest, d.model().begin()->first);
          acked += d.ack(random_ack(least, largest, rng)).size();
        }
      } else if (op < 88) {
        if (sent_below > 1) {
          const PacketNumber largest = 1 + rng.below(sent_below - 1);
          const size_t before = d.next_pn();
          lost += d.detect_losses(
                      largest, now,
                      static_cast<TimeNs>(rng.below(20'000'000)))
                      .size();
          resends += d.next_pn() - before;
        }
      } else if (op < 96) {
        const size_t before = d.next_pn();
        if (!d.table().empty()) probes++;
        d.pto(now);
        resends += d.next_pn() - before;
      } else if (!d.model().empty()) {
        // A loss of any tracked packet, not just the least.
        auto it = d.model().begin();
        std::advance(it, rng.below(d.model().size()));
        const size_t before = d.next_pn();
        d.requeue(it->first, now);
        resends += d.next_pn() - before;
      }
      ASSERT_TRUE(d.agrees()) << "seed " << seed << " step " << step;
    }
    // The traffic exercised every path.
    EXPECT_GT(acked, 0u) << "seed " << seed;
    EXPECT_GT(lost, 0u) << "seed " << seed;
    EXPECT_GT(probes, 0u) << "seed " << seed;
    EXPECT_GT(resends, 0u) << "seed " << seed;
  }
}

TEST(SentPacketTable, CryptoResendLandsInTheLostPacketsSlot) {
  // 64 slots (the smallest ring), all tracked: the re-send of pn 1 is pn
  // 65, whose slot is pn 1's, so the bytes must be out of it first.
  SentPacketTable::Cache cache;
  Differential d(cache);
  Rng rng(7);
  const std::vector<uint8_t> chlo = random_bytes(rng);
  d.send(0, true, 0, chlo, rng);
  for (int i = 0; i < 63; ++i) d.send(1, true, 1, {}, rng);
  ASSERT_TRUE(d.agrees());
  d.pto(2);
  ASSERT_TRUE(d.agrees());
  ASSERT_EQ(d.model().count(65), 1u);
  EXPECT_EQ(d.table().at(65).crypto_data, chlo);
}

TEST(SentPacketTable, CryptoResendWhileTheRingGrows) {
  // pn 1 stays in flight and pn 2 (crypto) is lost with pns 3..64 in
  // flight: re-sending it as pn 65 spans 65 packets, so the ring grows
  // while the lost packet's bytes are being re-sent.
  SentPacketTable::Cache cache;
  Differential d(cache);
  Rng rng(8);
  const std::vector<uint8_t> rej = random_bytes(rng);
  d.send(0, true, 2, {}, rng);
  d.send(0, true, 0, rej, rng);
  for (int i = 0; i < 62; ++i) d.send(1, true, 3, {}, rng);
  ASSERT_TRUE(d.agrees());
  d.requeue(2, 2);
  ASSERT_TRUE(d.agrees());
  EXPECT_EQ(d.table().at(65).crypto_data, rej);
  EXPECT_EQ(d.table().first(), 1u);
}

TEST(SentPacketTable, PureAckHolesAreSkipped) {
  SentPacketTable::Cache cache;
  Differential d(cache);
  Rng rng(9);
  d.send(0, true, 1, {}, rng);                           // 1
  for (int i = 0; i < 200; ++i) d.send(0, false, 0, {}, rng);  // holes
  d.send(0, true, 1, {}, rng);                           // 202
  EXPECT_EQ(d.table().first(), 1u);
  EXPECT_EQ(d.table().next(1), 202u);
  EXPECT_EQ(d.table().next(202), kNoPacket);
  AckFrame ack;
  ack.largest_acked = 1;
  ack.ranges.push_back(Range{1, 1});
  d.ack(ack);
  EXPECT_EQ(d.table().first(), 202u);
  ASSERT_TRUE(d.agrees());
}

TEST(SentPacketTable, StorageIsRecycledThroughTheCache) {
  SentPacketTable::Cache cache;
  {
    SentPacketTable t(cache);
    for (PacketNumber pn = 1; pn <= 300; ++pn) {
      t.add(pn);
      t.add_stream_ref(StreamRef{3, pn * 1000, 1000, false});
    }
  }
  ASSERT_EQ(cache.spares.size(), 1u);
  EXPECT_GE(cache.spares[0].slots.size(), 300u);
  EXPECT_GE(cache.spares[0].refs.size(), 300u);
  {
    SentPacketTable t(cache);
    EXPECT_TRUE(cache.spares.empty());  // taken, not copied
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.first(), kNoPacket);
  }
  EXPECT_EQ(cache.spares.size(), 1u);
}

TEST(SentPacketTable, ReleaseParksTheRingAndForgetsEveryPacket) {
  SentPacketTable::Cache cache;
  SentPacketTable t(cache);
  for (PacketNumber pn = 1; pn <= 100; ++pn) {
    t.add(pn);
    t.add_stream_ref(StreamRef{3, pn * 1000, 1000, false});
  }
  t.release();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.first(), kNoPacket);
  ASSERT_EQ(cache.spares.size(), 1u);
  EXPECT_GE(cache.spares[0].slots.size(), 100u);
  // Still usable: a later packet grows a ring of its own.
  t.add(500).bytes = 7;
  t.add_stream_ref(StreamRef{3, 0, 10, true});
  EXPECT_EQ(t.first(), 500u);
  EXPECT_EQ(t.next(500), kNoPacket);
  EXPECT_EQ(t.at(500).bytes, 7u);
  EXPECT_EQ(refs_of(t, t.at(500)).size(), 1u);
}

}  // namespace
}  // namespace wira::quic
