// Tests for the binary wire format: round-trips, size accounting, and
// rejection of malformed input.
#include <gtest/gtest.h>

#include <string>

#include "core/wire.h"
#include "test_helpers.h"

namespace groupcast::core {
namespace {

using testing::all_message_kinds;

TEST(Wire, RoundTripsEveryMessageKind) {
  for (const auto& original : all_message_kinds()) {
    const auto bytes = encode_message(original);
    const auto decoded = decode_message(bytes);
    ASSERT_EQ(decoded.index(), original.index());
    // Re-encoding must be byte-identical (canonical encoding).
    EXPECT_EQ(encode_message(decoded), bytes);
  }
}

TEST(Wire, EveryMessageKindEncodesToPinnedBytes) {
  // Golden frames, one per wire tag (1 = Advertise ... 21 = Chunk): any
  // change to a tag, a field's width or order, or the chunk padding
  // breaks a deployed peer, so the exact bytes are pinned here.
  const std::vector<std::string> golden{
      "01070000002a00000008000000",
      "0207000000e9030000",
      "030700000003000000",
      "0407000000d20700000200000001000000",
      "0507000000bb0b000004000000",
      "0607000000a40f00000df0fecaefbeadde",
      "07070000008d130000",
      "0807000000",
      "090700000002000000",
      "0a07000000",
      "0b07000000a40f00000df0fecaefbeadde030000006300000000000000",
      "0c070000000300000040000000000000000100000000000080",
      "0d07000000030000004100000000000000",
      "0e07000000030000000c000000000000004200000000000000",
      "0f0700000001",
      "10070000000400000076170000e9030000",
      "1107000000040000000400000003000000",
      // ReplicateMsg: header, record count 3, then (epoch, leader) pairs.
      "12070000000400000076170000e903000003000000"
      "01000000e903000002000000761700000400000076170000",
      "1307000000040000000400000003000000",
      "1407000000050000005f1b0000e9030000",
      // ChunkMsg: header, then its 5-byte zero-padded body.
      "15070000002a000000030000001100000015cd5b0700000000"
      "05000000020000005800000000000000"
      "0000000000",
  };
  const auto samples = all_message_kinds();
  ASSERT_EQ(samples.size(), golden.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::string hex;
    for (const auto b : encode_message(samples[i])) {
      static constexpr char kDigits[] = "0123456789abcdef";
      hex += kDigits[b >> 4];
      hex += kDigits[b & 0xF];
    }
    EXPECT_EQ(hex, golden[i]) << "wire tag " << i + 1;
  }
}

TEST(Wire, FieldValuesSurviveRoundTrip) {
  const auto bytes = encode_message(DataMsg{9, 77, 123456789ULL});
  const auto decoded = std::get<DataMsg>(decode_message(bytes));
  EXPECT_EQ(decoded.group, 9u);
  EXPECT_EQ(decoded.origin, 77u);
  EXPECT_EQ(decoded.payload_id, 123456789ULL);

  const auto adv_bytes = encode_message(AdvertiseMsg{1, 2, 3});
  const auto adv = std::get<AdvertiseMsg>(decode_message(adv_bytes));
  EXPECT_EQ(adv.group, 1u);
  EXPECT_EQ(adv.rendezvous, 2u);
  EXPECT_EQ(adv.ttl, 3u);
}

TEST(Wire, EncodedSizeMatchesActualEncoding) {
  for (const auto& body : all_message_kinds()) {
    EXPECT_EQ(encode_message(body).size(), encoded_size(body));
  }
}

TEST(Wire, ExtremeValuesRoundTrip) {
  const auto bytes = encode_message(
      DataMsg{0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFFFFFFFFFULL});
  const auto decoded = std::get<DataMsg>(decode_message(bytes));
  EXPECT_EQ(decoded.group, 0xFFFFFFFFu);
  EXPECT_EQ(decoded.payload_id, 0xFFFFFFFFFFFFFFFFULL);
}

TEST(Wire, ReliableDataPlaneFieldsSurviveRoundTrip) {
  const auto rd = std::get<ReliableDataMsg>(decode_message(
      encode_message(ReliableDataMsg{9, 77, 123456789ULL, 5, 42})));
  EXPECT_EQ(rd.group, 9u);
  EXPECT_EQ(rd.origin, 77u);
  EXPECT_EQ(rd.payload_id, 123456789ULL);
  EXPECT_EQ(rd.epoch, 5u);
  EXPECT_EQ(rd.seq, 42u);

  const auto nack = std::get<DataNackMsg>(decode_message(
      encode_message(DataNackMsg{9, 5, 100, 0x5ULL})));
  EXPECT_EQ(nack.epoch, 5u);
  EXPECT_EQ(nack.base_seq, 100u);
  EXPECT_EQ(nack.missing, 0x5ULL);

  const auto ack = std::get<DataAckMsg>(
      decode_message(encode_message(DataAckMsg{9, 5, 101})));
  EXPECT_EQ(ack.cumulative, 101u);

  const auto sync = std::get<SeqSyncMsg>(
      decode_message(encode_message(SeqSyncMsg{9, 5, 90, 102})));
  EXPECT_EQ(sync.epoch, 5u);
  EXPECT_EQ(sync.base_seq, 90u);
  EXPECT_EQ(sync.next_seq, 102u);

  for (const bool throttled : {false, true}) {
    const auto fc = std::get<FlowControlMsg>(
        decode_message(encode_message(FlowControlMsg{9, throttled})));
    EXPECT_EQ(fc.group, 9u);
    EXPECT_EQ(fc.throttled, throttled);
  }
}

TEST(Wire, ReplicationFieldsSurviveRoundTrip) {
  const auto lease = std::get<LeaseMsg>(
      decode_message(encode_message(LeaseMsg{9, 4, 77, 12})));
  EXPECT_EQ(lease.group, 9u);
  EXPECT_EQ(lease.epoch, 4u);
  EXPECT_EQ(lease.leader, 77u);
  EXPECT_EQ(lease.rendezvous, 12u);

  const auto ack = std::get<LeaseAckMsg>(
      decode_message(encode_message(LeaseAckMsg{9, 4, 6, 5})));
  EXPECT_EQ(ack.epoch, 4u);
  EXPECT_EQ(ack.head_epoch, 6u);
  EXPECT_EQ(ack.log_size, 5u);

  const auto push = std::get<ReplicateMsg>(decode_message(encode_message(
      ReplicateMsg{9, 4, 77, 12, {{1, 12}, {3, 88}, {4, 77}}})));
  EXPECT_EQ(push.leader, 77u);
  ASSERT_EQ(push.records.size(), 3u);
  EXPECT_EQ(push.records[1], (LeaseRecord{3, 88}));

  const auto empty_push = std::get<ReplicateMsg>(
      decode_message(encode_message(ReplicateMsg{9, 1, 12, 12, {}})));
  EXPECT_TRUE(empty_push.records.empty());

  const auto handoff = std::get<HandoffMsg>(
      decode_message(encode_message(HandoffMsg{9, 5, 88, 12})));
  EXPECT_EQ(handoff.epoch, 5u);
  EXPECT_EQ(handoff.candidate, 88u);
  EXPECT_EQ(handoff.rendezvous, 12u);
}

TEST(Wire, ChunkFieldsSurviveRoundTrip) {
  const ChunkMsg original{9, 77, 5, 123, 2'500'000, 6, 3, 456};
  const auto bytes = encode_message(original);
  // Header (tag + 5 u32 + 2 u64) plus the zero-padded body — the padding
  // is what bandwidth pacing charges, so it must be on the wire and in
  // encoded_size.
  EXPECT_EQ(bytes.size(), 41u + original.payload_bytes);
  EXPECT_EQ(encoded_size(original), bytes.size());
  const auto chunk = std::get<ChunkMsg>(decode_message(bytes));
  EXPECT_EQ(chunk.group, 9u);
  EXPECT_EQ(chunk.origin, 77u);
  EXPECT_EQ(chunk.stream, 5u);
  EXPECT_EQ(chunk.chunk_id, 123u);
  EXPECT_EQ(chunk.deadline_us, 2'500'000);
  EXPECT_EQ(chunk.payload_bytes, 6u);
  EXPECT_EQ(chunk.epoch, 3u);
  EXPECT_EQ(chunk.seq, 456u);
  // Hop depth is in-memory provenance, never wire-encoded.
  EXPECT_EQ(chunk.hops, 0u);
}

TEST(Wire, RejectsOversizedChunkBody) {
  // A frame claiming a body beyond kMaxChunkBytes is garbled or hostile;
  // the decoder must reject it before trying to skip the body.  Patch
  // the length field in place (offset 25: tag + group/origin/stream/
  // chunk_id + deadline).
  auto bytes = encode_message(ChunkMsg{9, 77, 5, 123, 1000, 2, 0, 0});
  for (std::size_t i = 0; i < 4; ++i) bytes[25 + i] = 0xFF;
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsOversizedLeaseLog) {
  // The record-count bound caps what a decoder will allocate; an epoch
  // log can only grow by one record per committed handoff, so any count
  // beyond the bound is a garbled or hostile frame.
  ReplicateMsg msg{9, 1, 12, 12, {}};
  msg.records.resize(1025, LeaseRecord{1, 12});
  auto bytes = encode_message(msg);
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsNonCanonicalFlowControlFlag) {
  // The throttled byte is a canonical bool: 0 or 1 only.  A truthy 0xC8
  // would decode and re-encode differently, breaking byte-stable replay.
  auto bytes = encode_message(FlowControlMsg{9, true});
  bytes.back() = 0xC8;
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsTruncatedBuffers) {
  for (const auto& body : all_message_kinds()) {
    const auto bytes = encode_message(body);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::span<const std::uint8_t> truncated(bytes.data(), cut);
      EXPECT_THROW(decode_message(truncated), WireError)
          << "cut at " << cut << " of " << bytes.size();
    }
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto bytes = encode_message(JoinAckMsg{1});
  bytes.push_back(0x00);
  EXPECT_THROW(decode_message(bytes), WireError);
}

TEST(Wire, RejectsUnknownTag) {
  const std::vector<std::uint8_t> bogus{0xEE, 0, 0, 0, 0};
  EXPECT_THROW(decode_message(bogus), WireError);
}

TEST(Wire, LittleEndianLayoutIsStable) {
  // Protocol stability check: the byte layout must never silently change.
  const auto bytes = encode_message(JoinMsg{0x01020304u, 0x0A0B0C0Du});
  const std::vector<std::uint8_t> expected{
      0x02,                     // Tag::kJoin
      0x04, 0x03, 0x02, 0x01,   // group, little-endian
      0x0D, 0x0C, 0x0B, 0x0A};  // child, little-endian
  EXPECT_EQ(bytes, expected);
}

TEST(Wire, TransportAccountsBytes) {
  testing::SmallWorld world(8, 3);
  sim::Simulator simulator;
  util::Rng rng(1);
  Transport transport(simulator, *world.population, TransportOptions{}, rng);
  transport.send(0, 1, JoinAckMsg{1});        // 9 bytes
  transport.send(0, 1, DataMsg{1, 2, 3});     // 17 bytes
  EXPECT_EQ(transport.bytes_sent(), 26u);
  simulator.run();
}

}  // namespace
}  // namespace groupcast::core
