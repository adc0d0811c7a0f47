// Wire codec tests (DESIGN.md section 11): per-kind round-trips over
// randomized contents, the golden v1 byte-layout pin, rejection of
// truncated/corrupted frames, the compression claims (delta gids, batched
// fragment framing) and a bounded decode fuzz (CI runs it under ASan/UBSan
// with CONGOS_WIRE_FUZZ_ITERS raised).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/baseline_payload.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "congos/fragment.h"
#include "gossip/continuous_gossip.h"
#include "net/framing.h"
#include "wire/compress.h"
#include "wire/envelope.h"
#include "wire/payload_codec.h"
#include "wire/wire.h"

namespace congos {
namespace {

int fuzz_iters() {
  if (const char* env = std::getenv("CONGOS_WIRE_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 256;
}

DynamicBitset rand_bits(Rng& rng, std::size_t n) {
  DynamicBitset b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) b.set(i);
  }
  return b;
}

std::vector<std::uint8_t> rand_data(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> v(rng.next_below(max_len + 1));
  if (!v.empty()) rng.fill_bytes(v.data(), v.size());
  return v;
}

sim::Rumor rand_rumor(Rng& rng) {
  sim::Rumor r;
  r.uid.source = static_cast<ProcessId>(rng.next_below(1000));
  r.uid.seq = rng.next_below(1u << 20);
  r.deadline = static_cast<Round>(rng.next_below(512));
  r.injected_at = static_cast<Round>(rng.next_below(4096));
  r.dest = rand_bits(rng, 16 + rng.next_below(120));
  r.data = rand_data(rng, 64);
  return r;
}

core::Fragment rand_fragment(Rng& rng) {
  core::Fragment f;
  f.meta.key.rumor = RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                              rng.next_below(1u << 20)};
  f.meta.key.partition = static_cast<PartitionIndex>(rng.next_below(8));
  f.meta.key.group = static_cast<GroupIndex>(rng.next_below(4));
  f.meta.dest = rand_bits(rng, 16 + rng.next_below(120));
  f.meta.expires_at = static_cast<Round>(rng.next_below(4096));
  f.meta.dline = static_cast<Round>(1 << rng.next_below(8));
  f.meta.num_groups = static_cast<GroupIndex>(2 + rng.next_below(3));
  f.data = rand_data(rng, 48);
  return f;
}

gossip::GossipRumor rand_gossip_rumor(Rng& rng, std::uint64_t gid) {
  gossip::GossipRumor r;
  r.gid = gid;
  r.origin = static_cast<ProcessId>(rng.next_below(1000));
  r.deadline_at = static_cast<Round>(rng.next_below(4096));
  r.dest = rand_bits(rng, 16 + rng.next_below(120));
  if (rng.chance(0.6)) {
    auto body = std::make_shared<core::FragmentBody>();
    body->fragment = rand_fragment(rng);
    r.body = body;
  }
  return r;
}

core::Hit rand_hit(Rng& rng) {
  core::Hit h;
  h.target = static_cast<ProcessId>(rng.next_below(1000));
  h.rumor = RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                     rng.next_below(1u << 20)};
  return h;
}

/// Random payload of the given kind (never kOpaque).
sim::PayloadPtr rand_payload(Rng& rng, sim::PayloadKind kind) {
  using sim::PayloadKind;
  switch (kind) {
    case PayloadKind::kOpaque:
      break;
    case PayloadKind::kGossipMsg: {
      auto p = std::make_shared<gossip::GossipMsg>();
      std::uint64_t gid = rng.next_below(1u << 20);
      const std::size_t k = rng.next_below(5);
      for (std::size_t i = 0; i < k; ++i) {
        p->rumors.push_back(rand_gossip_rumor(rng, gid));
        gid += 1 + rng.next_below(10);
      }
      return p;
    }
    case PayloadKind::kGossipAck: {
      auto p = std::make_shared<gossip::GossipAck>();
      // arbitrary order on purpose: ack deltas are zigzag-signed
      const std::size_t k = rng.next_below(8);
      for (std::size_t i = 0; i < k; ++i) p->gids.push_back(rng.next_below(1u << 24));
      return p;
    }
    case PayloadKind::kGossipPull:
      return std::make_shared<gossip::GossipPull>();
    case PayloadKind::kProxyRequest: {
      auto p = std::make_shared<core::ProxyRequestPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      const std::size_t k = rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) p->fragments.push_back(rand_fragment(rng));
      return p;
    }
    case PayloadKind::kProxyAck: {
      auto p = std::make_shared<core::ProxyAckPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      return p;
    }
    case PayloadKind::kPartials: {
      auto p = std::make_shared<core::PartialsPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      const std::size_t k = rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) p->fragments.push_back(rand_fragment(rng));
      return p;
    }
    case PayloadKind::kDirectRumor: {
      auto p = std::make_shared<core::DirectRumorPayload>();
      p->rumor = rand_rumor(rng);
      return p;
    }
    case PayloadKind::kPartialsAck: {
      auto p = std::make_shared<core::PartialsAckPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      return p;
    }
    case PayloadKind::kDirectAck: {
      auto p = std::make_shared<core::DirectAckPayload>();
      p->rumor = RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                          rng.next_below(1u << 20)};
      return p;
    }
    case PayloadKind::kFragment: {
      auto p = std::make_shared<core::FragmentBody>();
      p->fragment = rand_fragment(rng);
      return p;
    }
    case PayloadKind::kProxyShare: {
      auto p = std::make_shared<core::ProxyShareBody>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      p->block = rng.next_below(16);
      p->from = static_cast<ProcessId>(rng.next_below(1000));
      const std::size_t k = rng.next_below(3);
      for (std::size_t i = 0; i < k; ++i) p->proxied.push_back(rand_fragment(rng));
      const std::size_t m = rng.next_below(4);
      for (std::size_t i = 0; i < m; ++i) {
        p->failed_proxies.push_back(static_cast<ProcessId>(rng.next_below(1000)));
      }
      return p;
    }
    case PayloadKind::kHitSetShare: {
      auto p = std::make_shared<core::HitSetShareBody>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      p->block = rng.next_below(16);
      p->from = static_cast<ProcessId>(rng.next_below(1000));
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) p->hits.push_back(rand_hit(rng));
      return p;
    }
    case PayloadKind::kDistributionReport: {
      auto p = std::make_shared<core::DistributionReportBody>();
      p->reporter = static_cast<ProcessId>(rng.next_below(1000));
      p->partition = static_cast<PartitionIndex>(rng.next_below(8));
      p->group = static_cast<GroupIndex>(rng.next_below(4));
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) p->hits.push_back(rand_hit(rng));
      return p;
    }
    case PayloadKind::kBaselineRumor: {
      auto p = std::make_shared<baseline::BaselineRumorPayload>();
      p->rumor = rand_rumor(rng);
      return p;
    }
    case PayloadKind::kBaselineBatch: {
      auto p = std::make_shared<baseline::BaselineBatchPayload>();
      const std::size_t k = rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) p->rumors.push_back(rand_rumor(rng));
      return p;
    }
    case PayloadKind::kStrongAck: {
      auto p = std::make_shared<baseline::StrongAckPayload>();
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) {
        p->uids.push_back(RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                                   rng.next_below(1u << 20)});
      }
      return p;
    }
  }
  return nullptr;
}

sim::Envelope rand_envelope(Rng& rng, sim::PayloadPtr body) {
  sim::Envelope e;
  e.from = static_cast<ProcessId>(rng.next_below(1u << 16));
  e.to = static_cast<ProcessId>(rng.next_below(1u << 16));
  e.tag.kind = static_cast<sim::ServiceKind>(
      rng.next_below(static_cast<std::uint64_t>(sim::ServiceKind::kOther) + 1));
  e.tag.partition = static_cast<PartitionIndex>(rng.next_below(8));
  e.body = std::move(body);
  return e;
}

/// Encode, size-check, decode, re-encode: canonical encodings make the
/// re-encode byte-identical, which subsumes field-by-field equality.
void expect_roundtrip(const sim::Envelope& e, Round round) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(wire::encode_envelope(e, round, &bytes));
  EXPECT_EQ(bytes.size(), wire::encoded_envelope_size(e, round));
  wire::DecodedEnvelope d;
  std::string err;
  ASSERT_TRUE(wire::decode_envelope(bytes, &d, &err)) << err;
  EXPECT_EQ(d.version, wire::kWireFormatVersion);
  EXPECT_EQ(d.round, round);
  EXPECT_EQ(d.env.from, e.from);
  EXPECT_EQ(d.env.to, e.to);
  EXPECT_TRUE(d.env.tag == e.tag);
  EXPECT_EQ(e.body == nullptr, d.env.body == nullptr);
  if (e.body != nullptr && d.env.body != nullptr) {
    EXPECT_EQ(d.env.body->kind(), e.body->kind());
    EXPECT_EQ(d.env.body->encoded_size(), e.body->encoded_size());
  }
  std::vector<std::uint8_t> again;
  ASSERT_TRUE(wire::encode_envelope(d.env, d.round, &again));
  EXPECT_EQ(bytes, again);
}

/// Overwrites byte `i` and repairs the trailing checksum, so decode reaches
/// the structural validators instead of stopping at the checksum.
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> bytes, std::size_t i,
                                  std::uint8_t value) {
  bytes[i] = value;
  const std::size_t n = bytes.size() - wire::kChecksumBytes;
  const std::uint64_t h = fnv1a(bytes.data(), n);
  for (std::size_t b = 0; b < wire::kChecksumBytes; ++b) {
    bytes[n + b] = static_cast<std::uint8_t>(h >> (8 * b));
  }
  return bytes;
}

// -- sink primitives --------------------------------------------------------

TEST(WireSinks, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,      1,        127,        128,
                                 16383,  16384,    0xFFFFFFFF, 1ull << 62,
                                 ~0ull,  0x80,     300,        (1ull << 56) - 1};
  for (std::uint64_t v : cases) {
    wire::WriteSink w;
    w.varint(v);
    EXPECT_EQ(w.data().size(), wire::varint_size(v));
    wire::ReadSink r(w.data());
    std::uint64_t out = 0;
    r.varint(out);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WireSinks, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0,  -1, 1, -2, 63, -64, kNoRound,
                                INT64_MAX, INT64_MIN};
  for (std::int64_t v : cases) {
    EXPECT_EQ(wire::zigzag_decode(wire::zigzag_encode(v)), v);
    wire::WriteSink w;
    w.zigzag(v);
    wire::ReadSink r(w.data());
    std::int64_t out = 0;
    r.zigzag(out);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(out, v);
  }
}

TEST(WireSinks, NonMinimalVarintRejected) {
  // {0x80, 0x00} is a two-byte encoding of 0: canonical codecs reject it
  // (otherwise decode→re-encode would not be byte-identical).
  const std::vector<std::uint8_t> padded = {0x80, 0x00};
  wire::ReadSink r(padded);
  std::uint64_t v = 0;
  r.varint(v);
  EXPECT_FALSE(r.ok());
}

TEST(WireSinks, OverflowingVarintRejected) {
  // 10 continuation bytes
  const std::vector<std::uint8_t> runaway(10, 0xFF);
  wire::ReadSink r1(runaway);
  std::uint64_t v = 0;
  r1.varint(v);
  EXPECT_FALSE(r1.ok());
  // 65 significant bits
  std::vector<std::uint8_t> wide(9, 0xFF);
  wide.push_back(0x02);
  wire::ReadSink r2(wide);
  r2.varint(v);
  EXPECT_FALSE(r2.ok());
}

TEST(WireSinks, Varint32RangeChecked) {
  wire::WriteSink w;
  w.varint(0x1FFFFFFFFull);
  wire::ReadSink r(w.data());
  std::uint32_t v = 0;
  r.varint32(v);
  EXPECT_FALSE(r.ok());
}

TEST(WireSinks, BitsetRoundTripAndPaddingEnforced) {
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    const DynamicBitset b = rand_bits(rng, 1 + rng.next_below(200));
    wire::WriteSink w;
    w.bitset(b);
    wire::ReadSink r(w.data());
    DynamicBitset out;
    r.bitset(out);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(out == b);
    EXPECT_EQ(r.remaining(), 0u);
  }
  // 9 declared bits but bit 10 set in the second byte: non-canonical.
  const std::vector<std::uint8_t> padded = {0x09, 0x00, 0x04};
  wire::ReadSink r(padded);
  DynamicBitset out;
  r.bitset(out);
  EXPECT_FALSE(r.ok());
}

TEST(WireSinks, SequenceCountBeyondBufferRejected) {
  // A claimed 1000-element sequence inside a 3-byte buffer must be rejected
  // before any allocation (every v1 element occupies >= 1 byte).
  wire::WriteSink w;
  w.varint(1000);
  wire::ReadSink r(w.data());
  std::vector<std::uint64_t> v;
  r.seq(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

// -- envelope round-trips ---------------------------------------------------

TEST(WireEnvelope, RoundTripEveryKindRandomized) {
  Rng rng(0xC0DEC);
  for (int k = 1; k <= static_cast<int>(sim::PayloadKind::kStrongAck); ++k) {
    for (int rep = 0; rep < 16; ++rep) {
      auto body = rand_payload(rng, static_cast<sim::PayloadKind>(k));
      ASSERT_NE(body, nullptr);
      const Round round = static_cast<Round>(rng.next_below(100000));
      expect_roundtrip(rand_envelope(rng, std::move(body)), round);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WireEnvelope, NullBodyRoundTrips) {
  Rng rng(5);
  expect_roundtrip(rand_envelope(rng, nullptr), 42);
}

TEST(WireEnvelope, OpaqueBodyRefused) {
  sim::Envelope e;
  e.from = 0;
  e.to = 1;
  e.body = std::make_shared<sim::Payload>();  // kOpaque test double
  std::vector<std::uint8_t> bytes;
  EXPECT_FALSE(wire::encode_envelope(e, 0, &bytes));
}

// Pins the v1 layout byte for byte. If this test breaks, the format changed:
// bump wire::kWireFormatVersion and keep a v1 decoder instead.
TEST(WireEnvelope, GoldenV1Layout) {
  auto ack = std::make_shared<core::DirectAckPayload>();
  ack->rumor = RumorUid{7, 300};
  sim::Envelope e;
  e.from = 1;
  e.to = 2;
  e.tag.kind = sim::ServiceKind::kFallback;
  e.tag.partition = 3;
  e.body = ack;

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(wire::encode_envelope(e, /*round=*/5, &bytes));

  const std::vector<std::uint8_t> expected_prefix = {
      0x01,  // version 1
      0x09,  // payload kind kDirectAck
      0x04,  // service kind kFallback
      0x03,  // partition 3
      0x01,  // from 1
      0x02,  // to 2
      0x0A,  // round 5, zigzag -> 10
      0x03,  // body length 3
      0x07,  // body: ack source 7
      0xAC, 0x02,  // body: ack seq 300 as varint
  };
  ASSERT_EQ(bytes.size(), expected_prefix.size() + wire::kChecksumBytes);
  EXPECT_TRUE(std::equal(expected_prefix.begin(), expected_prefix.end(),
                         bytes.begin()));
  const std::uint64_t sum =
      fnv1a(expected_prefix.data(), expected_prefix.size());
  for (std::size_t b = 0; b < wire::kChecksumBytes; ++b) {
    EXPECT_EQ(bytes[expected_prefix.size() + b],
              static_cast<std::uint8_t>(sum >> (8 * b)));
  }
  EXPECT_EQ(wire::encoded_envelope_size(e, 5), bytes.size());
}

// -- rejection --------------------------------------------------------------

std::vector<std::uint8_t> complex_frame() {
  Rng rng(0xBEEF);
  auto body = rand_payload(rng, sim::PayloadKind::kProxyShare);
  std::vector<std::uint8_t> bytes;
  sim::Envelope e = rand_envelope(rng, std::move(body));
  EXPECT_TRUE(wire::encode_envelope(e, 17, &bytes));
  return bytes;
}

TEST(WireReject, EveryTruncationFails) {
  const auto bytes = complex_frame();
  wire::DecodedEnvelope d;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(wire::decode_envelope(bytes.data(), len, &d))
        << "accepted a frame truncated to " << len << " bytes";
  }
}

TEST(WireReject, EveryBitFlipFails) {
  const auto bytes = complex_frame();
  wire::DecodedEnvelope d;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = bytes;
      mutant[i] = static_cast<std::uint8_t>(mutant[i] ^ (1u << bit));
      EXPECT_FALSE(wire::decode_envelope(mutant, &d))
          << "accepted a frame with byte " << i << " bit " << bit << " flipped";
    }
  }
}

TEST(WireReject, BadEnumTagsAndVersions) {
  const auto bytes = complex_frame();
  wire::DecodedEnvelope d;
  std::string err;
  // byte 0: version, byte 1: payload kind, byte 2: service kind
  EXPECT_FALSE(wire::decode_envelope(patched(bytes, 0, 2), &d, &err));
  EXPECT_EQ(err, "unsupported wire format version");
  EXPECT_FALSE(wire::decode_envelope(
      patched(bytes, 1, static_cast<std::uint8_t>(sim::PayloadKind::kStrongAck) + 1),
      &d, &err));
  EXPECT_EQ(err, "unknown payload kind");
  EXPECT_FALSE(wire::decode_envelope(patched(bytes, 2, 200), &d, &err));
  EXPECT_EQ(err, "unknown service kind");
}

// -- compression claims -----------------------------------------------------

TEST(WireCompression, SortedGidsDeltaEncode) {
  gossip::GossipMsg msg;
  Rng rng(3);
  std::uint64_t gid = 1'000'000;
  for (int i = 0; i < 64; ++i) {
    gossip::GossipRumor r;
    r.gid = gid;
    gid += 1 + rng.next_below(4);
    r.origin = static_cast<ProcessId>(i % 16);
    r.deadline_at = 128;
    r.dest = rand_bits(rng, 32);
    msg.rumors.push_back(r);
  }
  // Delta-encoded gids: 1 byte per rumor instead of a fixed-width 8. Per
  // rumor: gid delta 1 + origin 1 + zigzag(128) 2 + 32-bit dest (count 1 +
  // 4 bytes) + null body 1 = 10 bytes; plus 1 for the count and 2 more for
  // the first gid (1,000,000 is a 3-byte varint). With 8-byte gids the
  // batch would be 1 + 64 * 17 bytes.
  EXPECT_LE(msg.encoded_size(), 1u + 2u + 64u * 10u);
  // And the batch still round-trips losslessly inside an envelope.
  Rng erng(4);
  expect_roundtrip(rand_envelope(erng, std::make_shared<gossip::GossipMsg>(msg)), 9);
}

TEST(WireCompression, UnsortedGidsStillLossless) {
  gossip::GossipMsg msg;
  Rng rng(6);
  const std::uint64_t gids[] = {500, 7, 1u << 30, 3, 0};  // deliberately unsorted
  for (std::uint64_t g : gids) {
    gossip::GossipRumor r;
    r.gid = g;
    r.origin = 1;
    r.dest = rand_bits(rng, 16);
    msg.rumors.push_back(r);
  }
  expect_roundtrip(rand_envelope(rng, std::make_shared<gossip::GossipMsg>(msg)), 1);
}

TEST(WireCompression, FragmentBatchSharesRumorMeta) {
  Rng rng(11);
  const core::Fragment base = rand_fragment(rng);
  auto shared_meta = std::make_shared<core::ProxyRequestPayload>();
  auto distinct_meta = std::make_shared<core::ProxyRequestPayload>();
  shared_meta->dline = distinct_meta->dline = base.meta.dline;
  for (std::uint32_t i = 0; i < 6; ++i) {
    core::Fragment f = base;  // same rumor: uid/dest/expiry/dline/num_groups
    f.meta.key.group = i;
    shared_meta->fragments.push_back(f);
    f.meta.key.rumor.seq = base.meta.key.rumor.seq + 1 + i;  // distinct rumor
    distinct_meta->fragments.push_back(f);
  }
  // Same fragment count and data bytes; the shared-header framing must beat
  // re-encoding the full metadata per fragment by a wide margin.
  EXPECT_LT(shared_meta->encoded_size() + 5 * base.meta.dest.byte_size(),
            distinct_meta->encoded_size());
  expect_roundtrip(rand_envelope(rng, shared_meta), 3);
  expect_roundtrip(rand_envelope(rng, distinct_meta), 3);
}

// -- fuzz -------------------------------------------------------------------

TEST(WireFuzz, RandomBuffersNeverCrash) {
  Rng rng(0xF022);
  const int iters = fuzz_iters();
  wire::DecodedEnvelope d;
  for (int i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> buf(rng.next_below(300));
    if (!buf.empty()) rng.fill_bytes(buf.data(), buf.size());
    (void)wire::decode_envelope(buf, &d);  // must neither crash nor leak
  }
}

// -- datagram framing (net/framing.h) ---------------------------------------
//
// How envelope frames ride inside UDP datagrams: length-prefixed and
// coalesced. The decode side must handle exactly what a real socket hands
// it - several frames in one datagram, and datagrams cut off mid-stream.

TEST(WireDatagram, TwoCoalescedFramesDecodeIndependently) {
  Rng rng(0xD06);
  const sim::Envelope e1 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kFragment));
  const sim::Envelope e2 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kGossipMsg));
  std::vector<std::uint8_t> datagram;
  ASSERT_TRUE(net::append_frame(e1, 11, &datagram));
  ASSERT_TRUE(net::append_frame(e2, 12, &datagram));

  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame);
  wire::DecodedEnvelope d1;
  std::string err;
  ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &d1, &err)) << err;
  EXPECT_EQ(d1.round, 11);
  EXPECT_EQ(d1.env.from, e1.from);
  ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame);
  wire::DecodedEnvelope d2;
  ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &d2, &err)) << err;
  EXPECT_EQ(d2.round, 12);
  EXPECT_EQ(d2.env.from, e2.from);
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kDone);
}

TEST(WireDatagram, TruncationMidSecondFrameKeepsFirstFrame) {
  Rng rng(0xD07);
  const sim::Envelope e1 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kProxyRequest));
  const sim::Envelope e2 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kPartials));
  std::vector<std::uint8_t> datagram;
  ASSERT_TRUE(net::append_frame(e1, 1, &datagram));
  const std::size_t first_end = datagram.size();
  ASSERT_TRUE(net::append_frame(e2, 2, &datagram));

  // Every cut inside the second frame: the first frame must still decode,
  // then the splitter must report truncation - never a bogus short frame.
  for (std::size_t cut = first_end + 1; cut < datagram.size(); ++cut) {
    net::FrameSplitter sp(std::span<const std::uint8_t>(datagram.data(), cut));
    std::span<const std::uint8_t> frame;
    ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame) << cut;
    wire::DecodedEnvelope d;
    ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &d)) << cut;
    EXPECT_EQ(d.env.from, e1.from);
    EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kTruncated) << cut;
  }
}

TEST(WireDatagram, TruncationMidLengthPrefixReported) {
  // A multi-byte length prefix cut after its continuation byte: truncated,
  // not malformed (the bytes seen so far are a valid prefix of a prefix).
  std::vector<std::uint8_t> datagram = {0x80 | 0x12};  // continuation, no end
  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kTruncated);
}

TEST(WireDatagram, NonMinimalLengthPrefixMalformed) {
  // 0x81 0x00 is the non-minimal encoding of length 1; canonical varints
  // reject it, and the splitter must classify it as malformed (corrupted
  // stream) rather than truncated (more bytes pending).
  std::vector<std::uint8_t> datagram = {0x81, 0x00, 0xAB};
  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kMalformed);
}

TEST(WireDatagram, CorruptFrameBodyCaughtByEnvelopeChecksum) {
  // The length prefix survives but a body byte is flipped: the splitter
  // yields the frame (framing cannot know), and the envelope checksum
  // rejects it - the layered design's division of labour.
  Rng rng(0xD08);
  const sim::Envelope e =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kDirectRumor));
  std::vector<std::uint8_t> datagram;
  ASSERT_TRUE(net::append_frame(e, 3, &datagram));
  datagram[datagram.size() / 2] ^= 0x40;
  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame);
  wire::DecodedEnvelope d;
  EXPECT_FALSE(wire::decode_envelope(frame.data(), frame.size(), &d));
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kDone);
}

// -- LZ4 datagram container (wire/compress.h + net/framing.h) ----------------

TEST(WireLz4, RawApiRoundTripsAndEnforcesExactLength) {
  if (!wire::lz4_available()) GTEST_SKIP() << "LZ4 not available";
  Rng rng(0x124);
  for (int i = 0; i < 32; ++i) {
    // Mixed compressibility: runs of a repeated byte with random islands.
    std::vector<std::uint8_t> src(64 + rng.next_below(2000));
    for (std::size_t j = 0; j < src.size(); ++j) {
      src[j] = rng.chance(0.8) ? 0x55 : static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::vector<std::uint8_t> packed(wire::lz4_compress_bound(src.size()));
    const std::size_t written = wire::lz4_compress_raw(
        src.data(), src.size(), packed.data(), packed.size());
    ASSERT_GT(written, 0u);
    std::vector<std::uint8_t> back(src.size());
    ASSERT_TRUE(wire::lz4_decompress_raw(packed.data(), written, back.data(),
                                         src.size()));
    EXPECT_EQ(back, src);
    // Wrong declared length (one short) must be rejected, not truncated.
    if (src.size() > 1) {
      std::vector<std::uint8_t> shorter(src.size() - 1);
      EXPECT_FALSE(wire::lz4_decompress_raw(packed.data(), written,
                                            shorter.data(), shorter.size()));
    }
  }
}

TEST(WireFuzz, UnwrapDatagramNeverCrashesOnRandomBuffers) {
  // The unwrap layer sees raw socket bytes before any checksum: random
  // buffers - including ones starting with the compressed marker - must be
  // classified without crashing, over-reading, or unbounded allocation.
  Rng rng(0xF023);
  const int iters = fuzz_iters();
  std::vector<std::uint8_t> scratch;
  for (int i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> buf(rng.next_below(300));
    if (!buf.empty()) rng.fill_bytes(buf.data(), buf.size());
    if (!buf.empty() && rng.chance(0.5)) {
      buf[0] = net::kCompressedDatagramMarker;  // force the container path
    }
    std::span<const std::uint8_t> frames;
    const net::DatagramKind kind = net::unwrap_datagram(buf, &scratch, &frames);
    if (kind == net::DatagramKind::kPlain) {
      EXPECT_EQ(frames.data(), buf.data());
    }
    // Whatever came out feeds the splitter without incident.
    net::FrameSplitter sp(frames);
    std::span<const std::uint8_t> frame;
    while (sp.next(&frame) == net::FrameSplitter::Status::kFrame) {
      wire::DecodedEnvelope d;
      (void)wire::decode_envelope(frame.data(), frame.size(), &d);
    }
  }
}

TEST(WireFuzz, MutatedCompressedContainersNeverCrash) {
  if (!wire::lz4_available()) GTEST_SKIP() << "LZ4 not available";
  Rng rng(0xF024);
  // A real multi-frame datagram, compressed, then mutated: every outcome is
  // acceptable except a crash or a silently-corrupt decoded envelope.
  std::vector<std::uint8_t> datagram;
  const sim::Envelope e1 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kGossipMsg));
  const sim::Envelope e2 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kFragment));
  // Repeated frames make the datagram compressible regardless of what the
  // randomized payloads drew.
  for (int rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE(net::append_frame(e1, 7, &datagram));
    ASSERT_TRUE(net::append_frame(e2, 7, &datagram));
  }
  std::vector<std::uint8_t> scratch;
  ASSERT_TRUE(net::compress_datagram(&datagram, &scratch));
  const int iters = fuzz_iters();
  std::vector<std::uint8_t> us;
  for (int i = 0; i < iters; ++i) {
    auto mutant = datagram;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutant[rng.next_below(mutant.size())] =
          static_cast<std::uint8_t>(rng.next_below(256));
    }
    if (rng.chance(0.3)) {
      mutant.resize(rng.next_below(mutant.size()) + 1);  // truncate too
    }
    std::span<const std::uint8_t> frames;
    if (net::unwrap_datagram(mutant, &us, &frames) ==
        net::DatagramKind::kMalformed) {
      continue;
    }
    net::FrameSplitter sp(frames);
    std::span<const std::uint8_t> frame;
    while (sp.next(&frame) == net::FrameSplitter::Status::kFrame) {
      wire::DecodedEnvelope d;
      if (wire::decode_envelope(frame.data(), frame.size(), &d)) {
        // Accepted frames must re-encode cleanly (same contract as the
        // plain-frame mutation fuzz below).
        std::vector<std::uint8_t> again;
        ASSERT_TRUE(wire::encode_envelope(d.env, d.round, &again));
      }
    }
  }
}

TEST(WireFuzz, MutatedFramesWithRepairedChecksums) {
  // Corruption with a *repaired* checksum drives decode past the checksum
  // into the structural validators. An accepted mutant is allowed (the
  // mutation may be semantically harmless) but must re-encode and re-decode
  // cleanly — no accepted frame may put a payload into an unserializable
  // state.
  const auto bytes = complex_frame();
  Rng rng(0xF0F0);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    auto mutant = bytes;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_below(mutant.size() - wire::kChecksumBytes);
      mutant[at] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    mutant = patched(mutant, 0, mutant[0]);  // repair checksum only
    wire::DecodedEnvelope d;
    if (!wire::decode_envelope(mutant, &d)) continue;
    std::vector<std::uint8_t> again;
    ASSERT_TRUE(wire::encode_envelope(d.env, d.round, &again));
    wire::DecodedEnvelope d2;
    std::string err;
    ASSERT_TRUE(wire::decode_envelope(again, &d2, &err)) << err;
  }
}

}  // namespace
}  // namespace congos
