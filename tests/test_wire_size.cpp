// Byte-accounting audit (Section 7 discussion): every payload reports its
// serialized size, encoded_size() — the actual bytes the wire codec emits —
// and the stats collector aggregates those bytes per round.
//
// The audit test at the top enumerates every payload kind and pins
// encoded_size() to the length encode_payload() really produces, so a size
// override can never silently disagree with the serializer.
#include <gtest/gtest.h>

#include "baseline/baseline_payload.h"
#include "congos/fragment.h"
#include "gossip/continuous_gossip.h"
#include "harness/scenario.h"
#include "sim/stats.h"
#include "wire/envelope.h"
#include "wire/payload_codec.h"

namespace congos {
namespace {

sim::Rumor small_rumor(std::size_t n, std::size_t payload) {
  auto r = sim::make_rumor(0, 1, std::vector<std::uint8_t>(payload, 0xAB), 64,
                           DynamicBitset(n));
  return r;
}

core::Fragment small_fragment(std::size_t n, std::size_t payload) {
  core::Fragment f;
  f.meta.key = core::FragmentKey{{0, 1}, 0, 0};
  f.meta.dest = DynamicBitset(n);
  f.data.assign(payload, 0xCD);
  return f;
}

/// One payload of every codec-serializable kind, with non-default contents
/// so size formulas cannot pass by accident.
std::vector<sim::PayloadPtr> one_of_each_kind() {
  std::vector<sim::PayloadPtr> all;

  auto msg = std::make_shared<gossip::GossipMsg>();
  for (int i = 0; i < 3; ++i) {
    gossip::GossipRumor r;
    r.gid = 100 + static_cast<std::uint64_t>(i);
    r.origin = 2;
    r.deadline_at = 64;
    r.dest = DynamicBitset(48);
    r.dest.set(static_cast<std::size_t>(5 + i));
    if (i != 1) {  // mix nested bodies and null bodies
      auto body = std::make_shared<core::FragmentBody>();
      body->fragment = small_fragment(48, 24);
      r.body = body;
    }
    msg->rumors.push_back(r);
  }
  all.push_back(msg);

  auto ack = std::make_shared<gossip::GossipAck>();
  ack->gids = {9, 3, 4000, 4001};
  all.push_back(ack);

  all.push_back(std::make_shared<gossip::GossipPull>());

  auto proxy_req = std::make_shared<core::ProxyRequestPayload>();
  proxy_req->dline = 32;
  proxy_req->fragments = {small_fragment(48, 16), small_fragment(48, 16)};
  all.push_back(proxy_req);

  auto proxy_ack = std::make_shared<core::ProxyAckPayload>();
  proxy_ack->dline = 32;
  all.push_back(proxy_ack);

  auto partials = std::make_shared<core::PartialsPayload>();
  partials->dline = 16;
  partials->fragments = {small_fragment(48, 8)};
  all.push_back(partials);

  auto direct = std::make_shared<core::DirectRumorPayload>();
  direct->rumor = small_rumor(48, 20);
  all.push_back(direct);

  auto partials_ack = std::make_shared<core::PartialsAckPayload>();
  partials_ack->dline = 16;
  all.push_back(partials_ack);

  auto direct_ack = std::make_shared<core::DirectAckPayload>();
  direct_ack->rumor = RumorUid{7, 300};
  all.push_back(direct_ack);

  auto frag_body = std::make_shared<core::FragmentBody>();
  frag_body->fragment = small_fragment(48, 40);
  all.push_back(frag_body);

  auto proxy_share = std::make_shared<core::ProxyShareBody>();
  proxy_share->dline = 32;
  proxy_share->block = 2;
  proxy_share->from = 11;
  proxy_share->proxied = {small_fragment(48, 12)};
  proxy_share->failed_proxies = {3, 4};
  all.push_back(proxy_share);

  auto hit_share = std::make_shared<core::HitSetShareBody>();
  hit_share->dline = 32;
  hit_share->block = 1;
  hit_share->from = 9;
  hit_share->hits = {{4, {1, 2}}, {5, {1, 3}}};
  all.push_back(hit_share);

  auto report = std::make_shared<core::DistributionReportBody>();
  report->reporter = 6;
  report->partition = 1;
  report->group = 2;
  report->dline = 64;
  report->hits = {{8, {2, 5}}};
  all.push_back(report);

  auto base_rumor = std::make_shared<baseline::BaselineRumorPayload>();
  base_rumor->rumor = small_rumor(48, 32);
  all.push_back(base_rumor);

  auto base_batch = std::make_shared<baseline::BaselineBatchPayload>();
  base_batch->rumors = {small_rumor(48, 8), small_rumor(48, 8)};
  all.push_back(base_batch);

  auto strong_ack = std::make_shared<baseline::StrongAckPayload>();
  strong_ack->uids = {{1, 2}, {3, 4}, {5, 6}};
  all.push_back(strong_ack);

  return all;
}

// The cross-check: for EVERY serializable payload kind, encoded_size() must
// equal the byte count encode_payload() actually emits. Any discrepancy is
// a bug in a size override, not a tolerance.
TEST(WireSizeAudit, EncodedSizeMatchesEncoderForEveryKind) {
  const auto all = one_of_each_kind();
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(sim::PayloadKind::kStrongAck));  // all but kOpaque
  for (const auto& p : all) {
    wire::WriteSink s;
    ASSERT_TRUE(wire::encode_payload(s, *p))
        << "kind " << static_cast<int>(p->kind());
    ASSERT_TRUE(s.ok()) << "kind " << static_cast<int>(p->kind());
    EXPECT_EQ(p->encoded_size(), s.data().size())
        << "encoded_size() disagrees with the encoder for kind "
        << static_cast<int>(p->kind());
  }
}

TEST(WireSizeAudit, OpaquePayloadsAreNotSerializable) {
  const sim::Payload opaque;
  wire::WriteSink s;
  EXPECT_FALSE(wire::encode_payload(s, opaque));
}

TEST(WireSize, GossipMsgSumsRumors) {
  gossip::GossipMsg msg;
  EXPECT_EQ(msg.encoded_size(), 1u);  // just the varint count
  gossip::GossipRumor r;
  r.dest = DynamicBitset(64);
  auto body = std::make_shared<core::FragmentBody>();
  body->fragment = small_fragment(64, 16);
  r.body = body;
  const auto one_e = msg.encoded_size();
  msg.rumors.push_back(r);
  const auto two_e = msg.encoded_size();
  msg.rumors.push_back(r);
  // Identical rumors (gid delta 0) grow the size by equal increments, each
  // at least the nested fragment body.
  EXPECT_EQ(msg.encoded_size() - two_e, two_e - one_e);
  EXPECT_GT(two_e - one_e, body->encoded_size());
}

TEST(WireSize, MetadataPayloadsAreDataFree) {
  // Shares and reports carry identifiers only: size independent of any
  // rumor payload length (that is what makes them safe to gossip widely).
  // Each hit costs three small varints (target, uid source, uid seq)
  // whatever the rumor's payload, while a fragment grows with it.
  const core::Hit hit{4, RumorUid{1, 2}};
  core::HitSetShareBody share;
  share.dline = 32;
  const auto empty_share = share.encoded_size();
  share.hits.assign(5, hit);
  EXPECT_EQ(share.encoded_size(), empty_share + 5 * 3u);
  core::DistributionReportBody report;
  report.dline = 32;
  const auto empty_report = report.encoded_size();
  report.hits.assign(3, hit);
  EXPECT_EQ(report.encoded_size(), empty_report + 3 * 3u);
  core::ProxyAckPayload ack;
  ack.dline = 32;
  EXPECT_EQ(ack.encoded_size(), 1u);  // zigzag(32) fits one varint byte
  core::FragmentBody frag;
  frag.fragment = small_fragment(64, 4096);
  EXPECT_GT(frag.encoded_size(), 4096u);
}

TEST(WireSize, StrongAckScalesWithUids) {
  // An ack's size grows with the uids it carries; the 8-byte opaque default
  // would bill every ack alike.
  baseline::StrongAckPayload ack;
  EXPECT_EQ(ack.encoded_size(), 1u);  // just the varint count
  ack.uids.resize(10, RumorUid{1, 1});
  EXPECT_EQ(ack.encoded_size(), 1u + 10 * 2u);  // source + seq varint per uid
}

TEST(WireSize, StatsAccumulateBytes) {
  sim::MessageStats s;
  s.note_sent(sim::ServiceKind::kProxy, 100);
  s.note_sent(sim::ServiceKind::kProxy, 50);
  s.end_round(0);
  s.note_sent(sim::ServiceKind::kFallback, 10);
  s.end_round(1);
  EXPECT_EQ(s.total_bytes(), 160u);
  EXPECT_EQ(s.max_bytes_per_round(), 150u);
  EXPECT_EQ(s.max_bytes_from(1), 10u);
  EXPECT_NEAR(s.mean_bytes_per_round(), 80.0, 1e-9);
  EXPECT_EQ(s.total_bytes(sim::ServiceKind::kProxy), 150u);
}

TEST(WireSize, StatsByteCountersDoNotNarrow) {
  // Large-n sweeps overflow 32-bit intermediates; the whole accumulation
  // path is std::uint64_t (static_asserts in stats.h pin the member types).
  sim::MessageStats s;
  const std::uint64_t big = 1ull << 40;
  for (int i = 0; i < 8; ++i) s.note_sent(sim::ServiceKind::kProxy, big);
  s.end_round(0);
  EXPECT_EQ(s.total_bytes(), 8 * big);
  EXPECT_EQ(s.total_bytes(sim::ServiceKind::kProxy), 8 * big);
  EXPECT_GT(s.total_bytes(), std::uint64_t{0xFFFFFFFFull});
}

TEST(WireSize, ScenarioReportsBytes) {
  harness::ScenarioConfig cfg;
  cfg.n = 16;
  cfg.seed = 9;
  cfg.rounds = 96;
  cfg.protocol = harness::Protocol::kDirect;
  cfg.continuous.inject_prob = 0.05;
  cfg.continuous.deadlines = {64};
  const auto r = harness::run_scenario(cfg);
  EXPECT_GT(r.total_bytes, 0u);
  EXPECT_GT(r.max_bytes_per_round, 0u);
  // Every frame is at least the smallest possible frame (all-zero header
  // varints, empty body, 8-byte checksum), and direct sends carry a body.
  sim::Envelope smallest;
  smallest.from = 0;
  smallest.to = 0;
  const std::uint64_t min_frame = wire::encoded_envelope_size(smallest, 0);
  EXPECT_GT(min_frame, wire::kChecksumBytes);
  EXPECT_GT(r.total_bytes, r.total_messages * min_frame);
}

TEST(WireSize, CongosBytesDominatedByFragmentTraffic) {
  harness::ScenarioConfig cfg;
  cfg.n = 32;
  cfg.seed = 10;
  cfg.rounds = 192;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  cfg.continuous.payload_len = 64;
  const auto small = harness::run_scenario(cfg);
  cfg.continuous.payload_len = 1024;
  const auto big = harness::run_scenario(cfg);
  // Same message counts (payload length does not change the protocol), but
  // much larger byte volume.
  EXPECT_GT(big.total_bytes, small.total_bytes * 2);
}

}  // namespace
}  // namespace congos
