// Durable checkpoint coverage (DESIGN.md section 14): the codec rejects
// every corruption we can synthesize (truncation at each offset, each bit
// flipped, foreign versions, forged destination universes, non-monotone
// journals, stale clock bindings), the file writer is atomic, and - the
// core guarantee - a NodeRuntime resumed from its state file is
// byte-for-byte the process that would have existed had the crash never
// happened, pinned over a deterministic SimLink cluster including the
// partially-buffered-inbox case. Every file a live runtime saves must equal
// encode_checkpoint(make_checkpoint()), the reference encoding.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "net/checkpoint.h"
#include "net/runtime.h"
#include "net/sim_transport.h"
#include "replay/codec.h"

namespace congos {
namespace {

net::NodeCheckpoint sample_checkpoint() {
  net::NodeCheckpoint ck;
  ck.id = 3;
  ck.n = 8;
  ck.seed = 20260808;
  ck.tau = 2;
  ck.allow_degenerate = false;
  ck.retransmit.enabled = true;
  ck.retransmit.budget = 4;
  ck.retransmit.max_link_delay = 2;
  ck.max_rounds = 64;
  ck.epoch_ms = 1754600000123;
  ck.round_ms = 40;
  ck.round = 17;
  ck.resume_count = 1;

  net::CheckpointEvent inj;
  inj.round = 2;
  inj.kind = net::CheckpointEvent::Kind::kInject;
  inj.seq = 9;
  inj.deadline = 40;
  inj.dest = DynamicBitset(8);
  inj.dest.set(1);
  inj.dest.set(6);
  inj.data = {0xDE, 0xAD, 0xBE, 0xEF};
  ck.events.push_back(inj);

  net::CheckpointEvent recv;
  recv.round = 17;
  recv.kind = net::CheckpointEvent::Kind::kRecv;
  recv.frame = {0x01, 0x02, 0x03, 0x04, 0x05};
  ck.events.push_back(recv);
  return ck;
}

void put_u64_at(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    bytes[at + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

/// Recomputes the trailing checksum after a test patched a field, so only
/// the decoder's field checks can reject the file.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 8;
  put_u64_at(bytes, body, fnv1a(bytes.data(), body));
}

TEST(CheckpointCodec, RoundTripsAllFields) {
  const net::NodeCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = net::encode_checkpoint(ck);
  net::NodeCheckpoint back;
  std::string err;
  ASSERT_TRUE(net::decode_checkpoint(bytes, &back, &err)) << err;
  EXPECT_TRUE(back == ck);
}

TEST(CheckpointCodec, RejectsTruncationAtEveryOffset) {
  const std::vector<std::uint8_t> bytes =
      net::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::NodeCheckpoint back;
    std::string err;
    EXPECT_FALSE(net::decode_checkpoint(bytes.data(), len, &back, &err))
        << "accepted a file truncated to " << len << " bytes";
  }
}

TEST(CheckpointCodec, RejectsEveryBitFlip) {
  const std::vector<std::uint8_t> good =
      net::encode_checkpoint(sample_checkpoint());
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1u << b);
      net::NodeCheckpoint back;
      std::string err;
      EXPECT_FALSE(net::decode_checkpoint(bad, &back, &err))
          << "accepted bit " << b << " of byte " << i << " flipped";
    }
  }
}

TEST(CheckpointCodec, RejectsUnknownVersion) {
  // Patch the version field (the u32 right after the u64 magic) and re-seal
  // the checksum so only the version check can reject it. Version 1 put the
  // bindings before the journal; it is foreign now.
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{0x63}}) {
    std::vector<std::uint8_t> bytes = net::encode_checkpoint(sample_checkpoint());
    bytes[8] = version;
    reseal(bytes);
    net::NodeCheckpoint back;
    std::string err;
    EXPECT_FALSE(net::decode_checkpoint(bytes, &back, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
  }
}

TEST(CheckpointCodec, RejectsForgedDestinationUniverse) {
  // The checksum is no MAC: a re-sealed file must still not size a bitset
  // from an unchecked universe. Layout: 12-byte header, then the inject
  // event's i64 round, u8 kind, u64 seq, i64 deadline and the u64 universe;
  // the trailer's u64 n follows its u32 id, 90 bytes from the end.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  const std::vector<std::uint8_t> good = net::encode_checkpoint(sample_checkpoint());
  const std::size_t universe_at = 12 + 8 + 1 + 8 + 8;
  const std::size_t n_at = good.size() - 90 + 4;

  std::vector<std::uint8_t> bad = good;
  put_u64_at(bad, universe_at, huge);
  reseal(bad);
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(bad, &back, &err));
  EXPECT_NE(err.find("universe"), std::string::npos) << err;

  // A universe that matches a forged n is caught by n's range.
  put_u64_at(bad, n_at, huge);
  reseal(bad);
  EXPECT_FALSE(net::decode_checkpoint(bad, &back, &err));
  EXPECT_NE(err.find("config binding out of range"), std::string::npos) << err;
}

TEST(CheckpointCodec, RejectsNonMonotoneJournalRounds) {
  net::NodeCheckpoint ck = sample_checkpoint();
  std::swap(ck.events[0], ck.events[1]);  // 17 then 2: order violated
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(net::encode_checkpoint(ck), &back, &err));
  EXPECT_NE(err.find("monotone"), std::string::npos) << err;
}

TEST(CheckpointCodec, RejectsJournalEventPastCheckpointRound) {
  net::NodeCheckpoint ck = sample_checkpoint();
  ck.events.back().round = ck.round + 1;
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(net::encode_checkpoint(ck), &back, &err));
  EXPECT_NE(err.find("past checkpoint round"), std::string::npos) << err;
}

TEST(CheckpointCodec, StaleClockBindingRejected) {
  const net::NodeCheckpoint ck = sample_checkpoint();
  std::string err;
  EXPECT_TRUE(net::validate_checkpoint_clock(ck, ck.epoch_ms, ck.round_ms, &err));
  EXPECT_FALSE(net::validate_checkpoint_clock(ck, ck.epoch_ms + 1, ck.round_ms, &err));
  EXPECT_NE(err.find("stale"), std::string::npos) << err;
  EXPECT_FALSE(net::validate_checkpoint_clock(ck, ck.epoch_ms, ck.round_ms + 5, &err));
}

TEST(CheckpointFile, AtomicWriteReadBackAndRewrite) {
  const std::string path =
      "checkpoint_io_" + std::to_string(::getpid()) + ".ckpt";
  net::NodeCheckpoint ck = sample_checkpoint();
  std::string err;
  ASSERT_TRUE(net::write_checkpoint_file(path, net::encode_checkpoint(ck), &err)) << err;
  // The temp file must be gone: a crash between write and rename leaves
  // either the old complete file or the new one, never a torn hybrid.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);

  net::NodeCheckpoint back;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_TRUE(back == ck);

  ck.round = 21;
  ck.resume_count = 2;
  ASSERT_TRUE(net::write_checkpoint_file(path, net::encode_checkpoint(ck), &err)) << err;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_EQ(back.round, 21);
  EXPECT_EQ(back.resume_count, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsGarbageAndMissingFiles) {
  const std::string path =
      "checkpoint_garbage_" + std::to_string(::getpid()) + ".ckpt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a checkpoint file", f);
  std::fclose(f);
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::read_checkpoint_file(path, &back, &err));
  EXPECT_FALSE(net::read_checkpoint_file("no_such_file.ckpt", &back, &err));
  std::remove(path.c_str());
}

// -- resume equivalence over a deterministic SimLink cluster ------------------

constexpr std::int64_t kEpochMs = 1754600000123;
constexpr std::int64_t kRoundMs = 40;

std::string state_path(ProcessId p) {
  return "resume_state_" + std::to_string(::getpid()) + "_" + std::to_string(p) +
         ".ckpt";
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

net::NodeConfig node_cfg(ProcessId p, std::size_t n, std::uint64_t seed,
                         Round max_rounds) {
  net::NodeConfig cfg;
  cfg.id = p;
  cfg.n = n;
  cfg.seed = seed;
  cfg.max_rounds = max_rounds;
  cfg.state_path = state_path(p);
  cfg.congos.allow_degenerate = false;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.max_link_delay = 1;
  return cfg;
}

struct Feed final : net::DatagramSink {
  net::NodeRuntime* rt = nullptr;
  void on_datagram(ProcessId from, std::span<const std::uint8_t> d) override {
    rt->handle_datagram(from, d);
  }
};

/// A SimLink cluster with explicit per-step control so the test can crash
/// and resume one node at any point inside a round.
struct ResumableCluster {
  std::size_t n;
  std::uint64_t seed;
  Round max_rounds;
  net::SimLink link;
  std::vector<std::unique_ptr<net::NodeRuntime>> nodes;

  ResumableCluster(std::size_t n_, std::uint64_t seed_, Round max_rounds_)
      : n(n_), seed(seed_), max_rounds(max_rounds_), link(n_) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(std::make_unique<net::NodeRuntime>(
          node_cfg(p, n, seed, max_rounds), &link.endpoint(p)));
      nodes.back()->set_clock_binding(kEpochMs, kRoundMs);
      std::string err;
      EXPECT_TRUE(nodes.back()->start(&err)) << err;
    }
  }

  ~ResumableCluster() {
    for (ProcessId p = 0; p < n; ++p) std::remove(state_path(p).c_str());
  }

  void poll_into(ProcessId p) {
    Feed feed;
    feed.rt = nodes[p].get();
    link.endpoint(p).poll(0, feed);
  }

  void run_rounds(Round count) {
    for (Round i = 0; i < count; ++i) {
      link.advance_round();
      const Round target = link.round();
      for (ProcessId p = 0; p < n; ++p) {
        poll_into(p);
        nodes[p]->advance_to(target);
      }
    }
  }

  /// Saves node p's state file, checks it is exactly the reference
  /// encoding of make_checkpoint(), and returns what a restart would load.
  net::NodeCheckpoint save(ProcessId p) {
    std::string err;
    EXPECT_TRUE(nodes[p]->save_checkpoint(&err)) << err;
    const net::NodeCheckpoint live = nodes[p]->make_checkpoint();
    EXPECT_EQ(read_bytes(state_path(p)), net::encode_checkpoint(live))
        << "node " << p << " at round " << live.round;
    net::NodeCheckpoint loaded;
    EXPECT_TRUE(net::read_checkpoint_file(state_path(p), &loaded, &err)) << err;
    EXPECT_TRUE(loaded == live);
    return loaded;
  }

  /// Kill node p and bring up a fresh runtime resumed from `ck` on the
  /// same link endpoint.
  void crash_and_resume(ProcessId p, const net::NodeCheckpoint& ck) {
    nodes[p].reset();
    nodes[p] = std::make_unique<net::NodeRuntime>(
        node_cfg(p, n, seed, max_rounds), &link.endpoint(p));
    nodes[p]->set_clock_binding(kEpochMs, kRoundMs);
    std::string err;
    ASSERT_TRUE(nodes[p]->resume(ck, &err)) << err;
  }

  std::string fingerprint(ProcessId p) const {
    const net::NodeRuntime& rt = *nodes[p];
    return std::to_string(rt.now()) + "/" + std::to_string(rt.injections()) +
           "/" + std::to_string(rt.deliveries()) + "/" +
           std::to_string(rt.frames_received()) + "/" +
           (rt.healthy() ? "ok" : "BAD");
  }
};

TEST(NodeRuntimeResume, ResumedNodeMatchesUninterruptedRun) {
  const std::size_t n = 4;
  const std::uint64_t seed = 7;
  // Long enough for the deadline-40 pipeline to deliver: the comparison
  // below must cover post-delivery state, not just mid-flight state.
  const Round rounds = 48;
  const ProcessId victim = 2;

  const auto inject = [&](ResumableCluster& c) {
    DynamicBitset dest(n);
    dest.set(2);
    c.run_rounds(1);
    c.nodes[1]->inject(5, 40, dest, {0xAB, 0xCD});
  };

  // Reference: no crash.
  ResumableCluster a(n, seed, rounds);
  inject(a);
  a.run_rounds(rounds - 1);
  ASSERT_GE(a.nodes[victim]->deliveries(), 1u)
      << "reference run never delivered; the equivalence check would be "
         "vacuous";

  // Crash victim mid-round 14: frames for the closing round are already
  // polled into its inbox (journaled at the checkpoint round), the round
  // is not yet ticked - the hardest point to reconstruct.
  ResumableCluster b(n, seed, rounds);
  inject(b);
  b.run_rounds(13);  // every node now at round 14
  b.link.advance_round();
  const Round target = b.link.round();
  for (ProcessId p = 0; p < n; ++p) b.poll_into(p);
  const net::NodeCheckpoint ck = b.save(victim);
  EXPECT_EQ(ck.round, 14);
  b.crash_and_resume(victim, ck);
  EXPECT_EQ(b.nodes[victim]->resume_count(), 1u);
  EXPECT_EQ(b.nodes[victim]->resumed_at(), 14);
  for (ProcessId p = 0; p < n; ++p) b.nodes[p]->advance_to(target);
  b.run_rounds(rounds - 15);

  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(a.fingerprint(p), b.fingerprint(p)) << "node " << p;
    EXPECT_TRUE(b.nodes[p]->healthy()) << b.nodes[p]->stats_json();
  }
  // The resumed incarnation reports its lineage in stats.
  const std::string stats = b.nodes[victim]->stats_json();
  EXPECT_NE(stats.find("\"resume_count\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"uptime_rounds\":"), std::string::npos) << stats;
}

TEST(NodeRuntimeResume, JournalSurvivesChainedResumes) {
  // Resume-of-a-resume from the state file: the journal carried forward
  // must keep the full history, not just the events since the last
  // incarnation, and every save - before and after each resume - must
  // seal exactly the reference encoding.
  const std::size_t n = 4;
  const Round rounds = 48;  // deadline-40 pipeline delivers near round 41
  const ProcessId victim = 3;
  const auto inject = [&](ResumableCluster& c) {
    DynamicBitset dest(n);
    dest.set(victim);
    c.run_rounds(1);
    c.nodes[0]->inject(1, 40, dest, {0x42});
  };

  ResumableCluster twin(n, 11, rounds);
  inject(twin);
  twin.run_rounds(rounds - 1);

  ResumableCluster c(n, 11, rounds);
  inject(c);
  c.run_rounds(3);
  c.save(victim);
  c.run_rounds(4);
  const net::NodeCheckpoint ck1 = c.save(victim);
  c.crash_and_resume(victim, ck1);
  c.run_rounds(5);
  c.save(victim);
  c.run_rounds(3);

  const net::NodeCheckpoint ck2 = c.save(victim);
  EXPECT_EQ(ck2.resume_count, 1u);
  EXPECT_GE(ck2.events.size(), ck1.events.size());
  c.crash_and_resume(victim, ck2);
  EXPECT_EQ(c.nodes[victim]->resume_count(), 2u);
  c.run_rounds(2);
  EXPECT_EQ(c.save(victim).resume_count, 2u);
  c.run_rounds(rounds - 18);

  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(twin.fingerprint(p), c.fingerprint(p)) << "node " << p;
  }
  EXPECT_TRUE(c.nodes[victim]->healthy()) << c.nodes[victim]->stats_json();
  EXPECT_GE(c.nodes[victim]->deliveries(), 1u);
}

TEST(NodeRuntimeResume, RejectsMismatchedConfigBinding) {
  ResumableCluster c(4, 7, 24);
  c.run_rounds(4);
  const net::NodeCheckpoint ck = c.nodes[1]->make_checkpoint();

  net::NodeConfig other = node_cfg(1, 4, /*seed=*/8, 24);  // wrong seed
  net::SimLink lonely(4);
  net::NodeRuntime rt(other, &lonely.endpoint(1));
  std::string err;
  EXPECT_FALSE(rt.resume(ck, &err));
  EXPECT_NE(err.find("config binding"), std::string::npos) << err;
}

}  // namespace
}  // namespace congos
