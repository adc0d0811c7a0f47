// Snapshot & replay subsystem: codec round-trips, artifact rejection on
// corruption, recorded-run purity, byte-identical replay over a seed grid,
// sweep artifact dumping under the thread pool, and engine checkpoint
// rewind. DESIGN.md section 7 documents the contracts pinned here.
#include "harness/record.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "harness/sweep.h"
#include "replay/codec.h"
#include "replay/recorder.h"
#include "replay/repro.h"
#include "common/bitset.h"
#include "common/fnv.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace congos {
namespace {

using harness::Protocol;
using harness::ScenarioConfig;
using harness::ScenarioResult;
using replay::ByteReader;
using replay::ByteWriter;
using replay::Decision;
using replay::ReproFile;

// ---------------------------------------------------------------------------
// Codec primitives

TEST(Codec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.boolean(true);
  w.f64(3.25);
  w.str("hello");
  w.vec_u64({1, 2, 3});

  const auto bytes = w.take();
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, ReaderLatchesOnTruncation) {
  ByteWriter w;
  w.u64(7);
  const auto bytes = w.take();
  ByteReader r(bytes.data(), 3);  // not enough for a u64
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  // Every subsequent read stays failed and returns zero values.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Codec, HashMatchesGoldenFold) {
  // fnv1a_u64 folded over values must equal byte-wise fnv1a over their
  // little-endian encoding (the golden-trace definition in test_golden.cpp).
  const std::uint64_t values[] = {0, 1, 0xFFFFFFFFFFFFFFFFull, 12345};
  std::uint64_t folded = kFnvOffset;
  ByteWriter w;
  for (std::uint64_t v : values) {
    folded = fnv1a_u64(folded, v);
    w.u64(v);
  }
  const auto bytes = w.take();
  EXPECT_EQ(folded, fnv1a(bytes.data(), bytes.size()));
}

// ---------------------------------------------------------------------------
// ReproFile encode/decode

ReproFile sample_file() {
  ReproFile f;
  f.config.n = 24;
  f.config.seed = 99;
  f.config.rounds = 128;
  f.config.protocol = Protocol::kCongos;
  f.config.congos.tau = 2;
  f.config.congos.allow_degenerate = false;
  f.config.continuous.inject_prob = 0.03;
  f.config.continuous.dest_min = 2;
  f.config.continuous.dest_max = 5;
  f.config.continuous.deadlines = {48, 96};
  f.config.churn = adversary::RandomChurn::Options{};
  f.config.churn->crash_prob = 0.01;
  f.config.measure_from = 96;
  f.config.lazy_fraction = 0.125;
  f.config.faults.drop_rate = 0.05;
  f.config.faults.delay_rate = 0.25;
  f.config.faults.max_delay = 2;
  f.config.faults.seed = 31337;
  f.config.congos.retransmit.enabled = true;
  f.config.congos.retransmit.budget = 4;
  f.config.congos.retransmit.max_link_delay = 2;
  f.label = "unit";
  f.reason = "encode/decode round trip";
  f.decisions.push_back(
      {3, Decision::Kind::kCrash, 7, sim::PartialDelivery::kDropAll, {}, 0, 0});
  f.decisions.push_back({5, Decision::Kind::kInject, 2,
                         sim::PartialDelivery::kDeliverAll, RumorUid{2, 1}, 4,
                         48});
  f.round_deliveries = {0, 3, 9, 12};
  f.trace_hash = 0xFEEDFACE;
  f.total_messages = 1000;
  f.leaks = 1;
  f.faults_by_kind[0] = 17;
  f.faults_by_kind[2] = 4;
  f.duplicates_suppressed = 9;
  f.trace_tail = "round 3: crash p7\n";
  return f;
}

TEST(ReproFile, EncodeDecodeRoundTrip) {
  const ReproFile f = sample_file();
  const auto bytes = replay::encode(f);

  ReproFile g;
  std::string error;
  ASSERT_TRUE(replay::decode(bytes, &g, &error)) << error;

  EXPECT_EQ(g.config.n, f.config.n);
  EXPECT_EQ(g.config.seed, f.config.seed);
  EXPECT_EQ(g.config.rounds, f.config.rounds);
  EXPECT_EQ(g.config.protocol, f.config.protocol);
  EXPECT_EQ(g.config.congos.tau, f.config.congos.tau);
  EXPECT_EQ(g.config.congos.allow_degenerate, f.config.congos.allow_degenerate);
  EXPECT_EQ(g.config.continuous.inject_prob, f.config.continuous.inject_prob);
  EXPECT_EQ(g.config.continuous.deadlines, f.config.continuous.deadlines);
  ASSERT_TRUE(g.config.churn.has_value());
  EXPECT_EQ(g.config.churn->crash_prob, f.config.churn->crash_prob);
  EXPECT_EQ(g.config.measure_from, f.config.measure_from);
  EXPECT_EQ(g.config.lazy_fraction, f.config.lazy_fraction);
  EXPECT_EQ(g.label, f.label);
  EXPECT_EQ(g.reason, f.reason);
  EXPECT_EQ(g.decisions, f.decisions);
  EXPECT_EQ(g.round_deliveries, f.round_deliveries);
  EXPECT_EQ(g.trace_hash, f.trace_hash);
  EXPECT_EQ(g.total_messages, f.total_messages);
  EXPECT_EQ(g.leaks, f.leaks);
  EXPECT_EQ(g.config.faults, f.config.faults);
  EXPECT_EQ(g.config.congos.retransmit, f.config.congos.retransmit);
  for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k) {
    EXPECT_EQ(g.faults_by_kind[k], f.faults_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(g.duplicates_suppressed, f.duplicates_suppressed);
  EXPECT_EQ(g.wire_codec_version, f.wire_codec_version);
  EXPECT_EQ(g.trace_tail, f.trace_tail);
}

/// Re-stamps the trailing whole-file checksum after an in-place edit, so
/// only the field-level checks can reject the file.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t sum = fnv1a(bytes.data(), body);
  for (int b = 0; b < 8; ++b) {
    bytes[body + b] = static_cast<std::uint8_t>(sum >> (8 * b));
  }
}

TEST(ReproFile, RejectsVersion1Artifacts) {
  // A byte-exact v1 artifact (written before the fault layer and the wire
  // codec existed; its byte totals came from a fixed-width size model).
  // Only the current version loads: the decoder must refuse it by version,
  // not misparse it as a v3 layout.
  ByteWriter w;
  w.u32(replay::kReproMagic);
  w.u32(1);  // version 1
  // config (v1 layout: everything up to min_drain, nothing after)
  w.u64(8);               // n
  w.u64(5);               // seed
  w.i64(32);              // rounds
  w.u8(0);                // protocol = kCongos
  w.u32(1);               // congos.tau
  w.f64(1.0);             // congos.partition_c
  w.f64(48.0);            // congos.fanout_exponent
  w.f64(1.0);             // congos.fanout_c
  w.u32(2);               // congos.gossip_fanout
  w.u8(0);                // congos.gossip_strategy
  w.i64(48);              // congos.direct_threshold
  w.i64(1024);            // congos.max_effective_deadline
  w.f64(2.0 / 3.0);       // congos.gd_alive_factor
  w.boolean(true);        // congos.allow_degenerate
  w.u64(7);               // congos.partition_seed
  w.u8(1);                // workload = kContinuous
  w.f64(0.02);            // continuous.inject_prob
  w.u64(2);               // continuous.dest_min
  w.u64(8);               // continuous.dest_max
  w.vec_i64({64});        // continuous.deadlines
  w.u64(16);              // continuous.payload_len
  w.i64(-1);              // continuous.last_injection_round
  w.boolean(false);       // continuous.opaque_ids
  w.f64(4.0);             // theorem1.x
  w.i64(64);              // theorem1.dmax
  w.u64(16);              // theorem1.payload_len
  w.boolean(false);       // no churn
  w.boolean(false);       // no crash_on_service
  w.boolean(false);       // no crash_senders
  w.i64(0);               // measure_from
  w.f64(0.0);             // lazy_fraction
  w.u32(3);               // baseline_fanout
  w.boolean(true);        // audit_confidentiality
  w.i64(0);               // min_drain
  // trailer (v1 layout: no fault counters)
  w.str("v1-artifact");
  w.str("compat pin");
  w.u64(0);               // decisions
  w.vec_u64({1, 2, 3});   // round_deliveries
  w.u64(0xABCD);          // trace_hash
  w.u64(10);              // total_messages
  w.u64(100);             // total_bytes
  w.u64(1);               // injected
  w.u64(0);               // crashes
  w.u64(0);               // restarts
  w.u64(0);               // leaks
  w.u64(0);               // foreign_fragments
  w.u64(1);               // qod_delivered_on_time
  w.u64(0);               // qod_late
  w.u64(0);               // qod_missing
  w.u64(0);               // qod_data_mismatches
  w.str("");              // trace_tail
  auto bytes = w.take();
  bytes.resize(bytes.size() + 8);
  reseal(bytes);

  ReproFile out;
  std::string error;
  EXPECT_FALSE(replay::decode(bytes, &out, &error));
  EXPECT_EQ(error, "unsupported .repro format version");
}

TEST(ReproFile, EncodingIsPinned) {
  // The v3 layout is frozen: the whole encoded image of sample_file() is
  // pinned by its length and FNV-1a hash, so any layout change must come
  // with a kReproVersion bump.
  const auto bytes = replay::encode(sample_file());
  EXPECT_EQ(bytes.size(), 672u);
  EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), 12566219899227019664ull);
}

TEST(ReproFile, RejectsCorruptionEverywhere) {
  const auto bytes = replay::encode(sample_file());
  // Flip one bit at a spread of positions; decode must fail every time
  // (magic, checksum or a bounds check catches it).
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    auto copy = bytes;
    copy[pos] ^= 0x10;
    ReproFile out;
    EXPECT_FALSE(replay::decode(copy, &out))
        << "bit flip at byte " << pos << " was accepted";
  }
}

TEST(ReproFile, RejectsTruncation) {
  const auto bytes = replay::encode(sample_file());
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{15},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> copy(bytes.begin(), bytes.begin() + len);
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(copy, &out, &error))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(ReproFile, RejectsBadMagicAndVersion) {
  auto bytes = replay::encode(sample_file());
  {
    auto copy = bytes;
    copy[0] ^= 0xFF;
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(copy, &out, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
  // Any version but kReproVersion is refused, older and newer alike (v1
  // and v2 predate the wire codec). The checksum is re-stamped so only the
  // version check can reject the file.
  for (std::uint8_t version : {1, 2, 4}) {
    auto copy = bytes;
    copy[4] = version;
    reseal(copy);
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(copy, &out, &error)) << "version " << int{version};
    EXPECT_EQ(error, "unsupported .repro format version");
  }
}

TEST(ReproFile, Recordability) {
  ScenarioConfig cfg;
  std::string why;
  EXPECT_TRUE(replay::is_recordable(cfg, &why)) << why;

  ScenarioConfig with_gen = cfg;
  with_gen.continuous.dest_gen = [](sim::Engine&, ProcessId) {
    return DynamicBitset(4);
  };
  EXPECT_FALSE(replay::is_recordable(with_gen, &why));

  adversary::OneShot extra({});
  ScenarioConfig with_adv = cfg;
  with_adv.extra_adversaries.push_back(&extra);
  EXPECT_FALSE(replay::is_recordable(with_adv));

  // Observers are passive: they never block recording.
  sim::TraceLog trace;
  ScenarioConfig with_obs = cfg;
  with_obs.extra_observers.push_back(&trace);
  EXPECT_TRUE(replay::is_recordable(with_obs, &why)) << why;
}

// ---------------------------------------------------------------------------
// Recorded runs and replay

ScenarioConfig small_config(std::uint64_t seed, Protocol proto) {
  ScenarioConfig cfg;
  cfg.protocol = proto;
  cfg.n = 16;
  cfg.seed = seed;
  cfg.rounds = 64;
  cfg.continuous.inject_prob = 0.05;
  cfg.continuous.deadlines = {32};
  cfg.churn = adversary::RandomChurn::Options{};
  cfg.churn->crash_prob = 0.01;
  cfg.churn->restart_prob = 0.05;
  cfg.churn->min_alive = 4;
  return cfg;
}

TEST(RecordedRun, ObserversArePassive) {
  const ScenarioConfig cfg = small_config(7, Protocol::kCongos);
  const ScenarioResult plain = harness::run_scenario(cfg);
  const auto recorded = harness::run_recorded(cfg, "test", "passivity");

  EXPECT_EQ(plain.total_messages, recorded.result.total_messages);
  EXPECT_EQ(plain.total_bytes, recorded.result.total_bytes);
  EXPECT_EQ(plain.injected, recorded.result.injected);
  EXPECT_EQ(plain.crashes, recorded.result.crashes);
  EXPECT_EQ(plain.qod.delivered_on_time, recorded.result.qod.delivered_on_time);
  EXPECT_EQ(plain.leaks, recorded.result.leaks);
  EXPECT_FALSE(recorded.repro.trace_tail.empty());
}

// The headline property: write -> read -> re-run reproduces the identical
// ScenarioResult and the identical golden trace hash, across a seed grid and
// across protocols.
TEST(Replay, ByteIdenticalAcrossSeedGrid) {
  for (Protocol proto : {Protocol::kCongos, Protocol::kPlainGossip}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 20260805ull}) {
      SCOPED_TRACE(std::string(harness::to_string(proto)) + " seed " +
                   std::to_string(seed));
      const ScenarioConfig cfg = small_config(seed, proto);
      const auto recorded = harness::run_recorded(cfg, "grid", "property test");

      // Through the full serialization path, not just in-memory.
      const auto bytes = replay::encode(recorded.repro);
      ReproFile loaded;
      std::string error;
      ASSERT_TRUE(replay::decode(bytes, &loaded, &error)) << error;

      const harness::ReplayReport report = harness::replay_file(loaded);
      EXPECT_TRUE(report.complete);
      EXPECT_TRUE(report.verified());
      EXPECT_EQ(report.trace_hash, recorded.repro.trace_hash);
      EXPECT_EQ(report.result.total_messages, recorded.result.total_messages);
      EXPECT_EQ(report.result.total_bytes, recorded.result.total_bytes);
      EXPECT_EQ(report.result.injected, recorded.result.injected);
      EXPECT_EQ(report.result.crashes, recorded.result.crashes);
      EXPECT_EQ(report.result.restarts, recorded.result.restarts);
      EXPECT_EQ(report.result.leaks, recorded.result.leaks);
      EXPECT_EQ(report.result.qod.delivered_on_time,
                recorded.result.qod.delivered_on_time);
      EXPECT_EQ(report.result.qod.missing, recorded.result.qod.missing);
    }
  }
}

TEST(Replay, PrefixReplayVerifiesPrefix) {
  const ScenarioConfig cfg = small_config(11, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg);

  harness::ReplayOptions opt;
  opt.until_round = 24;
  const auto report = harness::replay_file(recorded.repro, opt);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.executed_rounds, 24);
  EXPECT_TRUE(report.counts_match);
  EXPECT_TRUE(report.decisions_match);
  EXPECT_TRUE(report.verified());
}

TEST(Replay, DetectsTamperedObservations) {
  const ScenarioConfig cfg = small_config(13, Protocol::kCongos);
  auto recorded = harness::run_recorded(cfg);

  // Tamper with a mid-run count: the replay itself still executes fine but
  // verification must pinpoint the divergence.
  ASSERT_GT(recorded.repro.round_deliveries.size(), 10u);
  recorded.repro.round_deliveries[10] += 1;
  recorded.repro.trace_hash ^= 1;  // keep hash_match from masking the count
  const auto report = harness::replay_file(recorded.repro);
  EXPECT_FALSE(report.verified());
  EXPECT_FALSE(report.counts_match);
  EXPECT_EQ(report.first_count_divergence, 10);
}

TEST(Replay, FileRoundTripThroughDisk) {
  const ScenarioConfig cfg = small_config(17, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg, "disk", "io round trip");

  const std::string path = ::testing::TempDir() + "/replay_io_test.repro";
  ASSERT_TRUE(replay::write_file(path, recorded.repro));
  ReproFile loaded;
  std::string error;
  ASSERT_TRUE(replay::read_file(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.trace_hash, recorded.repro.trace_hash);
  EXPECT_EQ(loaded.decisions, recorded.repro.decisions);
  std::remove(path.c_str());

  EXPECT_FALSE(replay::read_file(path + ".missing", &loaded, &error));
}

// ---------------------------------------------------------------------------
// Sweep artifact dumping

TEST(SweepArtifacts, FailingScenarioEmitsLoadableRepro) {
  // Plain gossip floods rumors to non-destinations, so the confidentiality
  // auditor always flags it: every grid entry fails and dumps an artifact.
  std::vector<ScenarioConfig> grid;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    grid.push_back(small_config(seed, Protocol::kPlainGossip));
  }
  // And one healthy scenario that must NOT produce an artifact.
  grid.push_back(small_config(4, Protocol::kCongos));

  const std::string dir = ::testing::TempDir() + "/repro_artifacts";
  harness::SweepRunner::Options opts;
  opts.threads = 2;  // exercise the pooled path
  opts.progress = false;
  opts.label = "leaktest";
  opts.artifact_dir = dir.c_str();
  harness::SweepRunner runner(opts);

  const auto results = runner.run(grid);
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(harness::scenario_failed(results[i])) << "grid entry " << i;
  }
  EXPECT_FALSE(harness::scenario_failed(results[3]));
  ASSERT_EQ(runner.artifacts().size(), 3u);

  // Every artifact loads and replays verified.
  for (const std::string& path : runner.artifacts()) {
    SCOPED_TRACE(path);
    ReproFile loaded;
    std::string error;
    ASSERT_TRUE(replay::read_file(path, &loaded, &error)) << error;
    EXPECT_EQ(loaded.label, "leaktest");
    EXPECT_GT(loaded.leaks, 0u);
    const auto report = harness::replay_file(loaded);
    EXPECT_TRUE(report.verified());
    EXPECT_EQ(report.result.leaks, loaded.leaks);
    std::remove(path.c_str());
  }
}

TEST(SweepArtifacts, EmptyDirDisablesDumping) {
  std::vector<ScenarioConfig> grid = {small_config(1, Protocol::kPlainGossip)};
  harness::SweepRunner::Options opts;
  opts.progress = false;
  opts.artifact_dir = "";  // explicit off, regardless of CONGOS_REPRO_DIR
  harness::SweepRunner runner(opts);
  const auto results = runner.run(grid);
  EXPECT_TRUE(harness::scenario_failed(results[0]));
  EXPECT_TRUE(runner.artifacts().empty());
}

// ---------------------------------------------------------------------------
// Engine checkpoints

TEST(Checkpoint, RewindReproducesTheTail) {
  const ScenarioConfig cfg = small_config(23, Protocol::kCongos);
  harness::ScenarioRun run(cfg);
  const Round mid = run.total_rounds() / 2;
  run.run_until(mid);

  sim::Engine& eng = run.engine();
  const sim::EngineCheckpoint cp = eng.save_checkpoint();
  ASSERT_TRUE(cp.complete);
  EXPECT_EQ(cp.now, mid);

  replay::DecisionRecorder first;
  eng.add_observer(&first);
  run.run_all();
  ASSERT_TRUE(run.finished());
  const std::vector<std::uint64_t> tail = first.round_deliveries();
  const auto decisions = first.decisions();

  ASSERT_TRUE(eng.restore_checkpoint(cp));
  EXPECT_EQ(eng.now(), mid);
  EXPECT_FALSE(run.finished());

  replay::DecisionRecorder second;
  eng.add_observer(&second);
  run.run_all();
  EXPECT_EQ(second.round_deliveries(), tail);
  EXPECT_EQ(second.decisions(), decisions);
}

TEST(Checkpoint, RestoreCanRepeat) {
  // A checkpoint is not consumed by restore: rewinding twice replays the
  // same tail both times.
  const ScenarioConfig cfg = small_config(29, Protocol::kCongos);
  harness::ScenarioRun run(cfg);
  run.run_until(20);
  sim::Engine& eng = run.engine();
  const sim::EngineCheckpoint cp = eng.save_checkpoint();
  ASSERT_TRUE(cp.complete);

  // One recorder stays attached across both rewinds (observers cannot be
  // detached), so its count stream is the first tail followed by the second.
  replay::DecisionRecorder rec;
  eng.add_observer(&rec);
  run.run_until(40);
  const std::vector<std::uint64_t> tail0 = rec.round_deliveries();
  ASSERT_EQ(tail0.size(), 20u);

  ASSERT_TRUE(eng.restore_checkpoint(cp));
  run.run_until(40);
  const auto& all = rec.round_deliveries();
  ASSERT_EQ(all.size(), 40u);
  const std::vector<std::uint64_t> tail1(all.begin() + 20, all.end());
  EXPECT_EQ(tail0, tail1);
}

TEST(Checkpoint, RewindUnderFaultsReproducesTheTail) {
  // Regression for the restore_sent_total bug: a checkpoint must rewind ALL
  // round-boundary network state - under faults that includes the in-flight
  // delayed queue and the dedicated fault Rng. If either is missed, the tail
  // after a rewind delivers a different envelope stream.
  ScenarioConfig cfg = small_config(37, Protocol::kCongos);
  cfg.faults.drop_rate = 0.1;
  cfg.faults.dup_rate = 0.1;
  cfg.faults.delay_rate = 0.2;
  cfg.faults.max_delay = 2;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.max_link_delay = 2;

  harness::ScenarioRun run(cfg);
  const Round mid = run.total_rounds() / 2;
  run.run_until(mid);

  sim::Engine& eng = run.engine();
  ASSERT_TRUE(eng.network().faults_enabled());
  const sim::EngineCheckpoint cp = eng.save_checkpoint();
  ASSERT_TRUE(cp.complete);

  replay::DecisionRecorder first;
  eng.add_observer(&first);
  run.run_all();
  const std::vector<std::uint64_t> tail = first.round_deliveries();
  const std::uint64_t faults_after =
      eng.stats().fault_total();

  ASSERT_TRUE(eng.restore_checkpoint(cp));
  EXPECT_EQ(eng.now(), mid);
  EXPECT_EQ(eng.network().in_flight_delayed(), cp.network.delayed.size());

  replay::DecisionRecorder second;
  eng.add_observer(&second);
  run.run_all();
  EXPECT_EQ(second.round_deliveries(), tail)
      << "delayed queue or fault Rng not rewound";
  EXPECT_EQ(eng.stats().fault_total(), faults_after)
      << "fault counters not rewound with the stats checkpoint";
  EXPECT_GT(faults_after, 0u);
}

/// A process without snapshot support: checkpoints of engines containing it
/// are incomplete and must refuse to restore.
class NoSnapshotProcess final : public sim::Process {
 public:
  using sim::Process::Process;
  void on_restart(Round) override {}
  void send_phase(Round, sim::Sender&) override {}
  void receive_phase(Round, std::span<const sim::Envelope>) override {}
};

TEST(Checkpoint, IncompleteCheckpointRefusesRestore) {
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (ProcessId p = 0; p < 4; ++p) {
    procs.push_back(std::make_unique<NoSnapshotProcess>(p));
  }
  sim::Engine eng(std::move(procs), 1);
  eng.run(3);
  const sim::EngineCheckpoint cp = eng.save_checkpoint();
  EXPECT_FALSE(cp.complete);
  EXPECT_FALSE(eng.restore_checkpoint(cp));
  EXPECT_EQ(eng.now(), 3);  // left untouched
}

}  // namespace
}  // namespace congos
