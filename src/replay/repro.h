// Self-contained reproduction artifacts (.repro files).
//
// A ReproFile captures everything needed to re-execute one scenario
// deterministically and check the re-execution against the original run:
//
//   * the full ScenarioConfig (protocol, CONGOS knobs, workload and failure
//     pattern options, seeds) — the execution is a pure function of this,
//   * the adversary decision trace actually taken (every crash, restart and
//     injection, with round, victim and partial-delivery policy),
//   * the per-round delivered-envelope counts and their FNV-1a hash (the
//     same golden-trace hash the regression tests pin),
//   * a summary of the original ScenarioResult,
//   * a human-readable TraceLog tail and a free-form reason string.
//
// The binary layout is versioned ("CGRP" magic + format version) and ends in
// a whole-file FNV-1a checksum; decode() rejects truncation, corruption and
// unknown versions. Snapshots (sim::EngineCheckpoint) are intentionally NOT
// serialized: process state reaches gigabytes and re-execution from the
// config is exact, so the file only needs the inputs plus the expected
// observations. See DESIGN.md section 7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "sim/network.h"

namespace congos::replay {

inline constexpr std::uint32_t kReproMagic = 0x50524743;  // "CGRP" little-endian
/// The only version decode() accepts. Version 3 carries the link-fault and
/// retransmission configs, the fault counter totals and the wire codec
/// version the original run's byte accounting used. Versions 1 and 2
/// predate the wire codec, so their byte totals are not comparable to any
/// current run; they are rejected.
inline constexpr std::uint32_t kReproVersion = 3;

/// One adversary decision, in execution order. Crash/restart decisions carry
/// the partial-delivery policy; injections carry the rumor identity and its
/// shape (destination count, deadline) — payload bytes are reproduced by the
/// workload, not stored.
struct Decision {
  enum class Kind : std::uint8_t { kCrash = 0, kRestart = 1, kInject = 2 };

  Round round = 0;
  Kind kind = Kind::kCrash;
  ProcessId process = 0;                                        // victim / source
  sim::PartialDelivery policy = sim::PartialDelivery::kDeliverAll;  // crash/restart
  RumorUid rumor;                                               // inject
  std::uint64_t dest_count = 0;                                 // inject
  Round deadline = 0;                                           // inject

  friend bool operator==(const Decision&, const Decision&) = default;
};

struct ReproFile {
  harness::ScenarioConfig config;

  /// Where the artifact came from (sweep label, grid index) and why it was
  /// written (auditor verdict). Informational only.
  std::string label;
  std::string reason;

  /// Adversary decision trace of the original run.
  std::vector<Decision> decisions;

  /// Per-round delivered-envelope counts of the original run, and their
  /// FNV-1a hash (replay must reproduce this hash byte-identically).
  std::vector<std::uint64_t> round_deliveries;
  std::uint64_t trace_hash = 0;

  /// Key aggregates of the original ScenarioResult, for --diff-golden.
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t injected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t leaks = 0;
  std::uint64_t foreign_fragments = 0;
  std::uint64_t qod_delivered_on_time = 0;
  std::uint64_t qod_late = 0;
  std::uint64_t qod_missing = 0;
  std::uint64_t qod_data_mismatches = 0;

  /// Link-fault counter totals of the original run (zero for fault-free
  /// runs). Indexed by sim::FaultKind.
  std::uint64_t faults_by_kind[sim::kNumFaultKinds] = {};
  std::uint64_t duplicates_suppressed = 0;

  /// wire::kWireFormatVersion at record time. total_bytes above is only
  /// comparable across runs that serialized with the same codec version.
  std::uint32_t wire_codec_version = 0;

  /// Human-readable TraceLog tail of the original run (empty when tracing
  /// was off). Never parsed — for eyes only.
  std::string trace_tail;
};

/// A config is recordable iff the execution is a pure function of its
/// serializable fields: no custom destination generator (std::function) and
/// no external adversary components. Returns false and explains in `why`
/// (when non-null) otherwise. extra_observers are passive and do not block
/// recording.
bool is_recordable(const harness::ScenarioConfig& cfg, std::string* why = nullptr);

/// Serialize to the versioned checksummed byte layout.
std::vector<std::uint8_t> encode(const ReproFile& file);

/// Parse bytes produced by encode(). Returns false on bad magic, unknown
/// version, checksum mismatch, truncation, or out-of-range enum values;
/// `error` (when non-null) describes the first problem found.
bool decode(const std::vector<std::uint8_t>& bytes, ReproFile* out,
            std::string* error = nullptr);

/// encode() + atomic-ish write (write to path, no temp file: artifacts land
/// in per-run directories). Returns false on I/O failure.
bool write_file(const std::string& path, const ReproFile& file);

/// Slurp + decode(). Returns false on I/O or parse failure.
bool read_file(const std::string& path, ReproFile* out,
               std::string* error = nullptr);

}  // namespace congos::replay
