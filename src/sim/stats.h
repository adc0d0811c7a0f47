// Per-round, per-service message accounting.
//
// The paper's efficiency metric (Definition 3) is the maximum number of
// point-to-point messages sent in any single round. MessageStats tracks that
// maximum, per service and overall, plus totals, so experiments can report
// both the headline metric and the per-service breakdown of Lemma 7.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "sim/message.h"

namespace congos::sim {

constexpr std::size_t kNumServiceKinds = 7;

/// What the link-fault layer did to an envelope (src/sim/faults.h). Counted
/// here so the tallies ride the existing stats checkpoint/rewind machinery.
enum class FaultKind : std::uint8_t {
  kDropped,      // lost to random per-envelope loss
  kDuplicated,   // an extra delayed copy was scheduled
  kDelayed,      // held back 1..max_delay rounds
  kPartitioned,  // lost crossing an active transient cut
};
constexpr std::size_t kNumFaultKinds = 4;

const char* to_string(FaultKind f);

class MessageStats {
 public:
  /// Record one sent message (counted even if later lost to a crash:
  /// Definition 3 counts messages *sent*). `bytes` is the actual serialized
  /// size under the wire codec (envelope frame included). All byte counters
  /// are std::uint64_t end-to-end — large-n sweeps overflow 32 bits.
  void note_sent(ServiceKind kind, std::uint64_t bytes = 0) {
    current_[static_cast<std::size_t>(kind)] += 1;
    current_bytes_ += bytes;
    bytes_by_kind_[static_cast<std::size_t>(kind)] += bytes;
  }

  /// Record one fault-layer event against the envelope's service.
  void note_fault(FaultKind f, ServiceKind kind) {
    faults_[static_cast<std::size_t>(f)][static_cast<std::size_t>(kind)] += 1;
  }

  /// Close the accounting for round `t`.
  void end_round(Round t);

  // -- queries ------------------------------------------------------------

  std::uint64_t total_sent() const { return total_all_; }
  std::uint64_t total_sent(ServiceKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }

  /// Maximum messages sent in any single round, across all services.
  std::uint64_t max_per_round() const { return max_all_; }
  std::uint64_t max_per_round(ServiceKind kind) const {
    return max_[static_cast<std::size_t>(kind)];
  }

  Round max_round() const { return max_round_; }
  std::uint64_t rounds_recorded() const { return rounds_; }

  double mean_per_round() const {
    return rounds_ == 0 ? 0.0 : static_cast<double>(total_all_) / static_cast<double>(rounds_);
  }

  /// Per-round totals, in round order (for percentile computations).
  const std::vector<std::uint64_t>& per_round_totals() const { return per_round_; }

  /// p-th percentile (0..100) of per-round totals over rounds >= start.
  /// EXPERIMENTS.md mandates steady-state measurement, so percentile queries
  /// take the same warm-up exclusion as max_from()/mean_from().
  std::uint64_t percentile_from(Round start, double p) const;
  /// p-th percentile (0..100) of per-round totals, whole run.
  std::uint64_t percentile(double p) const { return percentile_from(0, p); }

  /// Maximum per-round total over rounds >= start (warm-up exclusion).
  std::uint64_t max_from(Round start) const;
  /// Same, restricted to one service kind.
  std::uint64_t max_from(Round start, ServiceKind kind) const;
  /// Mean per-round total over rounds >= start.
  double mean_from(Round start) const;
  /// Total messages of one kind over rounds >= start.
  std::uint64_t total_from(Round start, ServiceKind kind) const;

  // -- link faults ------------------------------------------------------------

  std::uint64_t faults(FaultKind f) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : faults_[static_cast<std::size_t>(f)]) total += c;
    return total;
  }
  std::uint64_t faults(FaultKind f, ServiceKind kind) const {
    return faults_[static_cast<std::size_t>(f)][static_cast<std::size_t>(kind)];
  }
  std::uint64_t fault_total() const {
    std::uint64_t total = 0;
    for (std::size_t f = 0; f < kNumFaultKinds; ++f) {
      total += faults(static_cast<FaultKind>(f));
    }
    return total;
  }

  // -- communication complexity (bytes) --------------------------------------

  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Whole-run serialized bytes attributed to one service (the by-service
  /// split of total_bytes(); E15 reports the breakdown).
  std::uint64_t total_bytes(ServiceKind kind) const {
    return bytes_by_kind_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t max_bytes_per_round() const { return max_bytes_; }
  /// Maximum bytes in a round over rounds >= start.
  std::uint64_t max_bytes_from(Round start) const;
  double mean_bytes_per_round() const {
    return rounds_ == 0 ? 0.0
                        : static_cast<double>(total_bytes_) /
                              static_cast<double>(rounds_);
  }

  void reset();

  /// Pre-size the per-round histories for `rounds` additional rounds so
  /// steady-state end_round() calls never reallocate (DESIGN.md section 9).
  void reserve_rounds(std::size_t rounds) {
    per_round_.reserve(per_round_.size() + rounds);
    per_round_by_kind_.reserve(per_round_by_kind_.size() + rounds);
    per_round_bytes_.reserve(per_round_bytes_.size() + rounds);
  }

 private:
  std::array<std::uint64_t, kNumServiceKinds> current_{};
  std::array<std::uint64_t, kNumServiceKinds> totals_{};
  std::array<std::uint64_t, kNumServiceKinds> max_{};
  std::uint64_t max_all_ = 0;
  std::uint64_t total_all_ = 0;
  Round max_round_ = kNoRound;
  std::uint64_t rounds_ = 0;
  std::vector<std::uint64_t> per_round_;
  std::vector<std::array<std::uint64_t, kNumServiceKinds>> per_round_by_kind_;
  std::uint64_t current_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t max_bytes_ = 0;
  std::array<std::uint64_t, kNumServiceKinds> bytes_by_kind_{};
  std::vector<std::uint64_t> per_round_bytes_;

  // The byte accumulation path must never narrow: a 1M-process sweep sends
  // >2^32 bytes in well under a minute of simulated time.
  static_assert(std::is_same_v<decltype(current_bytes_), std::uint64_t>);
  static_assert(std::is_same_v<decltype(total_bytes_), std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(bytes_by_kind_)::value_type, std::uint64_t>);
  /// fault kind x service kind tallies (src/sim/faults.h). Value state like
  /// everything else here: copied into checkpoints and rewound with them.
  std::array<std::array<std::uint64_t, kNumServiceKinds>, kNumFaultKinds> faults_{};
};

}  // namespace congos::sim
