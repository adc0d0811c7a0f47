// DecisionRecorder: the passive observer behind .repro artifacts.
//
// Registered as a sim::ExecutionObserver, it captures (a) the adversary
// decision trace — every crash/restart with its partial-delivery policy and
// every injection with the rumor identity — and (b) the per-round delivered
// envelope counts together with their incrementally-folded FNV-1a hash,
// which is bit-identical to the golden-trace hash in tests/test_golden.cpp.
//
// The same class serves recording (fill a ReproFile from a live run) and
// replay verification (re-run and compare hash + decisions against the
// file). It draws no randomness and never touches the engine, so attaching
// it cannot perturb the execution it is recording.
#pragma once

#include "common/fnv.h"
#include "replay/repro.h"
#include "sim/engine.h"

namespace congos::replay {

class DecisionRecorder final : public sim::ExecutionObserver {
 public:
  DecisionRecorder() : hash_(kFnvOffset) {}

  // -- ExecutionObserver ------------------------------------------------------
  void on_crash(ProcessId p, Round now, sim::PartialDelivery policy) override;
  void on_restart(ProcessId p, Round now, sim::PartialDelivery policy) override;
  void on_inject(const sim::Rumor& rumor, Round now) override;
  void on_envelope_delivered(const sim::Envelope& e, Round now) override;
  void on_round_end(Round now) override;

  const std::vector<Decision>& decisions() const { return decisions_; }
  const std::vector<std::uint64_t>& round_deliveries() const { return rounds_; }
  /// Hash of the per-round counts recorded so far.
  std::uint64_t trace_hash() const { return hash_; }

  /// Copy the recorded observations (decision trace, per-round counts, trace
  /// hash) into `file`. The caller fills config, label and result fields.
  void fill(ReproFile* file) const;

  /// Index of the first recorded decision differing from `expected`, or
  /// SIZE_MAX when one trace is a prefix of the other (compare sizes to tell
  /// "identical" from "one stopped early").
  std::size_t first_divergence(const std::vector<Decision>& expected) const;

 private:
  std::vector<Decision> decisions_;
  std::vector<std::uint64_t> rounds_;
  std::uint64_t current_ = 0;
  std::uint64_t hash_;
};

}  // namespace congos::replay
