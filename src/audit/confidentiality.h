// ConfidentialityAuditor: machine-checks Definition 2 (and its collusion
// variant) on every execution.
//
// Registered as an ExecutionObserver, it inspects every *delivered* envelope,
// feeds a KnowledgeTracker with the rumor data and fragment payloads each
// process has seen, and flags:
//   * kFullLeak          - a process outside rho.D (and not the source) saw
//                          the whole datum;
//   * kFragmentSetLeak   - such a process saw all groups' fragments of some
//                          partition (it can XOR them into the datum);
//   * kForeignFragment   - such a process saw a fragment of a group it does
//                          not belong to (stronger, structural invariant of
//                          CONGOS: [PROXY:CONFIDENTIAL] + [GD:CONFIDENTIAL]);
//   * coalition queries  - whether any coalition of <= tau curious processes
//                          could pool fragments into the datum (Lemma 14).
//
// The auditor is protocol-independent: it knows the wire payload types, not
// the protocol state. Plain (non-confidential) gossip runs produce nonzero
// kFullLeak counts by design - that is experiment E2's contrast column.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "audit/knowledge.h"
#include "common/flat_set.h"
#include "partition/partition.h"
#include "sim/engine.h"

namespace congos::audit {

enum class ViolationKind : std::uint8_t {
  kFullLeak,
  kFragmentSetLeak,
  kForeignFragment,
};

struct Violation {
  ViolationKind kind = ViolationKind::kFullLeak;
  ProcessId process = kNoProcess;
  RumorUid rumor;
  Round when = 0;
};

class ConfidentialityAuditor final : public sim::ExecutionObserver {
 public:
  /// `partitions` may be null (baseline protocols); when provided, the
  /// foreign-fragment structural check is enabled.
  ConfidentialityAuditor(std::size_t n,
                         const partition::PartitionSet* partitions = nullptr);

  // -- ExecutionObserver ------------------------------------------------------
  void on_inject(const sim::Rumor& rumor, Round now) override;
  void on_envelope_delivered(const sim::Envelope& e, Round now) override;

  // -- results ---------------------------------------------------------------

  /// The first record of each (kind, process, rumor); a repeated foreign
  /// fragment is counted by count() but not recorded again.
  const std::vector<Violation>& violations() const { return violations_; }
  /// Violations of `kind`, one per observation.
  std::uint64_t count(ViolationKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// Confidentiality violations in the paper's sense (Definition 2): a
  /// non-destination learned (or could reconstruct) a rumor.
  std::uint64_t leaks() const {
    return count(ViolationKind::kFullLeak) + count(ViolationKind::kFragmentSetLeak);
  }

  const KnowledgeTracker& knowledge() const { return knowledge_; }

  /// True iff some coalition of `tau` *curious* processes (outside the
  /// rumor's destination set and source) can reconstruct `uid`. Exact under
  /// CONGOS's structural invariant (each curious process holds at most its
  /// own group per partition): a partition is breakable iff every group's
  /// fragment escaped to some curious process and tau >= num_groups.
  bool breakable_by_coalition(const RumorUid& uid, std::size_t tau) const;

  /// Smallest curious coalition able to reconstruct `uid` (1 if a single
  /// curious process can reconstruct it; SIZE_MAX if impossible so far).
  std::size_t min_breaking_coalition(const RumorUid& uid) const;

  /// Minimum of min_breaking_coalition over every injected rumor: the size
  /// of the smallest coalition that could break *some* rumor (SIZE_MAX when
  /// no rumor is breakable). Lemma 14 predicts > tau for CONGOS.
  std::size_t weakest_rumor_coalition() const;

  /// Payload types the auditor did not recognize (should stay 0 in tests of
  /// protocols the auditor supports).
  std::uint64_t unknown_payloads() const { return unknown_payloads_; }

 private:
  const partition::PartitionSet* partitions_;
  KnowledgeTracker knowledge_;
  std::array<std::uint64_t, 3> counts_{};  // by ViolationKind
  std::vector<Violation> violations_;
  FlatSet<std::uint64_t> foreign_recorded_;  // rumor id << 32 | process
  std::uint64_t unknown_payloads_ = 0;

  void flag(ViolationKind kind, ProcessId p, const RumorUid& uid, Round now, bool record);
  void saw_fragments(ProcessId p, std::span<const core::Fragment> frags, Round now);
  void saw_full(ProcessId p, const RumorUid& uid, Round now);
};

}  // namespace congos::audit
