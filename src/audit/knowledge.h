// KnowledgeTracker: a ground-truth model of what every process has *seen*.
//
// Fed by the confidentiality auditor from actually-delivered envelopes (not
// from protocol state): a process "knows" fragment (uid, l, g) once a
// delivered message carried that fragment's payload bytes, and "knows" rumor
// uid once it saw the whole datum or a complete fragment set for some
// partition. The tracker is deliberately independent of the protocol code it
// audits.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "congos/fragment.h"

namespace congos::audit {

/// The mask with one bit per group of a `groups`-group partition.
constexpr std::uint64_t all_groups_mask(GroupIndex groups) {
  return (groups >= 64) ? ~0ull : ((1ull << groups) - 1);
}

class KnowledgeTracker {
 public:
  /// Everything known about one rumor, over all processes.
  struct Rumor {
    std::uint32_t id = 0;  // index in rumors()
    RumorUid uid;
    DynamicBitset curious;      // outside D and not the source (set by note_inject)
    DynamicBitset full;         // saw the whole datum
    DynamicBitset reconstruct;  // saw the datum or every group of some partition
    GroupIndex num_groups = 0;  // from the rumor's first fragment
    bool injected = false;
    std::vector<std::uint64_t> masks{};  // group masks, partition-major: l*n + p
  };

  /// `partitions` sizes a rumor's masks at its first fragment (0: unknown,
  /// a higher partition index grows them).
  KnowledgeTracker(std::size_t n, std::size_t partitions)
      : n_(n), partitions_(partitions) {}

  /// uid's record, created knowing nothing on first use (one probe).
  Rumor& intern(const RumorUid& uid);
  /// uid's record, or null if nothing about it was ever noted.
  const Rumor* find(const RumorUid& uid) const {
    auto it = index_.find(uid);
    return it == index_.end() ? nullptr : &rumors_[it->second];
  }
  const std::vector<Rumor>& rumors() const { return rumors_; }  // in order of first use

  /// r was injected with destination set `dest`; the first call wins.
  void note_inject(Rumor& r, const DynamicBitset& dest);

  /// Process p saw the payload bytes of fragment `key` of r. True iff p
  /// could not reconstruct r before and can now.
  bool note_fragment(Rumor& r, ProcessId p, const core::FragmentKey& key,
                     GroupIndex num_groups);

  /// Process p saw the whole datum of r. True iff it had not before.
  bool note_full(Rumor& r, ProcessId p) {
    if (r.full.test(p)) return false;
    r.full.set(p);
    r.reconstruct.set(p);
    return true;
  }

  /// True iff p saw the whole datum directly.
  bool knows_full(ProcessId p, const RumorUid& uid) const {
    const Rumor* r = find(uid);
    return r != nullptr && r->full.test(p);
  }

  /// True iff p can reconstruct the rumor: saw it fully, or holds all groups
  /// of some partition.
  bool can_reconstruct(ProcessId p, const RumorUid& uid) const {
    const Rumor* r = find(uid);
    return r != nullptr && r->reconstruct.test(p);
  }

  /// Groups of (uid, partition) whose fragments p has seen, as a bitmask.
  std::uint64_t fragment_mask(ProcessId p, const RumorUid& uid, PartitionIndex l) const {
    const Rumor* r = find(uid);
    const std::size_t at = std::size_t{l} * n_ + p;
    return r != nullptr && at < r->masks.size() ? r->masks[at] : 0;
  }

  /// True iff the union of the coalition's fragments covers all groups of
  /// some partition (or some member knows the rumor outright).
  bool coalition_can_reconstruct(const std::vector<ProcessId>& coalition,
                                 const RumorUid& uid) const;

 private:
  std::size_t n_;
  std::size_t partitions_;
  FlatMap<RumorUid, std::uint32_t> index_;
  std::vector<Rumor> rumors_;
};

}  // namespace congos::audit
