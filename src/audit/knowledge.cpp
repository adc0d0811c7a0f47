#include "audit/knowledge.h"

#include <algorithm>

#include "common/assert.h"

namespace congos::audit {

KnowledgeTracker::Rumor& KnowledgeTracker::intern(const RumorUid& uid) {
  const auto id = static_cast<std::uint32_t>(rumors_.size());
  const auto [it, added] = index_.try_emplace(uid, id);
  if (added) {
    const DynamicBitset none(n_);
    rumors_.push_back(Rumor{id, uid, none, none, none});
  }
  return rumors_[it->second];
}

void KnowledgeTracker::note_inject(Rumor& r, const DynamicBitset& dest) {
  if (r.injected) return;
  r.injected = true;
  r.curious.or_complement(dest);
  if (r.uid.source < n_) r.curious.reset(r.uid.source);
}

bool KnowledgeTracker::note_fragment(Rumor& r, ProcessId p, const core::FragmentKey& key,
                                     GroupIndex num_groups) {
  CONGOS_ASSERT(p < n_);
  CONGOS_ASSERT_MSG(key.group < 64, "group bitmask limited to 64 groups");
  if (r.masks.empty()) r.num_groups = num_groups;
  const std::size_t at = std::size_t{key.partition} * n_ + p;
  if (at >= r.masks.size()) {
    r.masks.resize(std::max<std::size_t>(partitions_, key.partition + 1ull) * n_, 0);
  }
  std::uint64_t& mask = r.masks[at];
  const std::uint64_t bit = 1ull << key.group;
  if ((mask & bit) != 0) return false;
  mask |= bit;
  const std::uint64_t want = all_groups_mask(r.num_groups);
  if ((mask & want) != want || r.reconstruct.test(p)) return false;
  r.reconstruct.set(p);
  return true;
}

bool KnowledgeTracker::coalition_can_reconstruct(
    const std::vector<ProcessId>& coalition, const RumorUid& uid) const {
  const Rumor* r = find(uid);
  if (r == nullptr) return false;
  for (ProcessId p : coalition) {
    if (r->full.test(p)) return true;
  }
  if (r->num_groups == 0) return false;
  const std::uint64_t want = all_groups_mask(r->num_groups);
  for (std::size_t base = 0; base < r->masks.size(); base += n_) {
    std::uint64_t merged = 0;
    for (ProcessId p : coalition) merged |= r->masks[base + p];
    if ((merged & want) == want) return true;
  }
  return false;
}

}  // namespace congos::audit
