#include "audit/confidentiality.h"

#include "baseline/baseline_payload.h"
#include "common/assert.h"
#include "gossip/continuous_gossip.h"

namespace congos::audit {

ConfidentialityAuditor::ConfidentialityAuditor(std::size_t n,
                                               const partition::PartitionSet* partitions)
    : partitions_(partitions),
      knowledge_(n, partitions != nullptr ? partitions->count() : 0) {}

void ConfidentialityAuditor::on_inject(const sim::Rumor& rumor, Round /*now*/) {
  knowledge_.note_inject(knowledge_.intern(rumor.uid), rumor.dest);
}

void ConfidentialityAuditor::flag(ViolationKind kind, ProcessId p, const RumorUid& uid,
                                  Round now, bool record) {
  ++counts_[static_cast<std::size_t>(kind)];
  if (record) violations_.push_back(Violation{kind, p, uid, now});
}

void ConfidentialityAuditor::saw_full(ProcessId p, const RumorUid& uid, Round now) {
  auto& r = knowledge_.intern(uid);
  if (knowledge_.note_full(r, p) && r.curious.test(p)) {
    flag(ViolationKind::kFullLeak, p, uid, now, true);
  }
}

void ConfidentialityAuditor::saw_fragments(ProcessId p,
                                           std::span<const core::Fragment> frags,
                                           Round now) {
  for (const core::Fragment& frag : frags) {
    const core::FragmentKey& key = frag.meta.key;
    auto& r = knowledge_.intern(key.rumor);
    const bool reconstructs = knowledge_.note_fragment(r, p, key, frag.meta.num_groups);
    if (!r.curious.test(p)) continue;
    if (partitions_ != nullptr &&
        (*partitions_)[key.partition].group_of(p) != key.group) {
      flag(ViolationKind::kForeignFragment, p, key.rumor, now,
           foreign_recorded_.insert((std::uint64_t{r.id} << 32) | p).second);
    }
    if (reconstructs) flag(ViolationKind::kFragmentSetLeak, p, key.rumor, now, true);
  }
}

void ConfidentialityAuditor::on_envelope_delivered(const sim::Envelope& e, Round now) {
  const ProcessId p = e.to;
  const sim::Payload* body = e.body.get();
  if (body == nullptr) {
    ++unknown_payloads_;
    return;
  }

  switch (body->kind()) {
    case sim::PayloadKind::kGossipMsg: {
      const auto& msg = static_cast<const gossip::GossipMsg&>(*body);
      for (const auto& r : msg.rumors) {
        const sim::Payload* inner = r.body.get();
        if (inner == nullptr) {
          ++unknown_payloads_;
          continue;
        }
        switch (inner->kind()) {
          case sim::PayloadKind::kFragment:
            saw_fragments(
                p, {&static_cast<const core::FragmentBody*>(inner)->fragment, 1}, now);
            break;
          case sim::PayloadKind::kProxyShare:
            saw_fragments(p, static_cast<const core::ProxyShareBody*>(inner)->proxied,
                          now);
            break;
          case sim::PayloadKind::kHitSetShare:
          case sim::PayloadKind::kDistributionReport:
            break;  // metadata only
          case sim::PayloadKind::kBaselineRumor:
            saw_full(p, static_cast<const baseline::BaselineRumorPayload*>(inner)
                            ->rumor.uid,
                     now);
            break;
          default:
            ++unknown_payloads_;
        }
      }
      return;
    }
    case sim::PayloadKind::kProxyRequest:
      saw_fragments(p, static_cast<const core::ProxyRequestPayload*>(body)->fragments,
                    now);
      return;
    case sim::PayloadKind::kPartials:
      saw_fragments(p, static_cast<const core::PartialsPayload*>(body)->fragments, now);
      return;
    case sim::PayloadKind::kDirectRumor:
      saw_full(p, static_cast<const core::DirectRumorPayload*>(body)->rumor.uid, now);
      return;
    case sim::PayloadKind::kBaselineRumor:
      saw_full(p, static_cast<const baseline::BaselineRumorPayload*>(body)->rumor.uid,
               now);
      return;
    case sim::PayloadKind::kBaselineBatch:
      for (const auto& r : static_cast<const baseline::BaselineBatchPayload*>(body)->rumors) {
        saw_full(p, r.uid, now);
      }
      return;
    case sim::PayloadKind::kGossipAck:
    case sim::PayloadKind::kProxyAck:
    case sim::PayloadKind::kStrongAck:
    case sim::PayloadKind::kPartialsAck:
    case sim::PayloadKind::kDirectAck:
      return;  // metadata only (acks carry deadlines/uids, never rumor data)
    default:
      // Unknown payload type: count it; protocols with private metadata
      // payloads land here harmlessly, but a nonzero count in a CONGOS-only
      // test is a bug.
      ++unknown_payloads_;
  }
}

std::size_t ConfidentialityAuditor::weakest_rumor_coalition() const {
  std::size_t best = SIZE_MAX;
  for (const auto& r : knowledge_.rumors()) {
    best = std::min(best, min_breaking_coalition(r.uid));
  }
  return best;
}

bool ConfidentialityAuditor::breakable_by_coalition(const RumorUid& uid,
                                                    std::size_t tau) const {
  return min_breaking_coalition(uid) <= tau;
}

std::size_t ConfidentialityAuditor::min_breaking_coalition(const RumorUid& uid) const {
  const KnowledgeTracker::Rumor* r = knowledge_.find(uid);
  if (r == nullptr) return SIZE_MAX;
  // No curious process (a rumor never injected) means SIZE_MAX. A single curious
  // process that can already reconstruct is a coalition of 1. Otherwise, per partition,
  // a coalition needs one curious holder per group; under the structural invariant each
  // curious process contributes at most one group per partition, so the minimum is
  // num_groups when every group's fragment escaped, else impossible for that partition.
  if (r->reconstruct.intersects(r->curious)) return 1;
  const GroupIndex groups = (partitions_ != nullptr && partitions_->count() > 0)
                                ? (*partitions_)[0].num_groups()
                                : 0;
  const bool escaped = knowledge_.coalition_can_reconstruct(r->curious.to_vector(), uid);
  return groups != 0 && escaped ? groups : SIZE_MAX;
}

}  // namespace congos::audit
