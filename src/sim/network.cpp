#include "sim/network.h"

#include "common/assert.h"
#include "wire/envelope.h"

namespace congos::sim {

const char* to_string(ServiceKind k) {
  switch (k) {
    case ServiceKind::kGroupGossip: return "group-gossip";
    case ServiceKind::kAllGossip: return "all-gossip";
    case ServiceKind::kProxy: return "proxy";
    case ServiceKind::kGroupDistribution: return "group-dist";
    case ServiceKind::kFallback: return "fallback";
    case ServiceKind::kBaseline: return "baseline";
    case ServiceKind::kOther: return "other";
  }
  return "?";
}

void Network::submit(Envelope e) {
  CONGOS_ASSERT_MSG(e.from < n_ && e.to < n_, "envelope endpoints out of range");
  if (stats_ != nullptr) {
    // The exact v1 frame size encode_envelope() would emit (header-only
    // SizeSink walk, allocation-free).
    stats_->note_sent(e.tag.kind, wire::encoded_envelope_size(e, round_));
  }
  ++sent_total_;
  pending_.push_back(std::move(e));
}

bool Network::apply_faults(const Envelope& e) {
  if (partition_cuts(faults_, round_, e.from, e.to)) {
    if (stats_ != nullptr) stats_->note_fault(FaultKind::kPartitioned, e.tag.kind);
    return false;
  }
  if (faults_.drop_rate > 0.0 && fault_rng_.chance(faults_.drop_rate)) {
    if (stats_ != nullptr) stats_->note_fault(FaultKind::kDropped, e.tag.kind);
    return false;
  }
  if (faults_.delay_rate > 0.0 && fault_rng_.chance(faults_.delay_rate)) {
    const auto span = static_cast<std::uint64_t>(std::max<Round>(faults_.max_delay, 1));
    const Round lateness = 1 + static_cast<Round>(fault_rng_.next_below(span));
    delayed_.push_back(DelayedEnvelope{e, round_ + lateness});
    if (stats_ != nullptr) stats_->note_fault(FaultKind::kDelayed, e.tag.kind);
    return false;
  }
  if (faults_.dup_rate > 0.0 && fault_rng_.chance(faults_.dup_rate)) {
    // The duplicate is a late copy: same body (shared), due 1..max_delay
    // rounds from now, on top of the on-time delivery below.
    const auto span = static_cast<std::uint64_t>(std::max<Round>(faults_.max_delay, 1));
    const Round lateness = 1 + static_cast<Round>(fault_rng_.next_below(span));
    delayed_.push_back(DelayedEnvelope{e, round_ + lateness});
    if (stats_ != nullptr) stats_->note_fault(FaultKind::kDuplicated, e.tag.kind);
  }
  return true;
}

void Network::release_delayed(const std::vector<PartialDelivery>& in_policy,
                              const DynamicBitset& in_filtered,
                              DeliveryObserver* observer) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < delayed_.size(); ++i) {
    DelayedEnvelope& d = delayed_[i];
    if (d.due > round_) {
      if (kept != i) delayed_[kept] = std::move(d);
      ++kept;
      continue;
    }
    Envelope& e = d.env;
    // The sender-side crash filter was already applied the round the
    // envelope entered the network; only the receiver's state at the
    // release round matters now. kRandom would need an engine-RNG draw,
    // which would shift the trace of every later round, so a delayed
    // envelope caught in any receive filter is simply lost - the fault
    // layer may only ever remove deliveries, never add engine randomness.
    if (in_filtered.test(e.to) && in_policy[e.to] != PartialDelivery::kDeliverAll) continue;
    if (observer != nullptr) observer->on_delivered(e);
    inboxes_[e.to].push_back(std::move(e));
  }
  delayed_.resize(kept);
}

void Network::deliver(const std::vector<PartialDelivery>& out_policy,
                      const DynamicBitset& out_filtered,
                      const std::vector<PartialDelivery>& in_policy,
                      const DynamicBitset& in_filtered, Rng& rng,
                      DeliveryObserver* observer) {
  // Keep a headroom margin above the global high-water mark. Per-round
  // inbox sizes are a binomial tail: records creep past the previous
  // maximum by one or two, and a record round would otherwise pay a
  // push_back reallocation. Keying on the *global* maximum (all inboxes
  // draw from the same distribution) makes the bound converge within a few
  // rounds instead of creeping per inbox, and the margin check plus
  // geometric growth keeps re-reservations O(log) over the whole run -
  // steady-state rounds stay allocation-free (tests/test_alloc.cpp pins
  // this).
  const std::size_t want = 2 * inbox_high_water_ + 16;
  for (std::size_t p = 0; p < n_; ++p) {
    if (inboxes_[p].capacity() < inbox_high_water_ + 8) inboxes_[p].reserve(want);
  }
  // Late envelopes come due at the start of the delivery phase, ahead of
  // anything submitted this round (they were sent in an earlier round).
  if (faults_enabled_ && !delayed_.empty()) {
    release_delayed(in_policy, in_filtered, observer);
  }
  for (auto& e : pending_) {
    bool keep = true;
    if (out_filtered.test(e.from)) {
      switch (out_policy[e.from]) {
        case PartialDelivery::kDeliverAll: break;
        case PartialDelivery::kDropAll: keep = false; break;
        case PartialDelivery::kRandom: keep = rng.chance(0.5); break;
      }
    }
    if (keep && in_filtered.test(e.to)) {
      switch (in_policy[e.to]) {
        case PartialDelivery::kDeliverAll: break;
        case PartialDelivery::kDropAll: keep = false; break;
        case PartialDelivery::kRandom: keep = rng.chance(0.5); break;
      }
    }
    if (!keep) continue;
    if (faults_enabled_ && !apply_faults(e)) continue;
    if (observer != nullptr) observer->on_delivered(e);
    inboxes_[e.to].push_back(std::move(e));
  }
  pending_.clear();  // keeps capacity: the buffer is reused next round
}

void Network::end_round() {
  for (std::size_t p = 0; p < n_; ++p) {
    auto& box = inboxes_[p];
    if (box.size() > inbox_high_water_) inbox_high_water_ = box.size();
    box.clear();
  }
  ++round_;
}

NetworkCheckpoint Network::checkpoint() const {
  NetworkCheckpoint cp;
  cp.sent_total = sent_total_;
  cp.inbox_high_water = inbox_high_water_;
  cp.round = round_;
  cp.delayed = delayed_;
  cp.fault_rng = fault_rng_;
  return cp;
}

void Network::restore(const NetworkCheckpoint& cp) {
  sent_total_ = cp.sent_total;
  inbox_high_water_ = cp.inbox_high_water;
  round_ = cp.round;
  delayed_ = cp.delayed;
  fault_rng_ = cp.fault_rng;
}

}  // namespace congos::sim
