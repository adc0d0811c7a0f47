// The auditors audit the protocols; these tests audit the auditors, by
// feeding them synthetic events with planted violations.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <tuple>

#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "baseline/baseline_payload.h"
#include "common/rng.h"
#include "gossip/continuous_gossip.h"
#include "partition/bit_partition.h"
#include "partition/random_partition.h"

namespace congos::audit {
namespace {

sim::Rumor test_rumor(ProcessId src, std::uint64_t seq, std::size_t n,
                      std::vector<std::uint32_t> dest, Round deadline = 64) {
  auto r = sim::make_rumor(src, seq, {1, 2, 3, 4}, deadline,
                           DynamicBitset::from_indices(n, dest));
  r.injected_at = 0;
  return r;
}

core::Fragment frag_for(const sim::Rumor& r, PartitionIndex l, GroupIndex g,
                        GroupIndex groups) {
  core::Fragment f;
  f.meta.key = core::FragmentKey{r.uid, l, g};
  f.meta.dest = r.dest;
  f.meta.expires_at = r.expires_at();
  f.meta.dline = 64;
  f.meta.num_groups = groups;
  f.data = {9, 9, 9, 9};
  return f;
}

sim::Envelope partials_env(ProcessId from, ProcessId to,
                           std::vector<core::Fragment> frags) {
  auto p = std::make_shared<core::PartialsPayload>();
  p->fragments = std::move(frags);
  return sim::Envelope{from, to,
                       sim::ServiceTag{sim::ServiceKind::kGroupDistribution, 0}, p};
}

sim::Envelope direct_env(ProcessId from, ProcessId to, const sim::Rumor& r) {
  auto p = std::make_shared<core::DirectRumorPayload>();
  p->rumor = r;
  return sim::Envelope{from, to, sim::ServiceTag{sim::ServiceKind::kFallback, 0}, p};
}

class ConfAuditorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 8;
  partition::PartitionSet parts = partition::make_bit_partitions(kN);
  ConfidentialityAuditor auditor{kN, &parts};
};

TEST_F(ConfAuditorTest, CleanDeliveryNoViolations) {
  auto r = test_rumor(0, 1, kN, {2, 3});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 2, r), 1);
  auditor.on_envelope_delivered(direct_env(0, 3, r), 1);
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_TRUE(auditor.knowledge().knows_full(2, r.uid));
}

TEST_F(ConfAuditorTest, FullLeakDetected) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 3);  // 5 not in D!
  EXPECT_EQ(auditor.count(ViolationKind::kFullLeak), 1u);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].process, 5u);
  EXPECT_EQ(auditor.violations()[0].when, 3);
}

TEST_F(ConfAuditorTest, FullLeakCountedOncePerProcess) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 3);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 4);
  EXPECT_EQ(auditor.count(ViolationKind::kFullLeak), 1u);
}

TEST_F(ConfAuditorTest, FragmentSetLeakDetected) {
  // A curious process receiving both groups' fragments of partition 0 can
  // XOR them together: that is a Definition-2 violation.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const ProcessId curious = 6;
  auditor.on_envelope_delivered(
      partials_env(0, curious, {frag_for(r, 0, 0, 2)}), 1);
  EXPECT_EQ(auditor.leaks(), 0u);  // one fragment alone is harmless
  auditor.on_envelope_delivered(
      partials_env(1, curious, {frag_for(r, 0, 1, 2)}), 2);
  EXPECT_EQ(auditor.count(ViolationKind::kFragmentSetLeak), 1u);
  EXPECT_TRUE(auditor.knowledge().can_reconstruct(curious, r.uid));
}

TEST_F(ConfAuditorTest, FragmentsAcrossPartitionsDoNotReconstruct) {
  // Fragments of *different* partitions never combine.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const ProcessId curious = 6;
  auditor.on_envelope_delivered(partials_env(0, curious, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, curious, {frag_for(r, 1, 1, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, curious, {frag_for(r, 2, 0, 2)}), 1);
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_FALSE(auditor.knowledge().can_reconstruct(curious, r.uid));
}

TEST_F(ConfAuditorTest, ForeignFragmentDetected) {
  // Process 6 is in group (6>>0)&1 = 0 of partition 0; handing it a group-1
  // fragment breaks the structural invariant even if it cannot reconstruct.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 1);
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), 1u);
  EXPECT_EQ(auditor.leaks(), 0u);
}

TEST_F(ConfAuditorTest, DestinationsMayKnowEverything) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 2, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(1, 2, {frag_for(r, 0, 1, 2)}), 1);
  auditor.on_envelope_delivered(direct_env(0, 2, r), 2);
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), 0u);
}

TEST_F(ConfAuditorTest, CoalitionAnalysis) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  // Give curious 4 the group-0 fragment and curious 5 the group-1 fragment
  // of partition 0 (process 4 is in group 0, 5 in group 1: structural ok).
  auditor.on_envelope_delivered(partials_env(0, 4, {frag_for(r, 0, 0, 2)}), 1);
  EXPECT_EQ(auditor.min_breaking_coalition(r.uid), SIZE_MAX);
  auditor.on_envelope_delivered(partials_env(0, 5, {frag_for(r, 0, 1, 2)}), 1);
  EXPECT_EQ(auditor.min_breaking_coalition(r.uid), 2u);
  EXPECT_FALSE(auditor.breakable_by_coalition(r.uid, 1));
  EXPECT_TRUE(auditor.breakable_by_coalition(r.uid, 2));
  EXPECT_TRUE(
      auditor.knowledge().coalition_can_reconstruct({4, 5}, r.uid));
  EXPECT_FALSE(auditor.knowledge().coalition_can_reconstruct({4}, r.uid));
}

TEST_F(ConfAuditorTest, BaselineWholePayloadsTracked) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auto whole = std::make_shared<baseline::BaselineRumorPayload>();
  whole->rumor = r;
  auditor.on_envelope_delivered(
      sim::Envelope{0, 7, sim::ServiceTag{sim::ServiceKind::kBaseline, 0}, whole}, 1);
  EXPECT_EQ(auditor.count(ViolationKind::kFullLeak), 1u);
}

TEST_F(ConfAuditorTest, RepeatedForeignFragmentCountsEverySightingRecordsOnce) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  for (Round t = 1; t <= 3; ++t) {
    auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), t);
  }
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), 3u);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].when, 1);
}

TEST_F(ConfAuditorTest, FragmentSetLeakFiresOnce) {
  // Completing partition 0, then repeating it, then completing partition 1:
  // the process could reconstruct from the first completion on.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const ProcessId curious = 6;
  for (int rep = 0; rep < 2; ++rep) {
    auditor.on_envelope_delivered(
        partials_env(0, curious, {frag_for(r, 0, 0, 2), frag_for(r, 0, 1, 2)}), 1);
  }
  auditor.on_envelope_delivered(
      partials_env(0, curious, {frag_for(r, 1, 0, 2), frag_for(r, 1, 1, 2)}), 2);
  EXPECT_EQ(auditor.count(ViolationKind::kFragmentSetLeak), 1u);
  EXPECT_EQ(auditor.leaks(), 1u);
}

// -- differential test against the per-process nested-map model -------------

/// The tracker and auditor logic the rumor-major KnowledgeTracker replaced:
/// per process, a map from rumor to (num_groups, partition -> group mask),
/// plus a set of fully known rumors. Records are bounded by the same rule
/// as the auditor: first record per (kind, process, rumor).
class ReferenceAuditor {
 public:
  ReferenceAuditor(std::size_t n, const partition::PartitionSet& parts)
      : n_(n), parts_(parts), frags_(n), full_(n) {}

  void inject(const sim::Rumor& r) { rumors_.emplace(r.uid, r.dest); }

  void fragment(ProcessId p, const core::Fragment& f, Round now) {
    const RumorUid uid = f.meta.key.rumor;
    const bool could_before = can_reconstruct(p, uid);
    PerRumor& pr = frags_[p][uid];
    pr.num_groups = f.meta.num_groups;
    pr.masks[f.meta.key.partition] |= 1ull << f.meta.key.group;
    if (!curious(p, uid)) return;
    if (parts_[f.meta.key.partition].group_of(p) != f.meta.key.group) {
      flag(ViolationKind::kForeignFragment, p, uid, now);
    }
    if (!could_before && can_reconstruct(p, uid)) {
      flag(ViolationKind::kFragmentSetLeak, p, uid, now);
    }
  }

  void full(ProcessId p, const RumorUid& uid, Round now) {
    if (full_[p].insert(uid).second && curious(p, uid)) {
      flag(ViolationKind::kFullLeak, p, uid, now);
    }
  }

  bool knows_full(ProcessId p, const RumorUid& uid) const {
    return full_[p].count(uid) > 0;
  }

  std::uint64_t fragment_mask(ProcessId p, const RumorUid& uid, PartitionIndex l) const {
    auto it = frags_[p].find(uid);
    if (it == frags_[p].end()) return 0;
    auto mit = it->second.masks.find(l);
    return mit == it->second.masks.end() ? 0 : mit->second;
  }

  bool can_reconstruct(ProcessId p, const RumorUid& uid) const {
    if (knows_full(p, uid)) return true;
    auto it = frags_[p].find(uid);
    if (it == frags_[p].end()) return false;
    const std::uint64_t want = all_groups_mask(it->second.num_groups);
    for (const auto& [l, mask] : it->second.masks) {
      if ((mask & want) == want) return true;
    }
    return false;
  }

  bool coalition_can_reconstruct(const std::vector<ProcessId>& coalition,
                                 const RumorUid& uid) const {
    GroupIndex groups = 0;
    std::map<PartitionIndex, std::uint64_t> merged;
    for (ProcessId p : coalition) {
      if (knows_full(p, uid)) return true;
      auto it = frags_[p].find(uid);
      if (it == frags_[p].end()) continue;
      groups = std::max(groups, it->second.num_groups);
      for (const auto& [l, mask] : it->second.masks) merged[l] |= mask;
    }
    if (groups == 0) return false;
    const std::uint64_t want = all_groups_mask(groups);
    for (const auto& [l, mask] : merged) {
      if ((mask & want) == want) return true;
    }
    return false;
  }

  std::size_t min_breaking_coalition(const RumorUid& uid) const {
    if (rumors_.count(uid) == 0) return SIZE_MAX;
    std::map<PartitionIndex, std::uint64_t> escaped;
    for (ProcessId p = 0; p < n_; ++p) {
      if (!curious(p, uid)) continue;
      if (can_reconstruct(p, uid)) return 1;
      auto it = frags_[p].find(uid);
      if (it == frags_[p].end()) continue;
      for (const auto& [l, mask] : it->second.masks) escaped[l] |= mask;
    }
    const GroupIndex groups = parts_[0].num_groups();
    const std::uint64_t want = all_groups_mask(groups);
    for (const auto& [l, mask] : escaped) {
      if ((mask & want) == want) return groups;
    }
    return SIZE_MAX;
  }

  std::size_t weakest_rumor_coalition() const {
    std::size_t best = SIZE_MAX;
    for (const auto& [uid, _] : rumors_) {
      best = std::min(best, min_breaking_coalition(uid));
    }
    return best;
  }

  std::array<std::uint64_t, 3> counts{};
  std::vector<Violation> records;

 private:
  struct PerRumor {
    GroupIndex num_groups = 0;
    std::map<PartitionIndex, std::uint64_t> masks;
  };

  bool curious(ProcessId p, const RumorUid& uid) const {
    auto it = rumors_.find(uid);
    return it != rumors_.end() && p != uid.source && !it->second.test(p);
  }

  void flag(ViolationKind kind, ProcessId p, const RumorUid& uid, Round now) {
    ++counts[static_cast<std::size_t>(kind)];
    if (recorded_.insert({static_cast<int>(kind), p, uid}).second) {
      records.push_back(Violation{kind, p, uid, now});
    }
  }

  std::size_t n_;
  const partition::PartitionSet& parts_;
  std::map<RumorUid, DynamicBitset> rumors_;
  std::vector<std::map<RumorUid, PerRumor>> frags_;
  std::vector<std::set<RumorUid>> full_;
  std::set<std::tuple<int, ProcessId, RumorUid>> recorded_;
};

sim::PayloadPtr gossip_of(std::vector<sim::PayloadPtr> bodies) {
  auto msg = std::make_shared<gossip::GossipMsg>();
  for (auto& b : bodies) {
    msg->rumors.push_back(gossip::GossipRumor{0, 0, 0, {}, std::move(b)});
  }
  return msg;
}

/// Drives one randomized stream through the auditor and the reference model
/// and compares every verdict and query along the way.
class AuditorDiff {
 public:
  AuditorDiff(std::uint32_t tau, std::uint64_t seed)
      : rng_(seed),
        parts_([&] {
          Rng prng(seed ^ 0x9a27ull);
          return partition::make_congos_partitions(kN, tau, prng);
        }()),
        groups_(parts_[0].num_groups()),
        auditor_(kN, &parts_),
        ref_(kN, parts_) {
    // Rumors 0-5 get injected (some only mid-stream); 6-7 never are.
    for (std::uint64_t i = 0; i < 8; ++i) {
      const auto src = static_cast<ProcessId>(rng_.next_below(kN));
      std::vector<std::uint32_t> dest;
      for (std::uint32_t p = 0; p < kN; ++p) {
        if (rng_.chance(0.3)) dest.push_back(p);
      }
      rumors_.push_back(test_rumor(src, i, kN, dest));
    }
  }

  void run(std::size_t events, double foreign_prob, double full_prob) {
    for (std::size_t i = 0; i < 3; ++i) inject(i);
    for (std::size_t e = 0; e < events; ++e) {
      if (e == events / 2) {
        for (std::size_t i = 3; i < 6; ++i) inject(i);
      }
      deliver(static_cast<Round>(e), foreign_prob, full_prob);
      if (e % 64 == 63) compare();
    }
    compare();
  }

 private:
  static constexpr std::size_t kN = 12;

  void inject(std::size_t i) {
    auditor_.on_inject(rumors_[i], 0);
    ref_.inject(rumors_[i]);
  }

  core::Fragment random_fragment(ProcessId to, double foreign_prob) {
    const auto& r = rumors_[rng_.next_below(rumors_.size())];
    const auto l = static_cast<PartitionIndex>(rng_.next_below(parts_.count()));
    const GroupIndex g = rng_.chance(foreign_prob)
                             ? static_cast<GroupIndex>(rng_.next_below(groups_))
                             : parts_[l].group_of(to);
    return frag_for(r, l, g, groups_);
  }

  void deliver(Round now, double foreign_prob, double full_prob) {
    const auto to = static_cast<ProcessId>(rng_.next_below(kN));
    sim::PayloadPtr body;
    if (rng_.chance(0.1) && !history_.empty()) {
      // A duplicate of an earlier delivery, verbatim.
      const auto& [old_to, old_body] = history_[rng_.next_below(history_.size())];
      replay(old_to, old_body, now);
      return;
    }
    if (rng_.chance(full_prob)) {
      const sim::Rumor& r = rumors_[rng_.next_below(rumors_.size())];
      switch (rng_.next_below(4)) {
        case 0: {
          auto p = std::make_shared<core::DirectRumorPayload>();
          p->rumor = r;
          body = p;
          break;
        }
        case 1: {
          auto p = std::make_shared<baseline::BaselineRumorPayload>();
          p->rumor = r;
          body = p;
          break;
        }
        case 2: {
          auto p = std::make_shared<baseline::BaselineBatchPayload>();
          p->rumors = {r, rumors_[rng_.next_below(rumors_.size())]};
          body = p;
          break;
        }
        default: {
          auto p = std::make_shared<baseline::BaselineRumorPayload>();
          p->rumor = r;
          body = gossip_of({p});
        }
      }
    } else {
      std::vector<core::Fragment> frags;
      const std::size_t k = 1 + rng_.next_below(3);
      for (std::size_t i = 0; i < k; ++i) {
        frags.push_back(random_fragment(to, foreign_prob));
      }
      switch (rng_.next_below(4)) {
        case 0: {
          auto p = std::make_shared<core::PartialsPayload>();
          p->fragments = std::move(frags);
          body = p;
          break;
        }
        case 1: {
          auto p = std::make_shared<core::ProxyRequestPayload>();
          p->fragments = std::move(frags);
          body = p;
          break;
        }
        case 2: {
          auto p = std::make_shared<core::ProxyShareBody>();
          p->proxied = std::move(frags);
          body = gossip_of({p});
          break;
        }
        default: {
          std::vector<sim::PayloadPtr> bodies;
          for (auto& f : frags) {
            auto p = std::make_shared<core::FragmentBody>();
            p->fragment = std::move(f);
            bodies.push_back(p);
          }
          body = gossip_of(std::move(bodies));
        }
      }
    }
    history_.emplace_back(to, body);
    replay(to, body, now);
  }

  // Feed one delivery to both sides: the auditor as an envelope, the model
  // as the sightings that envelope carries, in the same order.
  void replay(ProcessId to, const sim::PayloadPtr& body, Round now) {
    auditor_.on_envelope_delivered(
        sim::Envelope{0, to, sim::ServiceTag{sim::ServiceKind::kGroupDistribution, 0},
                      body},
        now);
    const auto frags = [&](const std::vector<core::Fragment>& fs) {
      for (const auto& f : fs) ref_.fragment(to, f, now);
    };
    switch (body->kind()) {
      case sim::PayloadKind::kPartials:
        frags(static_cast<const core::PartialsPayload&>(*body).fragments);
        break;
      case sim::PayloadKind::kProxyRequest:
        frags(static_cast<const core::ProxyRequestPayload&>(*body).fragments);
        break;
      case sim::PayloadKind::kDirectRumor:
        ref_.full(to, static_cast<const core::DirectRumorPayload&>(*body).rumor.uid, now);
        break;
      case sim::PayloadKind::kBaselineRumor:
        ref_.full(to, static_cast<const baseline::BaselineRumorPayload&>(*body).rumor.uid,
                  now);
        break;
      case sim::PayloadKind::kBaselineBatch:
        for (const auto& r :
             static_cast<const baseline::BaselineBatchPayload&>(*body).rumors) {
          ref_.full(to, r.uid, now);
        }
        break;
      default:
        for (const auto& gr : static_cast<const gossip::GossipMsg&>(*body).rumors) {
          const sim::Payload& inner = *gr.body;
          if (inner.kind() == sim::PayloadKind::kFragment) {
            ref_.fragment(to, static_cast<const core::FragmentBody&>(inner).fragment,
                          now);
          } else if (inner.kind() == sim::PayloadKind::kProxyShare) {
            frags(static_cast<const core::ProxyShareBody&>(inner).proxied);
          } else {
            ref_.full(to,
                      static_cast<const baseline::BaselineRumorPayload&>(inner).rumor.uid,
                      now);
          }
        }
    }
  }

  void compare() {
    for (auto kind : {ViolationKind::kFullLeak, ViolationKind::kFragmentSetLeak,
                      ViolationKind::kForeignFragment}) {
      EXPECT_EQ(auditor_.count(kind), ref_.counts[static_cast<std::size_t>(kind)])
          << "kind " << static_cast<int>(kind);
    }
    ASSERT_EQ(auditor_.violations().size(), ref_.records.size());
    for (std::size_t i = 0; i < ref_.records.size(); ++i) {
      const Violation& a = auditor_.violations()[i];
      const Violation& b = ref_.records[i];
      EXPECT_TRUE(a.kind == b.kind && a.process == b.process && a.rumor == b.rumor &&
                  a.when == b.when)
          << "record " << i;
    }
    EXPECT_EQ(auditor_.unknown_payloads(), 0u);
    const KnowledgeTracker& k = auditor_.knowledge();
    for (const auto& r : rumors_) {
      for (ProcessId p = 0; p < kN; ++p) {
        EXPECT_EQ(k.knows_full(p, r.uid), ref_.knows_full(p, r.uid));
        EXPECT_EQ(k.can_reconstruct(p, r.uid), ref_.can_reconstruct(p, r.uid));
        EXPECT_EQ(k.coalition_can_reconstruct({p}, r.uid),
                  ref_.coalition_can_reconstruct({p}, r.uid));
        for (PartitionIndex l = 0; l < parts_.count(); ++l) {
          EXPECT_EQ(k.fragment_mask(p, r.uid, l), ref_.fragment_mask(p, r.uid, l));
        }
        for (ProcessId q = p + 1; q < kN; ++q) {
          EXPECT_EQ(k.coalition_can_reconstruct({p, q}, r.uid),
                    ref_.coalition_can_reconstruct({p, q}, r.uid));
        }
      }
      const std::vector<ProcessId> trio = {static_cast<ProcessId>(rng_.next_below(kN)),
                                           static_cast<ProcessId>(rng_.next_below(kN)),
                                           static_cast<ProcessId>(rng_.next_below(kN))};
      EXPECT_EQ(k.coalition_can_reconstruct(trio, r.uid),
                ref_.coalition_can_reconstruct(trio, r.uid));
      EXPECT_EQ(auditor_.min_breaking_coalition(r.uid),
                ref_.min_breaking_coalition(r.uid));
    }
    EXPECT_EQ(auditor_.weakest_rumor_coalition(), ref_.weakest_rumor_coalition());
  }

  Rng rng_;
  partition::PartitionSet parts_;
  GroupIndex groups_;
  ConfidentialityAuditor auditor_;
  ReferenceAuditor ref_;
  std::vector<sim::Rumor> rumors_;
  std::vector<std::pair<ProcessId, sim::PayloadPtr>> history_;
};

TEST(ConfAuditorDiff, MatchesNestedMapModelOnRandomStreams) {
  for (std::uint32_t tau : {1u, 2u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << "tau " << tau << " seed " << seed);
      // Even seeds keep fragments structural (curious processes hold only
      // their own group), so coalition sizes above 1 are reachable.
      const double foreign = seed % 2 == 0 ? 0.0 : 0.3;
      const double full = seed % 3 == 0 ? 0.0 : 0.1;
      AuditorDiff(tau, seed).run(400, foreign, full);
    }
  }
}

// ---------------------------------------------------------------------------

class QodAuditorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4;
  DeliveryAuditor auditor{kN};
};

TEST_F(QodAuditorTest, OnTimeDeliveryIsOk) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_rumor_delivered(1, r.uid, 4, r.data);
  auditor.on_rumor_delivered(2, r.uid, 10, r.data);  // exactly at deadline
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 2u);
  EXPECT_EQ(rep.delivered_on_time, 2u);
  EXPECT_TRUE(rep.ok());
  EXPECT_NEAR(rep.mean_latency, 7.0, 1e-9);
}

TEST_F(QodAuditorTest, LateAndMissingDetected) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_rumor_delivered(1, r.uid, 11, r.data);  // one round late
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.late, 1u);
  EXPECT_EQ(rep.missing, 1u);
  EXPECT_FALSE(rep.ok());
}

TEST_F(QodAuditorTest, DataMismatchDetected) {
  auto r = test_rumor(0, 1, kN, {1}, 10);
  auditor.on_inject(r, 0);
  const std::vector<std::uint8_t> wrong = {9, 9, 9, 9};
  auditor.on_rumor_delivered(1, r.uid, 4, wrong);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.data_mismatches, 1u);
}

TEST_F(QodAuditorTest, CrashedDestinationIsNotAdmissible) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_crash(2, 5);  // destination 2 dies mid-window
  auditor.on_rumor_delivered(1, r.uid, 4, r.data);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 1u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, CrashedSourceExemptsAllDestinations) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_crash(0, 3);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 0u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, RestartBeforeInjectionDoesNotExempt) {
  auditor.on_crash(1, 2);
  auditor.on_restart(1, 5);
  auto r = test_rumor(0, 1, kN, {1}, 10);
  r.injected_at = 8;  // injected after 1 is back up
  auditor.on_inject(r, 8);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 1u);
  EXPECT_EQ(rep.missing, 1u);
}

TEST_F(QodAuditorTest, BonusDeliveriesCounted) {
  auto r = test_rumor(0, 1, kN, {1}, 10);
  auditor.on_inject(r, 0);
  auditor.on_crash(1, 5);
  auditor.on_restart(1, 6);
  auditor.on_rumor_delivered(1, r.uid, 8, r.data);  // delivered anyway
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 0u);
  EXPECT_EQ(rep.bonus_deliveries, 1u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, ContinuouslyAliveLogic) {
  auditor.on_crash(1, 10);
  auditor.on_restart(1, 20);
  EXPECT_TRUE(auditor.continuously_alive(1, 0, 9));
  EXPECT_FALSE(auditor.continuously_alive(1, 0, 10));
  EXPECT_FALSE(auditor.continuously_alive(1, 10, 15));
  EXPECT_FALSE(auditor.continuously_alive(1, 15, 25));  // dead at start
  EXPECT_TRUE(auditor.continuously_alive(1, 21, 100));
  EXPECT_TRUE(auditor.continuously_alive(0, 0, 1000));  // never touched
}

TEST_F(QodAuditorTest, InFlightRumorsAreSkipped) {
  auto r = test_rumor(0, 1, kN, {1}, 50);
  auditor.on_inject(r, 0);
  auto rep = auditor.finalize(10);  // deadline (50) not yet reached
  EXPECT_EQ(rep.rumors, 0u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, DuplicateDeliveriesKeepFirst) {
  auto r = test_rumor(0, 1, kN, {1}, 10);
  auditor.on_inject(r, 0);
  auditor.on_rumor_delivered(1, r.uid, 3, r.data);
  auditor.on_rumor_delivered(1, r.uid, 9, r.data);
  EXPECT_EQ(auditor.delivery_round(r.uid, 1), 3);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.delivered_on_time, 1u);
}

}  // namespace
}  // namespace congos::audit
