// Rumor fragments and every CONGOS wire payload type.
//
// A fragment is one XOR share of a rumor, bound to a (partition, group):
// fragment (uid, l, g) is the share that group g of partition l is allowed
// to hold. Fragment *metadata* (destination set, deadline, identifiers) is
// not confidential - the paper discusses hiding it in Section 7 - but the
// payload bytes of any proper subset of a partition's fragments are
// information-theoretically independent of the rumor.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/xor_share.h"
#include "common/bitset.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/rumor.h"
#include "wire/wire.h"

namespace congos::core {

struct FragmentKey {
  RumorUid rumor;
  PartitionIndex partition = 0;
  GroupIndex group = 0;

  friend bool operator==(const FragmentKey&, const FragmentKey&) = default;
  friend auto operator<=>(const FragmentKey&, const FragmentKey&) = default;
};

struct FragmentKeyHash {
  std::size_t operator()(const FragmentKey& k) const noexcept {
    std::uint64_t x = pack(k.rumor) ^ (static_cast<std::uint64_t>(k.partition) << 48) ^
                      (static_cast<std::uint64_t>(k.group) << 40);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// Metadata carried with each fragment (the paper: destination set, deadline
/// and counter ride along; they reveal nothing about the datum).
struct FragmentMeta {
  FragmentKey key;
  DynamicBitset dest;          // the original rumor's destination set
  Round expires_at = 0;        // absolute trimmed deadline of the rumor
  Round dline = 0;             // effective deadline class (power of two)
  GroupIndex num_groups = 2;   // fragments per partition (tau + 1)
};

struct Fragment {
  FragmentMeta meta;
  coding::Bytes data;
};

/// v1 wire fields of a fragment's metadata (codec walk, src/wire/wire.h).
template <class S, wire::SameBase<FragmentMeta> M>
void wire_fields(S& s, M& m) {
  s.varint32(m.key.rumor.source);
  s.varint(m.key.rumor.seq);
  s.varint32(m.key.partition);
  s.varint32(m.key.group);
  s.bitset(m.dest);
  s.zigzag(m.expires_at);
  s.zigzag(m.dline);
  s.varint32(m.num_groups);
}

template <class S, wire::SameBase<Fragment> F>
void wire_fields(S& s, F& f) {
  wire_fields(s, f.meta);
  s.bytes(f.data);
}

/// Batched fragment framing (DESIGN.md section 11): consecutive fragments of
/// the same rumor share all rumor-level metadata, so after the first one a
/// flag byte 1 means "inherit the previous fragment's uid / destination set
/// / expiry / deadline class / group count" and only (partition, group,
/// data) are re-encoded. Proxy requests and partials batches are mostly runs
/// of same-rumor fragments, which is where the real bytes shrink. Flag
/// values > 1, or flag 1 on the first fragment, are decode errors.
template <class S, class V>
void wire_fragment_batch(S& s, V& fragments) {
  s.seq(fragments);
  const Fragment* prev = nullptr;
  for (auto& f : fragments) {
    if (!s.ok()) return;
    std::uint8_t share = 0;
    if constexpr (!S::kReading) {
      share = (prev != nullptr && f.meta.key.rumor == prev->meta.key.rumor &&
               f.meta.dest == prev->meta.dest &&
               f.meta.expires_at == prev->meta.expires_at &&
               f.meta.dline == prev->meta.dline &&
               f.meta.num_groups == prev->meta.num_groups)
                  ? 1
                  : 0;
    }
    s.u8(share);
    if constexpr (S::kReading) {
      if (!s.ok() || share > 1 || (share == 1 && prev == nullptr)) {
        s.fail();
        return;
      }
      if (share == 1) f.meta = prev->meta;
    }
    if (share == 1) {
      s.varint32(f.meta.key.partition);
      s.varint32(f.meta.key.group);
    } else {
      wire_fields(s, f.meta);
    }
    s.bytes(f.data);
    prev = &f;
  }
}

// ---------------------------------------------------------------------------
// Network payloads (Envelope bodies)
// ---------------------------------------------------------------------------

/// Proxy[l] request: fragments a process asks members of another group to
/// distribute on its behalf (Fig. 9 round 1). All fragments belong to the
/// receiver's group - [PROXY:CONFIDENTIAL].
struct ProxyRequestPayload final : sim::Payload {
  ProxyRequestPayload() : sim::Payload(sim::PayloadKind::kProxyRequest) {}

  Round dline = 0;  // deadline class, for routing to the right instance
  std::vector<Fragment> fragments;

  std::uint64_t encoded_size() const override;  // defined after the walks

  void reuse() { fragments.clear(); }  // PayloadPool recycle hook
};

/// Proxy[l] acknowledgement (Fig. 9 last iteration round).
struct ProxyAckPayload final : sim::Payload {
  ProxyAckPayload() : sim::Payload(sim::PayloadKind::kProxyAck) {}

  Round dline = 0;

  std::uint64_t encoded_size() const override;

  void reuse() {}  // PayloadPool recycle hook
};

/// GroupDistribution[l] "partials": fragments sent to a process in their
/// destination set (Fig. 10 round 2). Receiver reassembles via
/// ConfidentialGossip - [GD:CONFIDENTIAL] guarantees receiver is in every
/// fragment's destination set.
struct PartialsPayload final : sim::Payload {
  PartialsPayload() : sim::Payload(sim::PayloadKind::kPartials) {}

  Round dline = 0;
  std::vector<Fragment> fragments;

  std::uint64_t encoded_size() const override;

  void reuse() { fragments.clear(); }  // PayloadPool recycle hook
};

/// ConfidentialGossip's direct fallback ("shoot", Fig. 8 line 50): the whole
/// rumor, sent by the source to a destination when the deadline is about to
/// expire without a delivery confirmation.
struct DirectRumorPayload final : sim::Payload {
  DirectRumorPayload() : sim::Payload(sim::PayloadKind::kDirectRumor) {}

  sim::Rumor rumor;

  std::uint64_t encoded_size() const override;

  void reuse() {}  // PayloadPool recycle hook; `rumor` is reassigned on reuse
};

/// Receipt acknowledgement for a PartialsPayload (retransmission mode,
/// DESIGN.md section 10). Metadata only: the deadline class routes the ack
/// back to the sender's GroupDistribution[l] instance; the sender already
/// knows which hits it has in flight towards the acking process.
struct PartialsAckPayload final : sim::Payload {
  PartialsAckPayload() : sim::Payload(sim::PayloadKind::kPartialsAck) {}

  Round dline = 0;

  std::uint64_t encoded_size() const override;

  void reuse() {}  // PayloadPool recycle hook
};

/// Receipt acknowledgement for a DirectRumorPayload (retransmission mode).
/// Carries only the rumor id - the same identifier the confirmation
/// machinery already ships in the clear.
struct DirectAckPayload final : sim::Payload {
  DirectAckPayload() : sim::Payload(sim::PayloadKind::kDirectAck) {}

  RumorUid rumor;

  std::uint64_t encoded_size() const override;

  void reuse() {}  // PayloadPool recycle hook
};

// ---------------------------------------------------------------------------
// Gossip rumor bodies (carried inside gossip::GossipMsg)
// ---------------------------------------------------------------------------

/// A fragment disseminated inside its own group via GroupGossip[l]
/// (ConfidentialGossip step 2).
struct FragmentBody final : sim::Payload {
  FragmentBody() : sim::Payload(sim::PayloadKind::kFragment) {}

  Fragment fragment;

  std::uint64_t encoded_size() const override;
};

/// Proxy[l] intra-group share (Fig. 9 round 2): fragments received as a
/// proxy for this group, the failed-proxies set, and the sender id (which
/// establishes the collaborator set).
struct ProxyShareBody final : sim::Payload {
  ProxyShareBody() : sim::Payload(sim::PayloadKind::kProxyShare) {}

  Round dline = 0;
  std::uint64_t block = 0;
  ProcessId from = kNoProcess;
  std::vector<Fragment> proxied;          // fragments of the *receiving* group
  std::vector<ProcessId> failed_proxies;  // per other-group flattened

  std::uint64_t encoded_size() const override;
};

/// One hitSet entry: fragment of rumor `rumor` was sent to process `target`.
struct Hit {
  ProcessId target = kNoProcess;
  RumorUid rumor;

  friend bool operator==(const Hit&, const Hit&) = default;
  friend auto operator<=>(const Hit&, const Hit&) = default;
};

/// GroupDistribution[l] intra-group share (Fig. 10 round 3): hitSet and
/// sender id (collaborator counting).
struct HitSetShareBody final : sim::Payload {
  HitSetShareBody() : sim::Payload(sim::PayloadKind::kHitSetShare) {}

  Round dline = 0;
  std::uint64_t block = 0;
  ProcessId from = kNoProcess;
  std::vector<Hit> hits;

  std::uint64_t encoded_size() const override;
};

/// AllGossip distribution report (Fig. 10 line 36): sanitized hitSet - which
/// (group g of partition l) fragments of which rumor ids were sent to which
/// processes. Contains identifiers only, never fragment data ([GD:CONFIRM]).
struct DistributionReportBody final : sim::Payload {
  DistributionReportBody() : sim::Payload(sim::PayloadKind::kDistributionReport) {}

  ProcessId reporter = kNoProcess;
  PartitionIndex partition = 0;
  GroupIndex group = 0;  // reporter's group in `partition`
  Round dline = 0;
  std::vector<Hit> hits;

  std::uint64_t encoded_size() const override;
};

/// Splits rumor data into `num_groups` fragments for partition `l`.
/// Fragment g goes to group g. Fresh randomness per partition.
std::vector<Fragment> split_rumor(const sim::Rumor& rumor, PartitionIndex l,
                                  GroupIndex num_groups, Round expires_at, Round dline,
                                  Rng& rng);

// ---------------------------------------------------------------------------
// Codec field walks (one per payload kind) and the size overrides they drive.
// The walks live below the payload classes (complete types); encoded_size()
// definitions live below the walks (ordinary name lookup at definition).
// ---------------------------------------------------------------------------

template <class S, wire::SameBase<ProxyRequestPayload> P>
void wire_fields(S& s, P& p) {
  s.zigzag(p.dline);
  wire_fragment_batch(s, p.fragments);
}

template <class S, wire::SameBase<ProxyAckPayload> P>
void wire_fields(S& s, P& p) {
  s.zigzag(p.dline);
}

template <class S, wire::SameBase<PartialsPayload> P>
void wire_fields(S& s, P& p) {
  s.zigzag(p.dline);
  wire_fragment_batch(s, p.fragments);
}

template <class S, wire::SameBase<DirectRumorPayload> P>
void wire_fields(S& s, P& p) {
  wire_fields(s, p.rumor);
}

template <class S, wire::SameBase<PartialsAckPayload> P>
void wire_fields(S& s, P& p) {
  s.zigzag(p.dline);
}

template <class S, wire::SameBase<DirectAckPayload> P>
void wire_fields(S& s, P& p) {
  s.varint32(p.rumor.source);
  s.varint(p.rumor.seq);
}

template <class S, wire::SameBase<FragmentBody> P>
void wire_fields(S& s, P& p) {
  wire_fields(s, p.fragment);
}

template <class S, wire::SameBase<Hit> H>
void wire_fields(S& s, H& h) {
  s.varint32(h.target);
  s.varint32(h.rumor.source);
  s.varint(h.rumor.seq);
}

template <class S, wire::SameBase<ProxyShareBody> P>
void wire_fields(S& s, P& p) {
  s.zigzag(p.dline);
  s.varint(p.block);
  s.varint32(p.from);
  wire_fragment_batch(s, p.proxied);
  s.seq(p.failed_proxies);
  for (auto& q : p.failed_proxies) {
    if (!s.ok()) return;
    s.varint32(q);
  }
}

template <class S, wire::SameBase<HitSetShareBody> P>
void wire_fields(S& s, P& p) {
  s.zigzag(p.dline);
  s.varint(p.block);
  s.varint32(p.from);
  s.seq(p.hits);
  for (auto& h : p.hits) {
    if (!s.ok()) return;
    wire_fields(s, h);
  }
}

template <class S, wire::SameBase<DistributionReportBody> P>
void wire_fields(S& s, P& p) {
  s.varint32(p.reporter);
  s.varint32(p.partition);
  s.varint32(p.group);
  s.zigzag(p.dline);
  s.seq(p.hits);
  for (auto& h : p.hits) {
    if (!s.ok()) return;
    wire_fields(s, h);
  }
}

template <class P>
std::uint64_t sized_by_walk(const P& p) {
  wire::SizeSink s;
  wire_fields(s, p);
  return s.size();
}

inline std::uint64_t ProxyRequestPayload::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t ProxyAckPayload::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t PartialsPayload::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t DirectRumorPayload::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t PartialsAckPayload::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t DirectAckPayload::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t FragmentBody::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t ProxyShareBody::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t HitSetShareBody::encoded_size() const {
  return sized_by_walk(*this);
}

inline std::uint64_t DistributionReportBody::encoded_size() const {
  return sized_by_walk(*this);
}

}  // namespace congos::core
