// Continuous gossip service: our realization of the black box the paper
// imports from [13] (Georgiou, Gilbert, Kowalski, "Meeting the Deadline",
// PODC'10 / Dist. Comp. 2011).
//
// Interface contract used by CONGOS (Section 4.2):
//   * rumors are injected at any time with an absolute deadline and a
//     destination set within a fixed universe (the group, for GroupGossip[l],
//     or [n] for AllGossip);
//   * an admissible rumor (source continuously alive) reaches every
//     continuously-alive destination by its deadline;
//   * per-round message complexity stays bounded.
//
// Realization (documented as a substitution in DESIGN.md section 2): an
// epidemic push protocol - every process holding active rumors forwards all
// of them to `fanout` uniformly random universe members per round. Two
// delivery modes:
//   * best-effort (default): delivery is w.h.p. within O(log |U|) rounds;
//     CONGOS layers its own confirmation + direct-send fallback on top, so
//     end-to-end QoD stays deterministic (exactly the paper's structure).
//   * guaranteed: destinations ack the origin on first receipt and the origin
//     direct-sends to unacked destinations in the round before the deadline,
//     making delivery deterministic for admissible rumors. Used by baselines
//     that have no outer fallback.
//
// All traffic passes a Filter pinned to the universe; in a correct build the
// filter never fires (tests assert this).
#pragma once

#include <functional>
#include <vector>

#include "common/bitset.h"
#include "common/flat_map.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/types.h"
#include "gossip/filter.h"
#include "sim/message.h"
#include "sim/process.h"
#include "wire/wire.h"

namespace congos::gossip {

/// A rumor as carried by the gossip service. `body` is opaque to the service
/// (fragments, metadata records, ...).
struct GossipRumor {
  std::uint64_t gid = 0;  // unique within a service instance
  ProcessId origin = kNoProcess;
  Round deadline_at = 0;  // absolute round
  DynamicBitset dest;     // subset of the universe
  sim::PayloadPtr body;
};

/// Wire payload: a batch of rumors pushed to one peer. One batch is shared
/// between every same-round recipient (push targets, pull repliers, expander
/// neighbors), so the serialized size is memoized: the payload is immutable
/// once handed to a Sender, and encoded_size() is re-queried per recipient
/// by the byte accounting.
struct GossipMsg final : sim::Payload {
  GossipMsg() : sim::Payload(sim::PayloadKind::kGossipMsg) {}

  std::vector<GossipRumor> rumors;

  std::uint64_t encoded_size() const override;  // defined after the walk

  /// PayloadPool recycle hook: a recycled message starts empty.
  void reuse() {
    rumors.clear();
    reset_wire_memo();
  }

  /// Must be called after any in-place mutation of `rumors` (the batch
  /// rebuild reuses one message object across rounds): the count-keyed memo
  /// cannot see content changes that keep the rumor count constant.
  void reset_wire_memo() const { cached_for_count_ = SIZE_MAX; }

 private:
  void refresh_size_memo() const;  // defined after the walk

  mutable std::uint64_t cached_encoded_size_ = 0;
  // Memo is invalidated when the rumor count changes; mutating a rumor
  // in place after a size query is still forbidden (see the class
  // comment: payloads are immutable once handed to a Sender).
  mutable std::size_t cached_for_count_ = SIZE_MAX;
};

/// Wire payload: receipt acknowledgements (guaranteed mode only).
struct GossipAck final : sim::Payload {
  GossipAck() : sim::Payload(sim::PayloadKind::kGossipAck) {}

  std::vector<std::uint64_t> gids;

  std::uint64_t encoded_size() const override;

  void reuse() { gids.clear(); }
};

/// Dissemination strategy.
///
/// * kEpidemicPush - classic randomized gossip: `fanout` uniform targets per
///   round. Matches the randomized protocols the paper cites [19-21].
/// * kExpander - deterministic: a circulant expander graph over the universe
///   (skip offsets derived from a shared seed, degree max(fanout, log2 m));
///   active processes push to all their neighbors every round. This mirrors
///   [13]'s derandomization, which "replaces random choices with carefully
///   chosen expander graphs", and makes the per-round message count of the
///   black box deterministic.
/// * kPushPull - randomized push-pull a la Karp et al. [19]: alongside the
///   pushes, every universe member (even one holding nothing) sends one pull
///   request to a random peer each round; peers answer with their active
///   rumors. Pull closes the "last stragglers" tail that pure push pays
///   Theta(log n) extra rounds for, at the cost of a steady request load.
enum class GossipStrategy : std::uint8_t { kEpidemicPush, kExpander, kPushPull };

/// Wire payload: a pull request (kPushPull); the receiver responds next
/// round with its active rumors.
struct GossipPull final : sim::Payload {
  GossipPull() : sim::Payload(sim::PayloadKind::kGossipPull) {}

  std::uint64_t encoded_size() const override { return 0; }  // stateless body

  void reuse() {}  // stateless; PayloadPool recycle hook
};

// ---------------------------------------------------------------------------
// Codec field walks (src/wire/wire.h). Batches delta-encode their gids: the
// sorted_gids_ invariant keeps batch rumors in ascending gid order, so the
// per-rumor gid shrinks from 8 fixed-width bytes to (usually) 1 byte.
// ---------------------------------------------------------------------------

/// Fields of one rumor record, gid excluded (the containing batch encodes
/// gids as deltas).
template <class S, wire::SameBase<GossipRumor> R>
void wire_rumor_fields(S& s, R& r) {
  s.varint32(r.origin);
  s.zigzag(r.deadline_at);
  s.bitset(r.dest);
  s.nested(r.body);
}

template <class S, wire::SameBase<GossipMsg> M>
void wire_fields(S& s, M& m) {
  s.seq(m.rumors);
  std::uint64_t prev = 0;
  for (auto& r : m.rumors) {
    if (!s.ok()) return;
    if constexpr (S::kReading) {
      std::uint64_t delta = 0;
      s.varint(delta);
      r.gid = prev + delta;  // unsigned wrap-around restores any gid
    } else {
      s.varint(r.gid - prev);  // small for sorted batches; lossless regardless
    }
    prev = r.gid;
    wire_rumor_fields(s, r);
  }
}

/// Ack gids are in arbitrary arrival order, so deltas are zigzag-signed.
template <class S, wire::SameBase<GossipAck> A>
void wire_fields(S& s, A& a) {
  s.seq(a.gids);
  std::uint64_t prev = 0;
  for (auto& g : a.gids) {
    if (!s.ok()) return;
    if constexpr (S::kReading) {
      std::int64_t delta = 0;
      s.zigzag(delta);
      g = prev + static_cast<std::uint64_t>(delta);
    } else {
      s.zigzag(static_cast<std::int64_t>(g - prev));
    }
    prev = g;
  }
}

template <class S, wire::SameBase<GossipPull> P>
void wire_fields(S&, P&) {}  // stateless

inline void GossipMsg::refresh_size_memo() const {
  if (cached_for_count_ == rumors.size()) return;
  wire::SizeSink actual;
  wire_fields(actual, *this);
  cached_encoded_size_ = actual.size();
  cached_for_count_ = rumors.size();
}

inline std::uint64_t GossipMsg::encoded_size() const {
  refresh_size_memo();
  return cached_encoded_size_;
}

inline std::uint64_t GossipAck::encoded_size() const {
  wire::SizeSink s;
  wire_fields(s, *this);
  return s.size();
}

struct GossipConfig {
  sim::ServiceTag tag;      // kGroupGossip/partition or kAllGossip
  DynamicBitset universe;   // membership filter; must include the host
  int fanout = 3;           // push targets per round while active
  bool guaranteed = false;  // ack + origin fallback mode
  GossipStrategy strategy = GossipStrategy::kEpidemicPush;
  /// Seed for the deterministic expander graph; must be identical at every
  /// member of the universe (it is common knowledge, like the partitions).
  std::uint64_t graph_seed = 0xeca17e5eedULL;
};

/// Deterministic circulant out-neighbors of `self` within `universe`:
/// the member at rank i points at ranks (i + skip_k) mod m for `degree`
/// distinct skips derived from `seed`. Every member computes the same graph
/// locally. Exposed for tests (connectivity/diameter properties).
std::vector<ProcessId> expander_neighbors(ProcessId self, const DynamicBitset& universe,
                                          int degree, std::uint64_t seed);

class ContinuousGossipService {
 public:
  using DeliverFn = std::function<void(Round, const GossipRumor&)>;

  /// `rng` must outlive the service (typically the host process's rng).
  ContinuousGossipService(ProcessId self, GossipConfig cfg, Rng* rng, DeliverFn deliver);

  /// Crash-restart: drop all state (no durable storage). `now` is read from
  /// the global clock.
  void reset(Round now);

  /// Inject a rumor originated at this process. Returns its gid.
  /// `deadline_at` is absolute and must be >= now.
  std::uint64_t inject(Round now, sim::PayloadPtr body, DynamicBitset dest,
                       Round deadline_at);

  /// Host's send phase hook.
  void send_phase(Round now, sim::Sender& out);

  /// Host routes envelopes whose tag matches cfg.tag here.
  void on_envelope(Round now, const sim::Envelope& e);

  // -- introspection --------------------------------------------------------

  std::size_t known_active(Round now) const;
  std::uint64_t filter_drops() const { return filter_.drops(); }
  /// Incoming rumors absorbed by gid-idempotence (re-pushes, fault-layer
  /// duplicates, retransmissions). Survives reset(): it describes the
  /// experiment, not protocol state.
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  const sim::ServiceTag& tag() const { return cfg_.tag; }
  const DynamicBitset& universe() const { return cfg_.universe; }

 private:
  struct Tracked {
    GossipRumor rumor;
    bool delivered_locally = false;
    // guaranteed mode, origin side:
    DynamicBitset acked;
    bool fallback_sent = false;
  };

  ProcessId self_;
  GossipConfig cfg_;
  Rng* rng_;
  DeliverFn deliver_;
  Filter filter_;

  /// Universe members other than self_ (the sampling population).
  std::size_t peer_count_ = 0;
  /// True when the universe is the whole process space: then the i-th peer
  /// in ascending order is simply i + (i >= self_) and no materialized list
  /// is needed. A plain n-process system holds n of these services, so the
  /// list would be O(n^2) memory across the system (17 GB at n = 65536);
  /// the closed form makes it zero. Sparse universes (congos groups) still
  /// materialize `sparse_peers_` — they are a fraction of n each.
  bool full_universe_ = false;
  std::vector<ProcessId> sparse_peers_;  // universe minus self, ascending
  /// The i-th universe member other than self_, ascending; identical to the
  /// previously materialized peers_[i] for both universe shapes, so sampled
  /// targets (and hence traces) are unchanged.
  ProcessId peer_at(std::size_t i) const {
    return full_universe_ ? static_cast<ProcessId>(i + (i >= self_ ? 1 : 0))
                          : sparse_peers_[i];
  }
  std::vector<ProcessId> neighbors_;  // expander out-neighbors (kExpander)
  FlatMap<std::uint64_t, Tracked> known_;
  /// Sorted gids of `known_`, maintained incrementally by accept() /
  /// purge_expired() / reset(). Invariant: `sorted_gids_` holds exactly the
  /// keys of `known_`, in ascending order. This replaces the per-round
  /// rebuild-and-sort of the rumor list in send_phase(), which dominated the
  /// hot path at large n; the sorted order is what keeps batch contents (and
  /// hence traces) deterministic.
  std::vector<std::uint64_t> sorted_gids_;
  /// Deadlines parallel to `sorted_gids_` (struct-of-arrays view of the
  /// tracked rumors): the per-round expiry scan and the guaranteed-mode
  /// fallback check walk this dense array and only touch the map for the
  /// few entries that actually fire. Invariant: sorted_deadlines_[i] is the
  /// deadline of sorted_gids_[i].
  std::vector<Round> sorted_deadlines_;
  // acks to emit next send phase: origin -> gids (guaranteed mode)
  FlatMap<ProcessId, std::vector<std::uint64_t>> pending_acks_;
  // pull requests to answer next send phase (kPushPull)
  std::vector<ProcessId> pending_pulls_;
  Round epoch_start_ = 0;
  std::uint64_t counter_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;

  // -- allocation-free round machinery (DESIGN.md section 9) ----------------
  // The push batch persists across rounds. While the active rumor set is
  // unchanged (batch_dirty_ == false) the very same payload object is
  // re-sent; when it changes, the batch is rebuilt *in place* if this
  // service holds the only reference (use_count() == 1, guaranteed in steady
  // state because Network::end_round() drops every inbox reference), else a
  // fresh object is drawn from the pool and the old one recycles itself once
  // the last reader lets go.
  PayloadPool<GossipMsg> msg_pool_;
  PayloadPool<GossipAck> ack_pool_;
  PayloadPool<GossipPull> pull_pool_;
  std::shared_ptr<GossipMsg> batch_;
  bool batch_dirty_ = true;
  std::vector<std::uint32_t> pick_scratch_;  // push-target sample buffer
  /// Rebuild staging for active_batch(): surviving rumors are moved (not
  /// copied) from the exclusively-owned previous batch into this buffer,
  /// which is then swapped in — a rebuild costs O(active) pointer moves
  /// plus a real copy only per genuinely new rumor.
  std::vector<GossipRumor> batch_scratch_;

  std::uint64_t next_gid(Round now);
  void accept(Round now, const GossipRumor& r);
  void purge_expired(Round now);
  const std::shared_ptr<GossipMsg>& active_batch();
};

}  // namespace congos::gossip
