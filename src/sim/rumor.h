// Rumors, as defined in Section 2 of the paper.
//
// A rumor is a triple <z, d, D>: payload data z, deadline duration d, and a
// destination set D subseteq [n]. Rumors are injected dynamically by the CRRI
// adversary; at most one rumor per process per round.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/types.h"
#include "wire/wire.h"

namespace congos::sim {

struct Rumor {
  /// Unique id; uid.source is the injecting ("source") process and uid.seq is
  /// the per-source sequence counter used in delivery confirmations.
  RumorUid uid;

  /// The datum z to be disseminated.
  std::vector<std::uint8_t> data;

  /// Deadline *duration* d: the rumor must reach its destinations no later
  /// than round injected_at + deadline.
  Round deadline = 0;

  /// Destination set D. May or may not include the source itself.
  DynamicBitset dest;

  /// Round the rumor was injected; set by the engine at injection time.
  Round injected_at = kNoRound;

  Round expires_at() const { return injected_at + deadline; }

  /// True while the deadline has not yet passed ("active" in the paper).
  bool active_at(Round t) const { return injected_at <= t && t <= expires_at(); }
};

/// Convenience factory for tests and examples.
Rumor make_rumor(ProcessId source, std::uint64_t seq, std::vector<std::uint8_t> data,
                 Round deadline, DynamicBitset dest);

/// v1 wire fields of a rumor (codec walk, see src/wire/wire.h).
template <class S, wire::SameBase<Rumor> R>
void wire_fields(S& s, R& r) {
  s.varint32(r.uid.source);
  s.varint(r.uid.seq);
  s.zigzag(r.deadline);
  s.zigzag(r.injected_at);
  s.bitset(r.dest);
  s.bytes(r.data);
}

}  // namespace congos::sim
