// Shared payload type for the comparison protocols: a whole rumor in one
// message. Any delivery of this payload to a process outside the rumor's
// destination set is a confidentiality violation the auditor can observe.
#pragma once

#include "sim/message.h"
#include "sim/rumor.h"
#include "wire/wire.h"

namespace congos::baseline {

struct BaselineRumorPayload final : sim::Payload {
  BaselineRumorPayload() : sim::Payload(sim::PayloadKind::kBaselineRumor) {}

  sim::Rumor rumor;

  std::uint64_t encoded_size() const override;
};

/// Batch of whole rumors (used by the strongly-confidential protocol, where
/// one message may merge several rumors when allowed).
struct BaselineBatchPayload final : sim::Payload {
  BaselineBatchPayload() : sim::Payload(sim::PayloadKind::kBaselineBatch) {}

  std::vector<sim::Rumor> rumors;

  std::uint64_t encoded_size() const override;
};

/// Receipt acknowledgement of the strongly-confidential baseline: rumor uids
/// received. Previously a file-local struct in strong_confidential.cpp with
/// NO size override at all — every ack was billed the 8-byte opaque default
/// no matter how many uids it carried. Moved here so the wire codec can
/// serialize it and the byte accounting sees its real size.
struct StrongAckPayload final : sim::Payload {
  StrongAckPayload() : sim::Payload(sim::PayloadKind::kStrongAck) {}

  std::vector<RumorUid> uids;

  std::uint64_t encoded_size() const override;
};

// -- codec field walks (src/wire/wire.h) ------------------------------------

template <class S, wire::SameBase<BaselineRumorPayload> P>
void wire_fields(S& s, P& p) {
  wire_fields(s, p.rumor);
}

template <class S, wire::SameBase<BaselineBatchPayload> P>
void wire_fields(S& s, P& p) {
  s.seq(p.rumors);
  for (auto& r : p.rumors) {
    if (!s.ok()) return;
    wire_fields(s, r);
  }
}

template <class S, wire::SameBase<StrongAckPayload> P>
void wire_fields(S& s, P& p) {
  s.seq(p.uids);
  for (auto& uid : p.uids) {
    if (!s.ok()) return;
    s.varint32(uid.source);
    s.varint(uid.seq);
  }
}

inline std::uint64_t BaselineRumorPayload::encoded_size() const {
  wire::SizeSink s;
  wire_fields(s, *this);
  return s.size();
}

inline std::uint64_t BaselineBatchPayload::encoded_size() const {
  wire::SizeSink s;
  wire_fields(s, *this);
  return s.size();
}

inline std::uint64_t StrongAckPayload::encoded_size() const {
  wire::SizeSink s;
  wire_fields(s, *this);
  return s.size();
}

}  // namespace congos::baseline
