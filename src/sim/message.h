// Typed message envelopes.
//
// Every point-to-point message is an Envelope tagged with the service that
// produced it (Fig. 1 of the paper: ConfidentialGossip / Proxy[l] /
// GroupDistribution[l] / GroupGossip[l] / AllGossip all multiplex over one
// Network). The tag is what lets the statistics collector attribute each
// message to a service (needed to verify Lemma 7 separately from the
// black-box gossip traffic) and lets the confidentiality auditor inspect
// payloads without any protocol cooperating.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.h"

namespace congos::wire {
class WriteSink;
class ReadSink;
}  // namespace congos::wire

namespace congos::sim {

/// Which service sent a message. `kBaseline` covers the comparison protocols.
enum class ServiceKind : std::uint8_t {
  kGroupGossip,        // filtered continuous gossip instance (per partition)
  kAllGossip,          // unfiltered continuous gossip instance
  kProxy,              // Proxy[l] requests / acks
  kGroupDistribution,  // GroupDistribution[l] "partials" messages
  kFallback,           // ConfidentialGossip direct "shoot" at deadline
  kBaseline,           // baseline protocols (direct send, strong confidential...)
  kOther,
};

const char* to_string(ServiceKind k);

struct ServiceTag {
  ServiceKind kind = ServiceKind::kOther;
  PartitionIndex partition = 0;

  friend bool operator==(const ServiceTag&, const ServiceTag&) = default;
};

/// Concrete payload type, one tag per wire format. Receivers dispatch on
/// this tag with a switch + `static_cast` instead of RTTI type-cast chains:
/// the tag lives in the envelope hot path of every simulated round, and a
/// one-byte compare is what keeps large-n sweeps affordable.
///
/// The enum is the central registry of wire formats (like the protocol
/// numbers of a real network stack). A new payload type must (a) add a tag
/// here, (b) pass it to the Payload base constructor, and (c) keep its
/// contents deterministic functions of (seed, configuration) - see
/// DESIGN.md section 5, "Type-tagged payload dispatch".
enum class PayloadKind : std::uint8_t {
  kOpaque,  // default: test doubles and payloads nobody dispatches on

  // continuous gossip service (src/gossip)
  kGossipMsg,   // batch of rumors pushed to one peer
  kGossipAck,   // receipt acknowledgements (guaranteed mode)
  kGossipPull,  // pull request (kPushPull strategy)

  // CONGOS point-to-point payloads (src/congos)
  kProxyRequest,  // Proxy[l] request: fragments to distribute
  kProxyAck,      // Proxy[l] acknowledgement
  kPartials,      // GroupDistribution[l] "partials"
  kDirectRumor,   // ConfidentialGossip deadline fallback ("shoot")
  kPartialsAck,   // receipt ack for kPartials (retransmission mode only)
  kDirectAck,     // receipt ack for kDirectRumor (retransmission mode only)

  // CONGOS gossip rumor bodies (carried inside kGossipMsg)
  kFragment,            // one XOR share, intra-group dissemination
  kProxyShare,          // Proxy[l] intra-group share
  kHitSetShare,         // GroupDistribution[l] intra-group share
  kDistributionReport,  // AllGossip sanitized hitSet report

  // comparison protocols (src/baseline)
  kBaselineRumor,  // a whole rumor in one message
  kBaselineBatch,  // merged whole rumors (strongly-confidential baseline)
  kStrongAck,      // strongly-confidential receipt ack
};

/// Base class for all message payloads. Payloads are immutable once sent and
/// shared between the network queue, the inboxes and the auditors.
///
/// encoded_size() drives the *communication* complexity accounting the
/// paper discusses in Section 7 (bits per round, as opposed to Definition
/// 3's messages per round): it is the ACTUAL serialized size of the body
/// under the versioned wire codec (src/wire), exactly the bytes
/// encode_envelope() emits, computed by walking the same field template with
/// a counting sink (wire::SizeSink) — so it cannot drift from the encoder.
///
/// The kOpaque default (8 bytes) covers test doubles the codec never
/// serializes; wire::encode_payload() refuses kOpaque bodies.
struct Payload {
  constexpr explicit Payload(PayloadKind kind = PayloadKind::kOpaque)
      : kind_(kind) {}
  virtual ~Payload() = default;
  virtual std::uint64_t encoded_size() const { return 8; }

  PayloadKind kind() const { return kind_; }

 private:
  PayloadKind kind_;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Codec hooks for nested payloads (rumor bodies carried inside gossip
/// batches). Declared here — next to PayloadPtr, below the concrete payload
/// types — to break the layering cycle: the wire sink templates call them by
/// argument-dependent lookup, and their definitions live in
/// src/wire/payload_codec.cpp (link congos_wire), where every payload type
/// is visible. A null body encodes as one kOpaque kind byte and decodes back
/// to nullptr.
void wire_encode_nested(wire::WriteSink& s, const PayloadPtr& p);
void wire_decode_nested(wire::ReadSink& s, PayloadPtr& p);

struct Envelope {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  ServiceTag tag;
  PayloadPtr body;
};

}  // namespace congos::sim
