// Sim backend of the Transport interface: datagrams carried through the
// existing deterministic sim::Network (DESIGN.md section 13).
//
// A SimLink owns one sim::Network with one endpoint per process; each
// endpoint is a Transport. send() wraps the datagram bytes in an opaque
// payload and submits a regular envelope; advance_round() runs the
// network's delivery phase (including the seeded link-fault layer when
// armed) and sorts the delivered datagrams into the endpoints' receive
// queues. Everything is deterministic: same sends in the same order =>
// same deliveries, byte for byte, which is what lets the NodeRuntime test
// suite pin real-wire behaviour without a socket in sight.
//
// The round engine does NOT run on top of this adapter - sim::Engine keeps
// calling sim::Network directly, so the golden traces cannot move. The
// adapter proves the Transport interface adds nothing the simulator lacks,
// and gives multi-NodeRuntime tests a lockstep in-process cluster.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "sim/network.h"
#include "sim/stats.h"

namespace congos::net {

/// The datagram as a sim payload: opaque bytes, sized like the real thing
/// so the network's byte accounting tracks actual datagram sizes.
struct DatagramPayload final : sim::Payload {
  explicit DatagramPayload(std::vector<std::uint8_t> b)
      : sim::Payload(sim::PayloadKind::kOpaque), bytes(std::move(b)) {}
  std::uint64_t encoded_size() const override { return bytes.size(); }

  std::vector<std::uint8_t> bytes;
};

class SimLink {
 public:
  explicit SimLink(std::size_t n, std::uint64_t seed = 0x51f7ull);
  ~SimLink();

  /// Arm the network's seeded link-fault layer (drop/dup/delay/partition) -
  /// the same FaultConfig the lockstep simulator uses.
  void set_faults(const sim::FaultConfig& cfg) { network_.set_faults(cfg); }

  std::size_t n() const { return endpoints_.size(); }
  Transport& endpoint(ProcessId p);
  sim::Network& network() { return network_; }
  Round round() const { return round_; }

  /// Delivers everything submitted this round into the endpoints' receive
  /// queues and advances the round clock.
  void advance_round();

 private:
  class Endpoint;

  sim::MessageStats stats_;
  sim::Network network_;
  Rng rng_;
  Round round_ = 0;
  // All-clear lifecycle filters: the transport layer has no crash/restart
  // notion; process lifecycle lives above it - NodeRuntime's journal
  // checkpoint + resume (DESIGN.md section 14), which is exactly why
  // tests/test_checkpoint.cpp can crash and resume a node over this link
  // without the link itself noticing.
  std::vector<sim::PartialDelivery> all_deliver_;
  DynamicBitset no_filter_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace congos::net
