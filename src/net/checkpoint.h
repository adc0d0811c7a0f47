// Durable daemon checkpoints: the on-disk state file behind congos_d
// --state/--resume (DESIGN.md section 14).
//
// The file does not serialize the service stack field by field. A
// CongosProcess is deterministic in (seed, injection sequence, per-round
// inbox contents) - the exact property PR 3's replay subsystem proves and
// the golden traces pin - so the checkpoint stores those *inputs* instead:
// the node's config binding, the shared RoundClock epoch, and the ordered
// journal of every event that mutated the process (rumor injections and
// accepted envelope frames, stamped with the runtime round they happened
// in). NodeRuntime::resume() reconstructs the live state by re-running the
// engine phase contract over the journal with outbound datagrams and event
// logging suppressed; the result is byte-identical to the state at the
// checkpoint round, including the partially buffered inbox of the round in
// progress (tests/test_checkpoint.cpp pins this over a SimLink cluster).
//
// Confidentiality by construction: the journal holds exactly the bytes the
// process legitimately held - its own injected rumors (it is their source)
// and the envelope frames addressed to it that already crossed the wire.
// A curious reader of the file learns nothing a wiretap of that node's
// inbound link plus its own injections would not reveal, which is what the
// cluster auditor re-checks offline by replaying every checkpointed frame
// through the confidentiality auditor (harness/cluster.cpp).
//
// Wire format, version 2 (replay/codec.h conventions: little-endian,
// length-prefixed, fully bounds-checked reader):
//
//   u64   magic   "CGDSTATE"
//   u32   version (kCheckpointVersion)
//   ...   events, each: i64 round, u8 kind, fields (see CheckpointEvent)
//   ---   fixed-size trailer, 90 bytes:
//   ...   config binding + clock binding + round + resume_count
//   u64   event count
//   u64   FNV-1a over every preceding byte
//
// Everything that changes on every save sits after the journal, so a live
// CheckpointJournal keeps the file image encoded as events happen and its
// FNV-1a state running over it: a save hashes only the bytes appended since
// the previous save, then adds the trailer (DESIGN.md section 14).
//
// Readers verify the checksum before parsing any field - so truncation and
// any bit flip are rejected first - then reject unknown versions or event
// kinds, inject destination sets over a universe other than n, non-monotone
// event rounds, and events past the checkpoint round. FNV-1a is not a MAC,
// so every field is still treated as outside input: a corrupted or
// tampered state file degrades into a clean load error, never into a
// trusted resume. Staleness (a file from a different cluster
// run) is caught by validate_checkpoint_clock(): the shared epoch the
// runner distributes must match the one the file was written under.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/fnv.h"
#include "common/types.h"
#include "congos/config.h"
#include "replay/codec.h"

namespace congos::net {

inline constexpr std::uint64_t kCheckpointMagic = 0x4554415453444743ull;  // "CGDSTATE"
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// One journaled state mutation, in the order it happened.
struct CheckpointEvent {
  enum class Kind : std::uint8_t { kInject = 0, kRecv = 1 };

  Round round = 0;
  Kind kind = Kind::kInject;

  // kInject: one locally sourced rumor (seq/deadline/dest/data).
  std::uint64_t seq = 0;
  Round deadline = 0;
  DynamicBitset dest;
  std::vector<std::uint8_t> data;

  // kRecv: one accepted envelope frame, verbatim wire bytes.
  std::vector<std::uint8_t> frame;

  friend bool operator==(const CheckpointEvent&, const CheckpointEvent&) = default;
};

struct NodeCheckpoint {
  // -- config binding: a resume must match the daemon's own flags ------------
  ProcessId id = 0;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  std::uint32_t tau = 0;
  bool allow_degenerate = true;
  core::RetransmitConfig retransmit;
  Round max_rounds = 0;

  // -- clock binding: rejects state files from a different cluster run -------
  std::int64_t epoch_ms = 0;
  std::int64_t round_ms = 0;

  // -- progress ---------------------------------------------------------------
  /// Runtime round the checkpoint was taken at: send_phase(round) has run,
  /// receive_phase(round) has not; kRecv events at `round` are the pending
  /// inbox.
  Round round = 0;
  /// Resumes this state has already been through (0 on first incarnation).
  std::uint32_t resume_count = 0;

  std::vector<CheckpointEvent> events;

  friend bool operator==(const NodeCheckpoint&, const NodeCheckpoint&) = default;
};

/// A state file image kept encoded as it grows: the header, then each event
/// appended in its on-disk encoding the moment it happens. seal() folds the
/// bytes appended since the previous seal into the running FNV-1a state and
/// adds the trailer, so the cost of a save does not grow with the journal.
class CheckpointJournal {
 public:
  CheckpointJournal();

  void append_inject(Round round, std::uint64_t seq, Round deadline,
                     const DynamicBitset& dest, std::span<const std::uint8_t> data);
  void append_recv(Round round, std::span<const std::uint8_t> frame);
  void append(const CheckpointEvent& e);

  /// Decodes the journaled events; `n` and `round` bound them as
  /// decode_checkpoint() would.
  std::vector<CheckpointEvent> events(std::uint64_t n, Round round) const;

  /// The complete file for `meta`'s bindings and progress (its `events`
  /// are ignored: the journal's own stand in). The view stays valid until
  /// the next call that modifies this journal.
  std::span<const std::uint8_t> seal(const NodeCheckpoint& meta);

 private:
  /// Removes the previous seal's trailer before the image changes again.
  void unseal();

  replay::ByteWriter w_;
  std::uint64_t count_ = 0;
  bool sealed_ = false;
  /// FNV-1a state over the first hashed_ bytes of w_.
  std::uint64_t hash_ = kFnvOffset;
  std::size_t hashed_ = 0;
};

/// Serializes `ck` (including the trailing whole-file checksum).
std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpoint& ck);

/// Strict parse + validation; on failure *error says what was rejected.
bool decode_checkpoint(const std::uint8_t* data, std::size_t len,
                       NodeCheckpoint* out, std::string* error);
bool decode_checkpoint(const std::vector<std::uint8_t>& bytes, NodeCheckpoint* out,
                       std::string* error);

/// Atomic durable write of an encoded state file: the bytes land in
/// `path + ".tmp"`, are fsynced, then renamed over `path`, so a crash
/// mid-write leaves the previous complete file (or nothing), never a torn
/// one.
bool write_checkpoint_file(const std::string& path, std::span<const std::uint8_t> bytes,
                           std::string* error);

/// Reads and fully validates `path`.
bool read_checkpoint_file(const std::string& path, NodeCheckpoint* out,
                          std::string* error);

/// Staleness gate: true iff the file was written under the same shared
/// RoundClock the cluster runner just distributed. A mismatch means the
/// state belongs to an earlier run and must not be rejoined.
bool validate_checkpoint_clock(const NodeCheckpoint& ck, std::int64_t epoch_ms,
                               std::int64_t round_ms, std::string* error);

}  // namespace congos::net
