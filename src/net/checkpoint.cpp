#include "net/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/assert.h"

namespace congos::net {

namespace {

constexpr std::size_t kHeaderBytes = 12;  // magic + version
/// Config binding (46) + clock binding (16) + round and resume_count (12) +
/// event count (8) + checksum (8).
constexpr std::size_t kTrailerBytes = 90;

void put_bitset(replay::ByteWriter& w, const DynamicBitset& b) {
  w.u64(b.size());
  w.vec_u32(b.to_vector());
}

void put_bytes(replay::ByteWriter& w, std::span<const std::uint8_t> v) {
  w.u64(v.size());
  w.bytes(v.data(), v.size());
}

std::vector<std::uint8_t> get_bytes(replay::ByteReader& r) {
  const std::span<const std::uint8_t> v = r.bytes(r.u64());
  return {v.begin(), v.end()};
}

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Everything in the trailer but the checksum.
void put_trailer(replay::ByteWriter& w, const NodeCheckpoint& ck, std::uint64_t count) {
  w.u32(ck.id);
  w.u64(ck.n);
  w.u64(ck.seed);
  w.u32(ck.tau);
  w.boolean(ck.allow_degenerate);
  w.boolean(ck.retransmit.enabled);
  w.u32(static_cast<std::uint32_t>(ck.retransmit.budget));
  w.i64(ck.retransmit.max_link_delay);
  w.i64(ck.max_rounds);

  w.u64(static_cast<std::uint64_t>(ck.epoch_ms));
  w.i64(ck.round_ms);

  w.i64(ck.round);
  w.u32(ck.resume_count);
  w.u64(count);
}

std::uint64_t get_trailer(replay::ByteReader& r, NodeCheckpoint* ck) {
  ck->id = r.u32();
  ck->n = r.u64();
  ck->seed = r.u64();
  ck->tau = r.u32();
  ck->allow_degenerate = r.boolean();
  ck->retransmit.enabled = r.boolean();
  ck->retransmit.budget = static_cast<int>(r.u32());
  ck->retransmit.max_link_delay = r.i64();
  ck->max_rounds = r.i64();

  ck->epoch_ms = static_cast<std::int64_t>(r.u64());
  ck->round_ms = r.i64();

  ck->round = r.i64();
  ck->resume_count = r.u32();
  return r.u64();
}

/// Parses exactly `count` events filling `r`, the journal of a node of an
/// `n`-process system checkpointed at `round`.
bool get_events(replay::ByteReader& r, std::uint64_t count, std::uint64_t n,
                Round round, std::vector<CheckpointEvent>* out, std::string* error) {
  Round prev = 0;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    CheckpointEvent e;
    e.round = r.i64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(CheckpointEvent::Kind::kRecv)) {
      return set_error(error, "state file has unknown event kind");
    }
    e.kind = static_cast<CheckpointEvent::Kind>(kind);
    if (e.kind == CheckpointEvent::Kind::kInject) {
      e.seq = r.u64();
      e.deadline = r.i64();
      // Checked before the bitset is sized: the checksum is no MAC, and a
      // forged universe must not drive the allocation.
      const std::uint64_t universe = r.u64();
      if (r.ok() && universe != n) {
        return set_error(error, "state file inject destination universe does not match n");
      }
      const std::vector<std::uint32_t> idx = r.vec_u32();
      for (std::uint32_t p : idx) {
        if (p >= n) r.fail();
      }
      if (r.ok()) e.dest = DynamicBitset::from_indices(n, idx);
      e.data = get_bytes(r);
    } else {
      e.frame = get_bytes(r);
    }
    if (!r.ok()) break;
    // Semantic validation: the journal is an ordered history of one run.
    if (e.round < prev || e.round < 0) {
      return set_error(error, "state file journal rounds not monotone");
    }
    if (e.round > round) {
      return set_error(error, "state file journal event past checkpoint round");
    }
    prev = e.round;
    out->push_back(std::move(e));
  }
  if (!r.ok() || r.remaining() != 0) {
    return set_error(error, "state file truncated or malformed");
  }
  return true;
}

}  // namespace

CheckpointJournal::CheckpointJournal() {
  w_.u64(kCheckpointMagic);
  w_.u32(kCheckpointVersion);
}

void CheckpointJournal::unseal() {
  if (!sealed_) return;
  w_.truncate(w_.bytes().size() - kTrailerBytes);
  sealed_ = false;
}

void CheckpointJournal::append_inject(Round round, std::uint64_t seq, Round deadline,
                                      const DynamicBitset& dest,
                                      std::span<const std::uint8_t> data) {
  unseal();
  w_.i64(round);
  w_.u8(static_cast<std::uint8_t>(CheckpointEvent::Kind::kInject));
  w_.u64(seq);
  w_.i64(deadline);
  put_bitset(w_, dest);
  put_bytes(w_, data);
  ++count_;
}

void CheckpointJournal::append_recv(Round round, std::span<const std::uint8_t> frame) {
  unseal();
  w_.i64(round);
  w_.u8(static_cast<std::uint8_t>(CheckpointEvent::Kind::kRecv));
  put_bytes(w_, frame);
  ++count_;
}

void CheckpointJournal::append(const CheckpointEvent& e) {
  if (e.kind == CheckpointEvent::Kind::kInject) {
    append_inject(e.round, e.seq, e.deadline, e.dest, e.data);
  } else {
    append_recv(e.round, e.frame);
  }
}

std::vector<CheckpointEvent> CheckpointJournal::events(std::uint64_t n, Round round) const {
  const std::vector<std::uint8_t>& b = w_.bytes();
  const std::size_t end = b.size() - (sealed_ ? kTrailerBytes : 0);
  replay::ByteReader r(b.data() + kHeaderBytes, end - kHeaderBytes);
  std::vector<CheckpointEvent> out;
  out.reserve(count_);
  std::string error;
  const bool ok = get_events(r, count_, n, round, &out, &error);
  CONGOS_ASSERT_MSG(ok, error.c_str());
  return out;
}

std::span<const std::uint8_t> CheckpointJournal::seal(const NodeCheckpoint& meta) {
  unseal();
  const std::vector<std::uint8_t>& b = w_.bytes();
  hash_ = fnv1a(b.data() + hashed_, b.size() - hashed_, hash_);
  hashed_ = b.size();
  put_trailer(w_, meta, count_);
  w_.u64(fnv1a(b.data() + hashed_, b.size() - hashed_, hash_));
  sealed_ = true;
  return b;
}

std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpoint& ck) {
  CheckpointJournal journal;
  for (const CheckpointEvent& e : ck.events) journal.append(e);
  const std::span<const std::uint8_t> file = journal.seal(ck);
  return {file.begin(), file.end()};
}

bool decode_checkpoint(const std::uint8_t* data, std::size_t len,
                       NodeCheckpoint* out, std::string* error) {
  // The checksum gate runs first: anything shorter than the checksum, or
  // whose checksum disagrees with the body hash, is rejected before a
  // single field is interpreted.
  if (len < 8) return set_error(error, "state file truncated (no checksum)");
  const std::size_t body_len = len - 8;
  if (fnv1a(data, body_len) != replay::ByteReader(data + body_len, 8).u64()) {
    return set_error(error, "state file checksum mismatch (corrupted)");
  }

  replay::ByteReader header(data, body_len);
  if (header.u64() != kCheckpointMagic) {
    return set_error(error, "not a congos_d state file (bad magic)");
  }
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion) {
    return set_error(error, "unsupported state file version " + std::to_string(version));
  }
  if (len < kHeaderBytes + kTrailerBytes) {
    return set_error(error, "state file truncated or malformed");
  }

  const std::size_t events_end = len - kTrailerBytes;
  replay::ByteReader trailer(data + events_end, kTrailerBytes - 8);
  NodeCheckpoint ck;
  const std::uint64_t count = get_trailer(trailer, &ck);
  if (ck.n == 0 || ck.n > kNoProcess || ck.id >= ck.n || ck.round < 0 ||
      ck.round_ms <= 0) {
    return set_error(error, "state file config binding out of range");
  }
  if (ck.max_rounds > 0 && ck.round > ck.max_rounds) {
    return set_error(error, "state file round past max_rounds");
  }
  replay::ByteReader events(data + kHeaderBytes, events_end - kHeaderBytes);
  if (!get_events(events, count, ck.n, ck.round, &ck.events, error)) return false;
  *out = std::move(ck);
  return true;
}

bool decode_checkpoint(const std::vector<std::uint8_t>& bytes, NodeCheckpoint* out,
                       std::string* error) {
  return decode_checkpoint(bytes.data(), bytes.size(), out, error);
}

bool write_checkpoint_file(const std::string& path, std::span<const std::uint8_t> bytes,
                           std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return set_error(error, "cannot open '" + tmp + "': " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return set_error(error, "write '" + tmp + "': " + std::strerror(saved));
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never promote a file whose bytes
  // are still only in the page cache, or a machine crash could leave a
  // "complete" name pointing at torn contents.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return set_error(error, "fsync '" + tmp + "': " + std::strerror(saved));
  }
  if (::close(fd) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return set_error(error, "close '" + tmp + "': " + std::strerror(saved));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return set_error(error, "rename to '" + path + "': " + std::strerror(saved));
  }
  return true;
}

bool read_checkpoint_file(const std::string& path, NodeCheckpoint* out,
                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return set_error(error, "cannot open state file '" + path + "'");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return set_error(error, "cannot read state file '" + path + "'");
  }
  return decode_checkpoint(bytes, out, error);
}

bool validate_checkpoint_clock(const NodeCheckpoint& ck, std::int64_t epoch_ms,
                               std::int64_t round_ms, std::string* error) {
  if (ck.epoch_ms != epoch_ms) {
    return set_error(error,
                     "stale state file: epoch " + std::to_string(ck.epoch_ms) +
                         " does not match cluster epoch " + std::to_string(epoch_ms));
  }
  if (ck.round_ms != round_ms) {
    return set_error(error,
                     "stale state file: round-ms " + std::to_string(ck.round_ms) +
                         " does not match cluster round-ms " + std::to_string(round_ms));
  }
  return true;
}

}  // namespace congos::net
