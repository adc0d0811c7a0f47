// Allocation discipline test (DESIGN.md section 9).
//
// Replaces the global allocator with a counting shim and drives a plain
// gossip scenario (n = 64, guaranteed mode) through the engine directly: no
// observers, no adversary, rumors injected by hand. After a warm-up long
// enough for every container, pool and queue to reach its high-water mark,
// a steady-state round must perform ZERO heap allocations: payloads come
// from pools, hash containers are flat and pre-grown, scratch vectors keep
// their capacity, and the per-round stats histories are pre-reserved.
//
// The test is deliberately a separate binary: the operator new/delete
// replacement is process-global.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "audit/confidentiality.h"
#include "baseline/plain_gossip.h"
#include "common/bitset.h"
#include "common/thread_pool.h"
#include "partition/bit_partition.h"
#include "sim/engine.h"
#include "sim/rumor.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t alloc_count() { return g_news.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace congos {
namespace {

TEST(AllocDiscipline, SteadyStateRoundIsAllocationFree) {
  constexpr std::size_t kN = 64;
  constexpr int kFanout = 3;
  constexpr Round kInjectRounds = 8;   // one rumor per round, rotating source
  constexpr Round kWarmup = 48;        // dissemination + capacity ramp-up
  constexpr Round kMeasured = 32;      // the window under test
  constexpr Round kDeadline = 400;     // far beyond the window: no purge,
                                            // no origin fallback inside it
  constexpr Round kTotal = kWarmup + kMeasured + 4;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(kN);
  Rng seeder(0xa110c8ull);
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<baseline::PlainGossipProcess>(
        p, baseline::PlainGossipProcess::Options{kFanout, kN}, seeder.next(),
        /*listener=*/nullptr));
  }
  sim::Engine engine(std::move(procs), seeder.next());

  // Pre-size the per-round stat histories for the whole run so end_round()
  // never grows them inside the measured window.
  engine.stats().reserve_rounds(static_cast<std::size_t>(kTotal));

  // Warm-up: inject, then let the epidemic saturate (n = 64 at fanout 3
  // needs ~log n rounds; the rest lets every queue hit its high-water mark).
  for (Round r = 0; r < kWarmup; ++r) {
    if (r < kInjectRounds) {
      const auto src = static_cast<ProcessId>(r % kN);
      engine.inject(src, sim::make_rumor(src, static_cast<std::uint64_t>(r),
                                         {1, 2, 3, 4}, kDeadline,
                                         DynamicBitset::full(kN)));
    }
    engine.step();
  }

  const std::uint64_t sent_before = engine.network().messages_sent_total();
  const std::uint64_t allocs_before = alloc_count();
  for (Round r = 0; r < kMeasured; ++r) engine.step();
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t sent = engine.network().messages_sent_total() - sent_before;

  // Guard against a vacuous pass: the window must actually gossip.
  EXPECT_GE(sent, static_cast<std::uint64_t>(kMeasured) * kN * kFanout);
  EXPECT_EQ(allocs, 0u) << "steady-state rounds must not touch the heap";
}

// The same discipline with the sharded round engine (DESIGN.md section 12):
// once the per-shard envelope buffers have reached their high-water mark
// during warm-up, a steady-state round must stay allocation-free on every
// thread — shard claiming is a pair of atomic counters, the fork/join
// handshake is condition-variable only, and the merge moves envelopes into
// the network without growing anything.
TEST(AllocDiscipline, ShardedSteadyStateRoundIsAllocationFree) {
  constexpr std::size_t kN = 64;
  constexpr int kFanout = 3;
  constexpr Round kInjectRounds = 8;
  constexpr Round kWarmup = 48;
  constexpr Round kMeasured = 32;
  constexpr Round kDeadline = 400;
  constexpr Round kTotal = kWarmup + kMeasured + 4;
  constexpr std::size_t kEngineThreads = 4;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(kN);
  Rng seeder(0xa110c8ull);  // same seed: identical trace to the serial test
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<baseline::PlainGossipProcess>(
        p, baseline::PlainGossipProcess::Options{kFanout, kN}, seeder.next(),
        /*listener=*/nullptr));
  }
  sim::Engine engine(std::move(procs), seeder.next());
  ThreadPool pool(kEngineThreads - 1);  // driving thread participates
  engine.set_parallelism(&pool, 2 * kEngineThreads);
  engine.stats().reserve_rounds(static_cast<std::size_t>(kTotal));

  for (Round r = 0; r < kWarmup; ++r) {
    if (r < kInjectRounds) {
      const auto src = static_cast<ProcessId>(r % kN);
      engine.inject(src, sim::make_rumor(src, static_cast<std::uint64_t>(r),
                                         {1, 2, 3, 4}, kDeadline,
                                         DynamicBitset::full(kN)));
    }
    engine.step();
  }

  const std::uint64_t sent_before = engine.network().messages_sent_total();
  const std::uint64_t allocs_before = alloc_count();
  for (Round r = 0; r < kMeasured; ++r) engine.step();
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t sent = engine.network().messages_sent_total() - sent_before;

  EXPECT_GE(sent, static_cast<std::uint64_t>(kMeasured) * kN * kFanout);
  EXPECT_EQ(allocs, 0u) << "sharded steady-state rounds must not touch the heap";
}


// The confidentiality auditor's sighting path: once a rumor's first fragment
// has been seen (which allocates its group masks), delivering more fragments
// of it - repeats and new groups alike - must not touch the heap. Curious
// processes get only their own group's fragments, so the curious path runs
// too without recording a violation.
TEST(AllocDiscipline, AuditorFragmentSightingsAreAllocationFree) {
  constexpr std::size_t kN = 64;
  const partition::PartitionSet parts = partition::make_bit_partitions(kN);
  audit::ConfidentialityAuditor auditor(kN, &parts);
  std::vector<std::uint32_t> dest_ids;
  for (std::uint32_t p = 0; p < kN; p += 2) dest_ids.push_back(p);
  const sim::Rumor rumor = sim::make_rumor(0, 1, {1, 2, 3, 4}, 64,
                                           DynamicBitset::from_indices(kN, dest_ids));
  auditor.on_inject(rumor, 0);

  const auto envelope = [&](ProcessId to, PartitionIndex l, GroupIndex g) {
    auto body = std::make_shared<core::PartialsPayload>();
    core::Fragment f;
    f.meta.key = core::FragmentKey{rumor.uid, l, g};
    f.meta.dest = rumor.dest;
    f.meta.num_groups = parts[l].num_groups();
    f.data = {9, 9, 9, 9};
    body->fragments.push_back(std::move(f));
    return sim::Envelope{0, to, sim::ServiceTag{sim::ServiceKind::kGroupDistribution, 0},
                         std::move(body)};
  };
  auditor.on_envelope_delivered(envelope(2, 0, 0), 1);  // first fragment

  std::vector<sim::Envelope> later;
  for (ProcessId p = 0; p < kN; ++p) {
    const bool destination = rumor.dest.test(p);
    for (PartitionIndex l = 0; l < parts.count(); ++l) {
      for (GroupIndex g = 0; g < parts[l].num_groups(); ++g) {
        if (destination || g == parts[l].group_of(p)) later.push_back(envelope(p, l, g));
      }
    }
  }

  const std::uint64_t allocs_before = alloc_count();
  for (int pass = 0; pass < 2; ++pass) {  // new groups, then repeats
    for (const auto& e : later) auditor.on_envelope_delivered(e, 2 + pass);
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;

  EXPECT_TRUE(auditor.knowledge().can_reconstruct(2, rumor.uid));
  EXPECT_FALSE(auditor.knowledge().can_reconstruct(1, rumor.uid));
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(allocs, 0u) << "fragment sightings after the first must not touch the heap";
}

}  // namespace
}  // namespace congos
