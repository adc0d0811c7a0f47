#include "harness/scenario.h"

#include <algorithm>
#include <cstdlib>

#include "adversary/adversary.h"
#include "baseline/direct_send.h"
#include "baseline/plain_gossip.h"
#include "baseline/strong_confidential.h"
#include "common/assert.h"
#include "common/thread_pool.h"
#include "congos/congos_process.h"
#include "sim/delivery_mux.h"
#include "sim/engine.h"

namespace congos::harness {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kCongos: return "congos";
    case Protocol::kDirect: return "direct";
    case Protocol::kDirectPaced: return "direct-paced";
    case Protocol::kStrongConfidential: return "strong-conf";
    case Protocol::kPlainGossip: return "plain-gossip";
  }
  return "?";
}

/// Everything a running scenario owns. Auditors and the adversary composite
/// must have stable addresses (the engine holds pointers), hence the pimpl.
struct ScenarioRun::Impl {
  explicit Impl(std::size_t n) : qod(n) {}

  audit::DeliveryAuditor qod;
  std::shared_ptr<const core::CongosConfig> ccfg;
  std::shared_ptr<const partition::PartitionSet> partitions;
  // Sharded-execution plumbing; both stay null for a serial engine. Declared
  // before `engine` so the engine (which holds raw pointers to them) is
  // destroyed first.
  std::unique_ptr<sim::DeliveryMux> mux;
  std::unique_ptr<ThreadPool> engine_pool;
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<audit::ConfidentialityAuditor> confidentiality;
  adversary::Composite adversaries;
  adversary::Theorem1* thm1 = nullptr;
  Round max_deadline = 0;
};

std::size_t default_engine_threads() {
  static const std::size_t cached = [] {
    if (const char* v = std::getenv("CONGOS_ENGINE_THREADS")) {
      const long parsed = std::strtol(v, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{1};
  }();
  return cached;
}

ScenarioRun::ScenarioRun(const ScenarioConfig& cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(cfg.n)) {
  CONGOS_ASSERT(cfg_.n >= 2);
  Rng seeder(cfg_.seed);

  // With a sharded engine the shared QoD auditor must sit behind a
  // DeliveryMux (re-serializes per-process delivery reports); processes are
  // wired to whichever listener the thread count calls for.
  const std::size_t engine_threads =
      cfg_.engine_threads != 0 ? cfg_.engine_threads : default_engine_threads();
  sim::DeliveryListener* listener = &impl_->qod;
  if (engine_threads > 1) {
    impl_->mux = std::make_unique<sim::DeliveryMux>(&impl_->qod, cfg_.n);
    listener = impl_->mux.get();
  }

  // Shared CONGOS inputs (partition family is common knowledge).
  if (cfg_.protocol == Protocol::kCongos) {
    impl_->ccfg = std::make_shared<const core::CongosConfig>(cfg_.congos);
    impl_->partitions = core::CongosProcess::build_partitions(cfg_.n, *impl_->ccfg);
  }

  // Deterministic lazy-process selection (CONGOS only).
  DynamicBitset lazy(cfg_.n);
  if (cfg_.lazy_fraction > 0.0 && cfg_.protocol == Protocol::kCongos) {
    const auto k = static_cast<std::uint32_t>(
        static_cast<double>(cfg_.n) * std::min(cfg_.lazy_fraction, 1.0));
    Rng picker(cfg_.seed ^ 0x1a27ULL);
    lazy = DynamicBitset::from_indices(
        cfg_.n, picker.sample_without_replacement(static_cast<std::uint32_t>(cfg_.n), k));
  }

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(cfg_.n);
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    const std::uint64_t pseed = seeder.next();
    switch (cfg_.protocol) {
      case Protocol::kCongos:
        procs.push_back(std::make_unique<core::CongosProcess>(
            p, impl_->ccfg, impl_->partitions, pseed, listener,
            lazy.test(p) ? core::ProcessBehavior::kLazy
                         : core::ProcessBehavior::kHonest));
        break;
      case Protocol::kDirect:
        procs.push_back(std::make_unique<baseline::DirectSendProcess>(
            p, baseline::DirectSendProcess::Options{false}, listener));
        break;
      case Protocol::kDirectPaced:
        procs.push_back(std::make_unique<baseline::DirectSendProcess>(
            p, baseline::DirectSendProcess::Options{true}, listener));
        break;
      case Protocol::kStrongConfidential:
        procs.push_back(std::make_unique<baseline::StrongConfidentialProcess>(
            p, baseline::StrongConfidentialProcess::Options{cfg_.baseline_fanout},
            pseed, listener));
        break;
      case Protocol::kPlainGossip:
        procs.push_back(std::make_unique<baseline::PlainGossipProcess>(
            p, baseline::PlainGossipProcess::Options{cfg_.baseline_fanout, cfg_.n},
            pseed, listener));
        break;
    }
  }

  impl_->engine = std::make_unique<sim::Engine>(std::move(procs), seeder.next());
  sim::Engine& engine = *impl_->engine;
  if (cfg_.faults.enabled()) engine.network().set_faults(cfg_.faults);
  if (engine_threads > 1) {
    // The driving thread participates in every shard batch, so a budget of k
    // threads means k-1 pool workers. 2x shards over-decomposes for load
    // balance; the partition is fixed, so this stays deterministic.
    impl_->engine_pool = std::make_unique<ThreadPool>(engine_threads - 1);
    engine.set_parallelism(impl_->engine_pool.get(), 2 * engine_threads,
                           impl_->mux.get());
  }

  impl_->confidentiality = std::make_unique<audit::ConfidentialityAuditor>(
      cfg_.n, impl_->partitions.get());
  if (cfg_.audit_confidentiality) engine.add_observer(impl_->confidentiality.get());
  engine.add_observer(&impl_->qod);
  for (auto* obs : cfg_.extra_observers) engine.add_observer(obs);

  switch (cfg_.workload) {
    case WorkloadKind::kContinuous: {
      auto opts = cfg_.continuous;
      for (Round d : opts.deadlines) {
        impl_->max_deadline = std::max(impl_->max_deadline, d);
      }
      if (opts.last_injection_round < 0) {
        // Stop injecting early enough that every rumor can drain.
        opts.last_injection_round = cfg_.rounds - 1;
      }
      impl_->adversaries.add(std::make_unique<adversary::Continuous>(opts));
      break;
    }
    case WorkloadKind::kTheorem1: {
      auto w = std::make_unique<adversary::Theorem1>(cfg_.theorem1);
      impl_->thm1 = w.get();
      impl_->max_deadline = cfg_.theorem1.dmax;
      impl_->adversaries.add(std::move(w));
      break;
    }
    case WorkloadKind::kNone:
      break;
  }
  if (cfg_.churn) {
    impl_->adversaries.add(std::make_unique<adversary::RandomChurn>(*cfg_.churn));
  }
  if (cfg_.crash_on_service) {
    impl_->adversaries.add(
        std::make_unique<adversary::CrashOnService>(*cfg_.crash_on_service));
  }
  if (cfg_.crash_senders) {
    impl_->adversaries.add(
        std::make_unique<adversary::CrashSenders>(*cfg_.crash_senders));
  }
  for (auto* adv : cfg_.extra_adversaries) impl_->adversaries.add_unowned(adv);
  engine.set_adversary(&impl_->adversaries);

  // Drain window: every injected rumor's deadline must pass before
  // finalize() classifies it.
  impl_->max_deadline = std::max(impl_->max_deadline, cfg_.min_drain);
}

ScenarioRun::~ScenarioRun() = default;

sim::Engine& ScenarioRun::engine() { return *impl_->engine; }

Round ScenarioRun::total_rounds() const {
  return cfg_.rounds + impl_->max_deadline + 2;
}

void ScenarioRun::run_until(Round r) {
  const Round stop = std::min(r, total_rounds());
  if (stop > impl_->engine->now()) {
    impl_->engine->stats().reserve_rounds(
        static_cast<std::size_t>(stop - impl_->engine->now()));
  }
  while (impl_->engine->now() < stop) impl_->engine->step();
}

bool ScenarioRun::finished() const {
  return impl_->engine->now() >= total_rounds();
}

ScenarioResult ScenarioRun::finalize() const {
  const sim::Engine& engine = *impl_->engine;

  ScenarioResult result;
  const auto& stats = engine.stats();
  result.max_per_round = stats.max_from(cfg_.measure_from);
  result.mean_per_round = stats.mean_from(cfg_.measure_from);
  result.p50_per_round = stats.percentile_from(cfg_.measure_from, 50.0);
  result.p95_per_round = stats.percentile_from(cfg_.measure_from, 95.0);
  result.total_messages = stats.total_sent();
  for (std::size_t k = 0; k < sim::kNumServiceKinds; ++k) {
    result.max_by_kind[k] =
        stats.max_from(cfg_.measure_from, static_cast<sim::ServiceKind>(k));
    result.total_by_kind[k] =
        stats.total_from(cfg_.measure_from, static_cast<sim::ServiceKind>(k));
  }

  result.max_bytes_per_round = stats.max_bytes_from(cfg_.measure_from);
  result.total_bytes = stats.total_bytes();
  // Satellite of the wire-codec PR: assert the aggregation path never
  // narrows (stats accumulates in u64; the result fields must match).
  static_assert(std::is_same_v<decltype(result.total_bytes), std::uint64_t>);
  static_assert(std::is_same_v<
                std::remove_reference_t<decltype(result.total_bytes_by_kind[0])>,
                std::uint64_t>);
  for (std::size_t k = 0; k < sim::kNumServiceKinds; ++k) {
    result.total_bytes_by_kind[k] =
        stats.total_bytes(static_cast<sim::ServiceKind>(k));
  }

  for (std::size_t f = 0; f < sim::kNumFaultKinds; ++f) {
    result.faults_by_kind[f] = stats.faults(static_cast<sim::FaultKind>(f));
  }
  result.fault_total = stats.fault_total();

  result.qod = impl_->qod.finalize(engine.now());
  result.leaks = impl_->confidentiality->leaks();
  result.foreign_fragments =
      impl_->confidentiality->count(audit::ViolationKind::kForeignFragment);
  result.unknown_payloads = impl_->confidentiality->unknown_payloads();
  result.weakest_coalition = impl_->confidentiality->weakest_rumor_coalition();
  if (impl_->thm1 != nullptr) {
    result.theorem1_dest_pairs = impl_->thm1->dest_pairs();
  }
  result.injected = impl_->qod.injected_count();
  result.crashes = impl_->qod.crash_count();
  result.restarts = impl_->qod.restart_count();

  if (cfg_.protocol == Protocol::kStrongConfidential) {
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      const auto& sp =
          static_cast<const baseline::StrongConfidentialProcess&>(engine.process(p));
      result.strong_max_merged =
          std::max<std::uint64_t>(result.strong_max_merged, sp.max_merged());
    }
  }

  if (cfg_.protocol == Protocol::kCongos) {
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      const auto& cp = static_cast<const core::CongosProcess&>(engine.process(p));
      const auto& c = cp.counters();
      result.cg_confirmed += c.confirmed;
      result.cg_shoots += c.shoots;
      result.cg_shoot_messages += c.shoot_messages;
      result.cg_injected_direct += c.injected_direct;
      result.cg_reassembled += c.reassembled;
      result.filter_drops += cp.filter_drops();
      result.duplicates_suppressed += cp.duplicates_suppressed();
    }
  }
  return result;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  ScenarioRun run(cfg);
  run.run_all();
  return run.finalize();
}

}  // namespace congos::harness
