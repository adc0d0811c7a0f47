// congos_replay: load a .repro artifact and re-execute it deterministically.
//
// The simulator is a pure function of (ScenarioConfig, seed), so a replay
// must reproduce the recorded run byte-for-byte: the per-round delivered
// envelope counts, their FNV-1a golden hash, and the full adversary decision
// trace. Any divergence is reported with the first differing round/decision.
//
// Examples:
//   congos_replay sweep-17.repro                  # full verified replay
//   congos_replay sweep-17.repro --until-round=96 # prefix replay
//   congos_replay sweep-17.repro --diff-golden    # also diff result summary
//   congos_replay sweep-17.repro --dump-state --until-round=96
//   congos_replay sweep-17.repro --verify-rewind  # checkpoint/rewind check
//   congos_replay sweep-17.repro --schedule       # inspect, don't run
//
// Exit codes: 0 verified, 1 divergence detected, 2 usage or load error.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/record.h"
#include "replay/repro.h"
#include "sim/engine.h"
#include "wire/wire.h"

using namespace congos;

namespace {

const char kUsage[] = R"(congos_replay - deterministic .repro re-execution

  congos_replay FILE.repro [flags]

  --until-round=R  stop the re-execution at round R (default: run to the end;
                   prefix replays verify per-round counts up to R only)
  --diff-golden    diff the replayed ScenarioResult against the recorded
                   summary field by field
  --dump-state     print an engine state summary at the stop round
  --verify-rewind  save an engine checkpoint mid-run, finish, rewind, re-run
                   the tail and require identical per-round counts
  --rewind-round=R checkpoint round for --verify-rewind (default: halfway)
  --schedule       print the recorded adversary decision trace and exit
  --show-faults    print the recorded link-fault plan and fault counters, exit
  --show-trace     print the recorded TraceLog tail and exit
  --help           this text
)";

int fail_usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n\n%s", msg.c_str(), kUsage);
  return 2;
}

const char* kind_name(replay::Decision::Kind k) {
  switch (k) {
    case replay::Decision::Kind::kCrash: return "crash";
    case replay::Decision::Kind::kRestart: return "restart";
    case replay::Decision::Kind::kInject: return "inject";
  }
  return "?";
}

void print_schedule(const replay::ReproFile& file) {
  std::printf("# %zu decisions\n", file.decisions.size());
  for (const auto& d : file.decisions) {
    if (d.kind == replay::Decision::Kind::kInject) {
      std::printf("round %-6lld inject  p%-5u rumor=%u/%llu dests=%llu deadline=%lld\n",
                  static_cast<long long>(d.round), d.process, d.rumor.source,
                  static_cast<unsigned long long>(d.rumor.seq),
                  static_cast<unsigned long long>(d.dest_count),
                  static_cast<long long>(d.deadline));
    } else {
      std::printf("round %-6lld %-7s p%-5u policy=%d\n",
                  static_cast<long long>(d.round), kind_name(d.kind), d.process,
                  static_cast<int>(d.policy));
    }
  }
}

void print_faults(const replay::ReproFile& file) {
  std::printf("fault plan       : %s\n", sim::describe(file.config.faults).c_str());
  const auto& rt = file.config.congos.retransmit;
  if (rt.enabled) {
    std::printf("retransmission   : on (budget %d, max link delay %lld)\n",
                rt.budget, static_cast<long long>(rt.max_link_delay));
  } else {
    std::printf("retransmission   : off\n");
  }
  std::printf("fault events     : ");
  for (std::size_t f = 0; f < sim::kNumFaultKinds; ++f) {
    std::printf("%s%llu %s", f == 0 ? "" : ", ",
                static_cast<unsigned long long>(file.faults_by_kind[f]),
                sim::to_string(static_cast<sim::FaultKind>(f)));
  }
  std::printf("\nduplicates       : %llu suppressed by gossip idempotence\n",
              static_cast<unsigned long long>(file.duplicates_suppressed));
  if (!file.config.faults.enabled()) {
    std::printf("(fault layer was off for this run)\n");
  }
}

void dump_state(const replay::ReproFile& file, Round stop) {
  // A separate, unrecorded execution: determinism makes it land in exactly
  // the state the verified replay reached at `stop`.
  harness::ScenarioConfig cfg = file.config;
  cfg.extra_observers.clear();
  cfg.extra_adversaries.clear();
  harness::ScenarioRun run(cfg);
  run.run_until(stop < 0 ? run.total_rounds() : stop);

  sim::Engine& eng = run.engine();
  std::printf("-- engine state at round %lld --\n",
              static_cast<long long>(eng.now()));
  std::printf("processes        : %zu (%zu alive)\n", eng.n(), eng.alive_count());
  std::string dead;
  for (ProcessId p = 0; p < eng.n(); ++p) {
    if (!eng.alive(p)) dead += " p" + std::to_string(p);
  }
  std::printf("crashed          :%s\n", dead.empty() ? " (none)" : dead.c_str());
  const auto& stats = eng.stats();
  std::printf("messages         : %llu total, %llu bytes\n",
              static_cast<unsigned long long>(stats.total_sent()),
              static_cast<unsigned long long>(stats.total_bytes()));
}

/// Checkpoint/rewind self-check: fast-forward to `at`, checkpoint, run the
/// tail recording per-round counts, rewind, run the tail again and compare.
/// Auditors are not rewound (DESIGN.md section 7), so this path never calls
/// finalize() after the rewind.
int verify_rewind(const replay::ReproFile& file, Round at) {
  harness::ScenarioConfig cfg = file.config;
  cfg.extra_observers.clear();
  cfg.extra_adversaries.clear();
  harness::ScenarioRun run(cfg);
  if (at <= 0 || at >= run.total_rounds()) at = run.total_rounds() / 2;
  run.run_until(at);

  sim::Engine& eng = run.engine();
  const sim::EngineCheckpoint cp = eng.save_checkpoint();
  if (!cp.complete) {
    std::printf("rewind           : SKIPPED (checkpoint incomplete: a process "
                "or adversary lacks snapshot support)\n");
    return 0;
  }

  replay::DecisionRecorder first;
  eng.add_observer(&first);
  run.run_all();
  const std::vector<std::uint64_t> want = first.round_deliveries();

  if (!eng.restore_checkpoint(cp) || eng.now() != at) {
    std::printf("rewind           : FAILED (restore_checkpoint rejected a "
                "complete checkpoint)\n");
    return 1;
  }
  replay::DecisionRecorder second;
  eng.add_observer(&second);
  run.run_all();
  const auto& got = second.round_deliveries();

  bool ok = got.size() == want.size();
  for (std::size_t i = 0; ok && i < got.size(); ++i) ok = got[i] == want[i];
  std::printf("rewind           : %s (checkpoint at round %lld, tail of %zu "
              "rounds re-run %s)\n",
              ok ? "OK" : "DIVERGED", static_cast<long long>(at), want.size(),
              ok ? "identically" : "differently");
  return ok ? 0 : 1;
}

int diff_golden(const replay::ReproFile& file, const harness::ScenarioResult& r) {
  struct Field {
    const char* name;
    std::uint64_t recorded;
    std::uint64_t replayed;
  };
  const Field fields[] = {
      {"total_messages", file.total_messages, r.total_messages},
      {"total_bytes", file.total_bytes, r.total_bytes},
      {"injected", file.injected, r.injected},
      {"crashes", file.crashes, r.crashes},
      {"restarts", file.restarts, r.restarts},
      {"leaks", file.leaks, r.leaks},
      {"foreign_fragments", file.foreign_fragments, r.foreign_fragments},
      {"qod_delivered_on_time", file.qod_delivered_on_time, r.qod.delivered_on_time},
      {"qod_late", file.qod_late, r.qod.late},
      {"qod_missing", file.qod_missing, r.qod.missing},
      {"qod_data_mismatches", file.qod_data_mismatches, r.qod.data_mismatches},
  };
  int diffs = 0;
  for (const auto& f : fields) {
    if (f.recorded != f.replayed) {
      std::printf("golden diff      : %s recorded=%llu replayed=%llu\n", f.name,
                  static_cast<unsigned long long>(f.recorded),
                  static_cast<unsigned long long>(f.replayed));
      ++diffs;
    }
  }
  if (diffs == 0) std::printf("golden diff      : all %zu fields match\n",
                              std::size(fields));
  return diffs == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto unknown = flags.unknown_keys(
      {"until-round", "diff-golden", "dump-state", "verify-rewind",
       "rewind-round", "schedule", "show-faults", "show-trace", "help"});
  if (!unknown.empty()) return fail_usage("unknown flag --" + unknown.front());
  if (flags.positional().size() != 1) {
    return fail_usage("expected exactly one FILE.repro argument");
  }

  const std::string path = flags.positional().front();
  replay::ReproFile file;
  std::string error;
  if (!replay::read_file(path, &file, &error)) {
    std::fprintf(stderr, "error: cannot load %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }

  std::printf("artifact         : %s\n", path.c_str());
  std::printf("label            : %s%s%s\n", file.label.c_str(),
              file.reason.empty() ? "" : " - ", file.reason.c_str());
  std::printf("scenario         : %s n=%zu seed=%llu rounds=%lld\n",
              harness::to_string(file.config.protocol), file.config.n,
              static_cast<unsigned long long>(file.config.seed),
              static_cast<long long>(file.config.rounds));
  std::printf("recorded         : %zu decisions, %zu rounds, trace hash "
              "%016" PRIx64 "\n",
              file.decisions.size(), file.round_deliveries.size(),
              file.trace_hash);
  std::printf("wire codec       : v%u%s\n", file.wire_codec_version,
              file.wire_codec_version == wire::kWireFormatVersion
                  ? ""
                  : " (DIFFERS from this build - byte totals not comparable)");

  if (flags.get_bool("schedule", false)) {
    print_schedule(file);
    return 0;
  }
  if (flags.get_bool("show-faults", false)) {
    print_faults(file);
    return 0;
  }
  if (flags.get_bool("show-trace", false)) {
    std::fputs(file.trace_tail.empty() ? "(no trace tail recorded)\n"
                                       : file.trace_tail.c_str(),
               stdout);
    return 0;
  }

  harness::ReplayOptions opt;
  opt.until_round = flags.get_int("until-round", -1);

  const harness::ReplayReport report = harness::replay_file(file, opt);
  std::printf("replayed         : %lld rounds (%s), trace hash %016" PRIx64 "\n",
              static_cast<long long>(report.executed_rounds),
              report.complete ? "complete" : "prefix", report.trace_hash);
  if (!report.counts_match) {
    std::printf("counts           : DIVERGED at round %lld\n",
                static_cast<long long>(report.first_count_divergence));
  } else {
    std::printf("counts           : match over the executed prefix\n");
  }
  if (!report.decisions_match) {
    std::printf("decisions        : DIVERGED at decision #%zu\n",
                report.first_decision_divergence);
  } else {
    std::printf("decisions        : match (%zu recorded)\n",
                file.decisions.size());
  }
  if (report.complete) {
    std::printf("hash             : %s\n",
                report.hash_match ? "match" : "MISMATCH");
  }

  int rc = report.verified() ? 0 : 1;
  if (flags.get_bool("diff-golden", false) && report.complete) {
    rc |= diff_golden(file, report.result);
  }
  if (flags.get_bool("dump-state", false)) {
    dump_state(file, opt.until_round);
  }
  if (flags.get_bool("verify-rewind", false)) {
    rc |= verify_rewind(file, flags.get_int("rewind-round", -1));
  }
  std::printf("verdict          : %s\n", rc == 0 ? "REPLAY VERIFIED"
                                                 : "REPLAY DIVERGED");
  return rc;
}
