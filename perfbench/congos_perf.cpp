// congos_perf: the measuring half of the CONGOS benchmark (perfbench/run.py
// is the other half: it builds this binary, turns its raw samples into the
// reported metrics and applies the correctness gate).
//
// One invocation runs one workload for a wall-clock budget. The unit of work
// is an *episode*: a fixed, seeded execution (set-up, a fixed number of
// rounds, then the audits). Every episode of a run uses the same seed, so
// its counts must repeat exactly; run.py checks that. Episodes are repeated
// until the budget is spent, and the wall and CPU time of every round of
// every episode are reported.
//
// With --trace 1 the episodes alternate untraced / traced. A traced episode
// records a span around every call the benchmark makes into a layer (engine
// phases via a marker adversary, the confidentiality auditor via a timing
// decorator, transport and runtime calls on the wire); spans stay in memory
// and the last traced episode's spans are written to --trace-out at the end.
//
// Output: one JSON object on stdout.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/patterns.h"
#include "adversary/workload.h"
#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "common/rng.h"
#include "congos/congos_process.h"
#include "harness/cluster.h"
#include "harness/scenario.h"
#include "net/checkpoint.h"
#include "net/control.h"
#include "net/framing.h"
#include "net/runtime.h"
#include "net/udp_transport.h"
#include "sim/engine.h"
#include "wire/compress.h"
#include "wire/envelope.h"

namespace {

using namespace congos;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// -- spans ---------------------------------------------------------------------

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call site.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }
  /// A span whose bounds were measured elsewhere (phase marks).
  int add(const char* name, int parent, Clock::time_point a, Clock::time_point b) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, a, b});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Self time per span name: duration minus the time its children cover.
  /// Summed in clock ticks so that exactly tiled spans leave exactly 0.
  std::map<std::string, double> self_seconds() const {
    std::vector<Clock::duration> child(spans_.size(), Clock::duration::zero());
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Clock::duration> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    std::map<std::string, double> out;
    for (const auto& [name, d] : self) out[name] = std::chrono::duration<double>(d).count();
    return out;
  }

  void write(const std::string& path, Clock::time_point origin) const {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"start_s\":" << secs(origin, s.start)
        << ",\"end_s\":" << secs(origin, s.end) << "}";
    }
    f << "]}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// -- JSON output -----------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ << v;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    out_ << '"' << v << '"';
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& begin(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& end(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  template <class T>
  Json& field(const std::string& k, T v) {
    key(k);
    if constexpr (std::is_same_v<T, bool>) {
      return boolean(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      return num(static_cast<double>(v));
    } else if constexpr (std::is_integral_v<T>) {
      return num(static_cast<std::uint64_t>(v));
    } else {
      return str(v);
    }
  }
  std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// -- per-episode results -----------------------------------------------------------

/// Lemma 7's split of CONGOS traffic, in sim::ServiceKind order.
constexpr const char* kServices[] = {"group_gossip", "all_gossip", "proxy",
                                     "group_distribution", "fallback"};
constexpr std::size_t kNumServices = 5;

struct Episode {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;  // measured rounds only
  std::vector<double> round_s;      // wall time of each round
  std::vector<double> round_cpu_s;  // process CPU time of each round

  // Deterministic counts (identical for every episode of one seed).
  std::map<std::string, std::uint64_t> counts;
  // Correctness evidence, judged by run.py.
  std::map<std::string, std::uint64_t> gate;
  // Per-layer numbers (seconds or counts); only meaningful when traced, plus
  // the audit/transport figures every episode measures.
  std::map<std::string, double> layers;
};

/// QoD gate and counts. Latency percentiles are the auditor's own, over
/// on-time admissible pairs (a pair is admissible when source and destination
/// stay alive over the whole [injected, deadline] window).
void add_qod(Episode& ep, const audit::QodReport& rep) {
  ep.gate["qod_late"] = rep.late;
  ep.gate["qod_missing"] = rep.missing;
  ep.gate["qod_corrupted"] = rep.data_mismatches;
  ep.gate["qod_admissible"] = rep.admissible_pairs;
  ep.counts["pairs_admissible"] = rep.admissible_pairs;
  ep.counts["pairs_delivered"] = rep.delivered_on_time;
  ep.counts["rumors"] = rep.rumors;
  ep.counts["deliver_rounds_p50"] = static_cast<std::uint64_t>(rep.latency_p50);
  ep.counts["deliver_rounds_p95"] = static_cast<std::uint64_t>(rep.latency_p95);
}

void add_confidentiality_gate(Episode& ep, const audit::ConfidentialityAuditor& conf) {
  ep.gate["leaks"] = conf.leaks();
  ep.gate["foreign_fragments"] = conf.count(audit::ViolationKind::kForeignFragment);
  ep.gate["unknown_payloads"] = conf.unknown_payloads();
  const std::size_t weakest = conf.weakest_rumor_coalition();
  // 0 = no rumor breakable by any coalition (the auditor's SIZE_MAX).
  ep.gate["weakest_coalition"] = weakest == SIZE_MAX ? 0 : weakest;
  ep.gate["weakest_coalition_unbreakable"] = weakest == SIZE_MAX ? 1 : 0;
}

void add_congos_counters(Episode& ep, const core::CgCounters& c, std::uint64_t filter_drops,
                         std::uint64_t duplicates) {
  ep.counts["cg_injected"] += c.injected;
  ep.counts["cg_injected_direct"] += c.injected_direct;
  ep.counts["cg_confirmed"] += c.confirmed;
  ep.counts["cg_shoots"] += c.shoots;
  ep.counts["filter_drops"] += filter_drops;
  ep.counts["duplicates_suppressed"] += duplicates;
}

// -- injection schedule ----------------------------------------------------------------

struct Injection {
  Round round = 0;
  ProcessId source = 0;
  std::uint64_t seq = 0;
  DynamicBitset dest;
  std::vector<std::uint8_t> data;
};

/// Fixed-rate injection, generated from the seed alone: exactly
/// round(rate * n * rounds) rumors, spread evenly over rounds [first,
/// first + rounds), each from a distinct source within its round, with a
/// uniform destination-set size in [dest_min, dest_max] (the source may be a
/// destination, as with adversary::Continuous). A fixed count keeps the work
/// per episode - and hence its time - from swinging with the seed the way a
/// per-process coin flip does.
std::vector<Injection> make_injections(std::size_t n, Round first, Round rounds, double rate,
                                       std::uint32_t dest_min, std::uint32_t dest_max,
                                       std::uint64_t seed) {
  Rng rng(seed ^ 0x70e7'11f3'5eedULL);
  const auto total = static_cast<std::uint64_t>(
      std::llround(rate * static_cast<double>(n) * static_cast<double>(rounds)));
  const auto nn = static_cast<std::uint32_t>(n);
  std::vector<std::uint64_t> seq(n, 0);
  std::vector<Injection> out;
  std::uint64_t made = 0;
  for (Round r = 0; r < rounds; ++r) {
    const std::uint64_t due = total * static_cast<std::uint64_t>(r + 1) /
                              static_cast<std::uint64_t>(rounds);
    const auto k = static_cast<std::uint32_t>(due - made);
    for (const std::uint32_t src : rng.sample_without_replacement(nn, k)) {
      Injection in;
      in.round = first + r;
      in.source = src;
      in.seq = ++seq[src];
      const auto size = static_cast<std::uint32_t>(rng.uniform_int(dest_min, dest_max));
      in.dest = DynamicBitset::from_indices(n, rng.sample_without_replacement(nn, size));
      in.data = adversary::canonical_payload(RumorUid{src, in.seq}, 16);
      out.push_back(std::move(in));
    }
    made = due;
  }
  return out;
}

// -- simulator workloads -------------------------------------------------------------

/// Plain CONGOS: CongosConfig's defaults (tau = 1, degenerate mode allowed).
struct SimSpec {
  std::size_t n = 64;
  /// 136 + 64 + 2 = 202 rounds: p95 over the rounds needs 200.
  Round inject_rounds = 136;
  Round deadline = 64;
  double inject_prob = 0.02;
};

/// Forwards to the confidentiality auditor and counts the envelopes it
/// inspects. When traced it also times those calls; the end of the last one
/// marks the end of the engine's delivery phase.
class TimedAuditor final : public sim::ExecutionObserver {
 public:
  TimedAuditor(audit::ConfidentialityAuditor* inner, bool timed)
      : inner_(inner), timed_(timed) {}
  void on_inject(const sim::Rumor& r, Round now) override { inner_->on_inject(r, now); }
  void on_envelope_delivered(const sim::Envelope& e, Round now) override {
    ++envelopes;
    if (!timed_) {
      inner_->on_envelope_delivered(e, now);
      return;
    }
    const auto a = Clock::now();
    inner_->on_envelope_delivered(e, now);
    last_end = Clock::now();
    busy_s += secs(a, last_end);
  }
  double busy_s = 0;
  std::uint64_t envelopes = 0;
  Clock::time_point last_end;

 private:
  audit::ConfidentialityAuditor* inner_;
  bool timed_;
};

/// Registered last in the adversary composite: its hooks mark the phase
/// boundaries of Engine::step().
class PhaseMarks final : public sim::Adversary {
 public:
  void at_round_start(sim::Engine& /*e*/) override { round_start = Clock::now(); }
  void after_sends(sim::Engine& /*e*/) override { sends_done = Clock::now(); }
  void at_round_end(sim::Engine& /*e*/) override { receive_done = Clock::now(); }
  Clock::time_point round_start, sends_done, receive_done;
};

/// With `setup_only`, returns right after set-up (only setup_s is filled).
Episode run_sim_episode(const SimSpec& spec, std::uint64_t seed, bool traced,
                        bool setup_only, Tracer& tracer) {
  Episode ep;
  ep.traced = traced;
  const Round total = spec.inject_rounds + spec.deadline + 2;

  // The benchmark's own confidentiality auditor, behind the timing decorator;
  // ScenarioRun's built-in one is switched off. Its partition family is the
  // one build that partition.build_s reports; ScenarioRun builds its own
  // inside set-up.
  const core::CongosConfig ccfg;
  const auto t_part = Clock::now();
  const auto partitions = core::CongosProcess::build_partitions(spec.n, ccfg);
  ep.layers["partition.build_s"] = secs(t_part, Clock::now());
  audit::ConfidentialityAuditor conf(spec.n, partitions.get());
  TimedAuditor audited(&conf, traced);

  const auto t_setup = Clock::now();
  std::vector<adversary::OneShot::Item> items;
  for (Injection& in : make_injections(spec.n, 0, spec.inject_rounds, spec.inject_prob, 2, 8,
                                       seed)) {
    items.push_back({in.round, sim::make_rumor(in.source, in.seq, std::move(in.data),
                                               spec.deadline, std::move(in.dest))});
  }
  adversary::OneShot injections(std::move(items));
  PhaseMarks marks;
  harness::ScenarioConfig cfg;
  cfg.n = spec.n;
  cfg.seed = seed;
  cfg.rounds = spec.inject_rounds;
  cfg.congos = ccfg;
  cfg.workload = harness::WorkloadKind::kNone;
  cfg.min_drain = spec.deadline;
  cfg.audit_confidentiality = false;
  cfg.extra_observers = {&audited};
  cfg.extra_adversaries = {&injections};
  if (traced) cfg.extra_adversaries.push_back(&marks);
  harness::ScenarioRun run(cfg);
  sim::Engine& engine = run.engine();
  engine.stats().reserve_rounds(static_cast<std::size_t>(total));
  ep.setup_s = secs(t_setup, Clock::now());
  if (run.total_rounds() != total) {
    std::fprintf(stderr, "congos_perf: scenario runs %lld rounds, expected %lld\n",
                 static_cast<long long>(run.total_rounds()), static_cast<long long>(total));
    std::exit(2);
  }
  if (setup_only) return ep;

  ep.round_s.reserve(static_cast<std::size_t>(total));
  ep.round_cpu_s.reserve(static_cast<std::size_t>(total));
  const auto t0 = Clock::now();
  for (Round r = 0; r < total; ++r) {
    const double cpu_a = process_cpu_s();
    const auto a = Clock::now();
    const std::uint64_t envelopes_before = audited.envelopes;
    engine.step();
    const auto b = Clock::now();
    ep.round_s.push_back(secs(a, b));
    ep.round_cpu_s.push_back(process_cpu_s() - cpu_a);
    if (traced) {
      // Delivery ends with the last audited envelope; a round that delivers
      // nothing has an empty delivery phase.
      const auto deliver_end = audited.envelopes != envelopes_before ? audited.last_end
                                                                     : marks.sends_done;
      const int round = tracer.add("sim.round", -1, a, b);
      tracer.add("sim.adversary", round, a, marks.round_start);
      tracer.add("sim.send", round, marks.round_start, marks.sends_done);
      tracer.add("sim.deliver", round, marks.sends_done, deliver_end);
      tracer.add("sim.receive", round, deliver_end, marks.receive_done);
      tracer.add("sim.round_end", round, marks.receive_done, b);
    }
  }
  ep.wall_s = secs(t0, Clock::now());

  // res's confidentiality fields come from ScenarioRun's auditor, which is
  // off; the gate reads `conf` instead.
  const harness::ScenarioResult res = run.finalize();
  ep.counts["rounds"] = static_cast<std::uint64_t>(total);
  ep.counts["msgs_total"] = res.total_messages;
  ep.counts["msgs_per_round_max"] = res.max_per_round;
  ep.counts["bytes_total"] = res.total_bytes;
  for (std::size_t k = 0; k < kNumServices; ++k) {
    ep.counts[std::string("msgs.") + kServices[k]] = res.total_by_kind[k];
    ep.counts[std::string("bytes.") + kServices[k]] = res.total_bytes_by_kind[k];
  }
  ep.counts["audit_envelopes"] = audited.envelopes;
  ep.counts["crashes"] = res.crashes;
  ep.counts["restarts"] = res.restarts;
  ep.counts["cg_injected"] = res.injected;
  ep.counts["cg_injected_direct"] = res.cg_injected_direct;
  ep.counts["cg_confirmed"] = res.cg_confirmed;
  ep.counts["cg_shoots"] = res.cg_shoots;
  ep.counts["filter_drops"] = res.filter_drops;
  ep.counts["duplicates_suppressed"] = res.duplicates_suppressed;
  add_qod(ep, res.qod);
  add_confidentiality_gate(ep, conf);
  ep.gate["filter_drops"] = res.filter_drops;
  if (traced) ep.layers["audit.confidentiality_s"] = audited.busy_s;
  return ep;
}

// -- wire workloads --------------------------------------------------------------------

struct WireSpec {
  std::size_t n = 8;
  Round inject_rounds = 216;
  Round deadline = 40;
  double inject_prob = 0.1;
  bool durable = false;
  Round checkpoint_every = 8;
  std::size_t kills = 3;
};

/// The whole input of a wire episode, generated from the seed alone.
struct WireSchedule {
  std::vector<Injection> injects;  // sorted by round
  std::vector<harness::KillEvent> kills;
};

WireSchedule make_wire_schedule(const WireSpec& spec, std::uint64_t seed, Round total) {
  WireSchedule s;
  s.injects = make_injections(spec.n, 1, spec.inject_rounds, spec.inject_prob, 2, 4, seed);
  if (spec.durable) {
    harness::KillScheduleConfig kc;
    kc.seed = seed ^ 0x4b11'5c4e'd01eULL;
    kc.kills = spec.kills;
    kc.min_round = 2 * spec.checkpoint_every;
    kc.max_round = spec.inject_rounds;
    kc.down_min = 4;
    kc.down_max = 8;
    s.kills = harness::make_kill_schedule(kc, spec.n, total);
  }
  return s;
}

/// Sink for datagrams arriving at a killed node: counted and dropped, as the
/// kernel would drop them at a closed port.
struct DiscardSink final : net::DatagramSink {
  void on_datagram(ProcessId /*from*/, std::span<const std::uint8_t> d) override {
    net::FrameSplitter split(d);
    std::span<const std::uint8_t> frame;
    while (split.next(&frame) == net::FrameSplitter::Status::kFrame) {
      ++frames;
      wire::DecodedEnvelope dec;
      if (wire::decode_envelope(frame.data(), frame.size(), &dec)) ++sent_in_round[dec.round];
    }
  }
  std::uint64_t frames = 0;
  /// Frames by the round their sender stamped on them.
  std::map<Round, std::uint64_t> sent_in_round;
};

struct FeedSink final : net::DatagramSink {
  void on_datagram(ProcessId from, std::span<const std::uint8_t> d) override {
    const int id = tracer->open("net.handle", parent);
    rt->handle_datagram(from, d);
    tracer->close(id);
  }
  net::NodeRuntime* rt = nullptr;
  Tracer* tracer = nullptr;
  int parent = -1;
};

std::uint64_t json_u64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Replays the episode's event logs (and, when durable, its state files)
/// through the simulator's auditors, exactly as harness::run_cluster does
/// after a daemon cluster run. The kill schedule supplies crash/restart
/// rounds, so admissibility follows the continuously-alive rule.
void offline_audit(const WireSpec& spec, const std::string& dir,
                   const partition::PartitionSet& partitions,
                   const std::vector<std::pair<ProcessId, std::pair<Round, bool>>>& life,
                   Round horizon, std::map<Round, std::uint64_t> sent_in_round, Episode& ep) {
  const auto t0 = Clock::now();
  std::uint64_t parse_errors = 0;
  std::vector<sim::Rumor> rumors;
  struct Delivery {
    ProcessId at;
    RumorUid uid;
    Round when;
    std::vector<std::uint8_t> data;
  };
  std::vector<Delivery> deliveries;
  std::vector<std::pair<std::vector<std::uint8_t>, Round>> frames;
  for (ProcessId i = 0; i < spec.n; ++i) {
    std::ifstream in(dir + "/node" + std::to_string(i) + ".log");
    std::string text;
    while (std::getline(in, text)) {
      if (text.empty()) continue;
      net::Line line;
      bool ok = net::parse_line(text, &line);
      if (ok && line.verb == "inject") {
        sim::Rumor r;
        Round round = 0;
        std::string err;
        if (net::parse_inject_event(line, &r, &round, &err)) {
          rumors.push_back(std::move(r));
          continue;
        }
      } else if (ok && line.verb == "deliver") {
        Delivery d;
        d.when = line.get_int("round", &ok);
        d.at = static_cast<ProcessId>(line.get_int("at", &ok));
        d.uid.source = static_cast<ProcessId>(line.get_int("src", &ok));
        d.uid.seq = static_cast<std::uint64_t>(line.get_int("seq", &ok));
        if (ok && net::from_hex(line.get("data", &ok), &d.data) && ok) {
          deliveries.push_back(std::move(d));
          continue;
        }
      } else if (ok && line.verb == "recv") {
        const Round round = line.get_int("round", &ok);
        std::vector<std::uint8_t> frame;
        if (ok && net::from_hex(line.get("frame", &ok), &frame) && ok) {
          frames.emplace_back(std::move(frame), round);
          continue;
        }
      }
      ++parse_errors;
    }
  }

  audit::DeliveryAuditor qod(spec.n);
  audit::ConfidentialityAuditor conf(spec.n, &partitions);
  for (const sim::Rumor& r : rumors) {
    qod.on_inject(r, r.injected_at);
    conf.on_inject(r, r.injected_at);
  }
  for (const auto& [id, ev] : life) {
    if (ev.second) {
      qod.on_crash(id, ev.first);
    } else {
      qod.on_restart(id, ev.first);
    }
  }
  for (const Delivery& d : deliveries) qod.on_rumor_delivered(d.at, d.uid, d.when, d.data);

  std::uint64_t msgs[kNumServices] = {};
  std::uint64_t bytes[kNumServices] = {};
  for (const auto& [frame, round] : frames) {
    wire::DecodedEnvelope dec;
    if (!wire::decode_envelope(frame, &dec)) {
      ++parse_errors;
      continue;
    }
    const auto k = static_cast<std::size_t>(dec.env.tag.kind);
    if (k < kNumServices) {
      ++msgs[k];
      bytes[k] += frame.size();
    }
    ++sent_in_round[dec.round];
    conf.on_envelope_delivered(dec.env, round);
  }
  std::uint64_t state_errors = 0;
  if (spec.durable) {
    // State files are readable by anyone with the disk: every journaled
    // frame faces the same Definition 2 audit as the wire traffic.
    for (ProcessId i = 0; i < spec.n; ++i) {
      net::NodeCheckpoint ck;
      std::string err;
      if (!net::read_checkpoint_file(dir + "/state" + std::to_string(i) + ".ckpt", &ck,
                                     &err)) {
        ++state_errors;
        continue;
      }
      for (const net::CheckpointEvent& e : ck.events) {
        if (e.kind != net::CheckpointEvent::Kind::kRecv) continue;
        wire::DecodedEnvelope dec;
        if (!wire::decode_envelope(e.frame.data(), e.frame.size(), &dec)) {
          ++state_errors;
          continue;
        }
        conf.on_envelope_delivered(dec.env, e.round);
      }
    }
  }
  add_qod(ep, qod.finalize(horizon));
  add_confidentiality_gate(ep, conf);
  ep.gate["log_parse_errors"] = parse_errors;
  ep.gate["state_file_errors"] = state_errors;
  ep.counts["logged_frames"] = frames.size();
  // Definition 3 by the round each frame was sent in: a resumed node's
  // catch-up sends count towards the rounds they belong to, not the round
  // they happened to leave in.
  std::uint64_t round_max = 0;
  for (const auto& [round, c] : sent_in_round) round_max = std::max(round_max, c);
  ep.counts["msgs_per_round_max"] = round_max;
  ep.counts["audit_envelopes"] = frames.size();
  for (std::size_t k = 0; k < kNumServices; ++k) {
    ep.counts[std::string("msgs.") + kServices[k]] = msgs[k];
    ep.counts[std::string("bytes.") + kServices[k]] = bytes[k];
  }
  ep.layers["audit.offline_s"] = secs(t0, Clock::now());
}

/// With `setup_only`, returns right after set-up (only setup_s is filled).
Episode run_wire_episode(const WireSpec& spec, std::uint64_t seed, bool traced,
                         bool setup_only, const std::string& dir, Tracer& tracer) {
  Episode ep;
  ep.traced = traced;
  const Round total = spec.inject_rounds + spec.deadline + 2;
  const WireSchedule sched = make_wire_schedule(spec, seed, total);
  // Start from an empty directory, so that set-up never pays for truncating
  // the previous episode's logs.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::CongosConfig node_ccfg;
  node_ccfg.allow_degenerate = false;
  // Each node builds the partition family inside start(), within set-up; the
  // offline audit needs one more, which is the build partition.build_s times.
  const auto t_part = Clock::now();
  const auto partitions = core::CongosProcess::build_partitions(spec.n, node_ccfg);
  ep.layers["partition.build_s"] = secs(t_part, Clock::now());

  const auto t_setup = Clock::now();
  std::vector<std::unique_ptr<net::UdpTransport>> transports;
  for (ProcessId p = 0; p < spec.n; ++p) {
    transports.push_back(std::make_unique<net::UdpTransport>());
    std::string err;
    if (!transports.back()->open(0, &err)) {
      std::fprintf(stderr, "congos_perf: udp open failed: %s\n", err.c_str());
      std::exit(2);
    }
  }
  for (ProcessId p = 0; p < spec.n; ++p) {
    // Self included, as in the daemon's peer table: a process may address
    // itself (e.g. a rumor whose source is in its own destination set).
    for (ProcessId q = 0; q < spec.n; ++q) transports[p]->set_peer(q, transports[q]->local_port());
  }
  auto node_config = [&](ProcessId p) {
    net::NodeConfig cfg;
    cfg.id = p;
    cfg.n = spec.n;
    cfg.seed = seed;
    cfg.max_rounds = total;
    cfg.congos = node_ccfg;
    cfg.congos.retransmit.enabled = true;
    cfg.congos.retransmit.max_link_delay = 1;
    cfg.log_path = dir + "/node" + std::to_string(p) + ".log";
    if (spec.durable) cfg.state_path = dir + "/state" + std::to_string(p) + ".ckpt";
    return cfg;
  };
  // Lockstep rounds have no wall-clock length; every node (and every resumed
  // incarnation) shares this one clock binding, as a daemon cluster shares
  // its runner's epoch.
  constexpr std::int64_t kEpochMs = 1;
  constexpr std::int64_t kRoundMs = 1;
  std::vector<std::unique_ptr<net::NodeRuntime>> nodes;
  for (ProcessId p = 0; p < spec.n; ++p) {
    nodes.push_back(std::make_unique<net::NodeRuntime>(node_config(p), transports[p].get()));
    nodes.back()->set_clock_binding(kEpochMs, kRoundMs);
    std::string err;
    if (!nodes.back()->start(&err)) {
      std::fprintf(stderr, "congos_perf: node start failed: %s\n", err.c_str());
      std::exit(2);
    }
  }
  ep.setup_s = secs(t_setup, Clock::now());
  if (setup_only) return ep;

  // Lifecycle evidence for the offline QoD audit: (id, (round, crash?)).
  std::vector<std::pair<ProcessId, std::pair<Round, bool>>> life;
  DiscardSink discard;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t resume_failures = 0;
  std::size_t next_inject = 0;
  std::uint64_t live_frames = 0;  // accepted by live nodes

  ep.round_s.reserve(static_cast<std::size_t>(total));
  ep.round_cpu_s.reserve(static_cast<std::size_t>(total));
  const auto t0 = Clock::now();
  for (Round round = 1; round <= total; ++round) {
    const double cpu_a = process_cpu_s();
    const auto a = Clock::now();
    const int rs = tracer.open("net.round", -1);
    // Frames are counted where they land, per drain. (A resumed node's
    // frames_received() also counts its replayed journal.)
    std::uint64_t frames_before = 0;
    for (const auto& nd : nodes) frames_before += nd ? nd->frames_received() : 0;

    // Lockstep: flush every node, drain every node, only then advance, so
    // each round's traffic is fixed by the seed alone.
    for (auto& t : transports) {
      const int s = tracer.open("net.flush", rs);
      for (int tries = 0; !t->flush() && tries < 2000; ++tries) {
      }
      tracer.close(s);
    }
    for (ProcessId p = 0; p < spec.n; ++p) {
      const int s = tracer.open("net.drain", rs);
      if (nodes[p]) {
        FeedSink feed;
        feed.rt = nodes[p].get();
        feed.tracer = &tracer;
        feed.parent = s;
        transports[p]->drain(feed);
      } else {
        transports[p]->drain(discard);
      }
      tracer.close(s);
    }
    for (const auto& nd : nodes) live_frames += nd ? nd->frames_received() : 0;
    live_frames -= frames_before;

    // A kill lands after the drain: the victim sent in round-1 but never
    // ran that round's receive phase, so it crashed in round-1.
    for (const harness::KillEvent& k : sched.kills) {
      if (k.kill_round != round || !nodes[k.target]) continue;
      const int s = tracer.open("net.kill", rs);
      nodes[k.target].reset();
      life.push_back({k.target, {round - 1, true}});
      tracer.close(s);
    }
    for (auto& nd : nodes) {
      if (!nd) continue;
      const int s = tracer.open("net.advance", rs);
      nd->advance_to(round);
      tracer.close(s);
    }
    for (const harness::KillEvent& k : sched.kills) {
      if (k.kill_round + k.down_rounds != round || nodes[k.target]) continue;
      const int s = tracer.open("net.resume", rs);
      const ProcessId p = k.target;
      net::NodeCheckpoint ck;
      std::string err;
      auto rt = std::make_unique<net::NodeRuntime>(node_config(p), transports[p].get());
      rt->set_clock_binding(kEpochMs, kRoundMs);
      if (net::read_checkpoint_file(dir + "/state" + std::to_string(p) + ".ckpt", &ck,
                                    &err) &&
          rt->resume(ck, &err)) {
        rt->advance_to(round);  // catch up the rounds spent down
        nodes[p] = std::move(rt);
        life.push_back({p, {round, false}});
      } else {
        std::fprintf(stderr, "congos_perf: resume of node %u failed: %s\n", p, err.c_str());
        ++resume_failures;
      }
      tracer.close(s);
    }
    {
      const int s = tracer.open("net.inject", rs);
      for (; next_inject < sched.injects.size() && sched.injects[next_inject].round <= round;
           ++next_inject) {
        const Injection& in = sched.injects[next_inject];
        if (nodes[in.source]) {
          nodes[in.source]->inject(in.seq, spec.deadline, in.dest, in.data);
        }
      }
      tracer.close(s);
    }
    if (spec.durable && round % spec.checkpoint_every == 0) {
      const int s = tracer.open("net.checkpoint", rs);
      for (ProcessId p = 0; p < spec.n; ++p) {
        if (!nodes[p]) continue;
        std::string err;
        if (!nodes[p]->save_checkpoint(&err)) {
          std::fprintf(stderr, "congos_perf: checkpoint failed: %s\n", err.c_str());
          std::exit(2);
        }
        // Each save rewrites the whole journal.
        checkpoint_bytes +=
            std::filesystem::file_size(dir + "/state" + std::to_string(p) + ".ckpt");
      }
      tracer.close(s);
    }
    tracer.close(rs);
    ep.round_s.push_back(secs(a, Clock::now()));
    ep.round_cpu_s.push_back(process_cpu_s() - cpu_a);
  }
  ep.wall_s = secs(t0, Clock::now());

  // Collected outside the timed window.
  net::TransportStats sum;
  std::uint64_t hwm = 0;
  for (const auto& t : transports) {
    const net::TransportStats& s = t->stats();
    sum.datagrams_sent += s.datagrams_sent;
    sum.datagrams_received += s.datagrams_received;
    sum.bytes_sent += s.bytes_sent;
    sum.send_errors += s.send_errors;
    sum.no_route += s.no_route;
    sum.queue_overflow += s.queue_overflow;
    sum.send_syscalls += s.send_syscalls;
    sum.recv_syscalls += s.recv_syscalls;
    hwm = std::max<std::uint64_t>(hwm, s.queue_hwm);
  }
  std::uint64_t unhealthy = 0, decode_errors = 0, encode_errors = 0;
  std::uint64_t journal_events = 0;
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (!nodes[p]) {  // a victim that failed to resume
      ++unhealthy;
      continue;
    }
    net::NodeRuntime& nd = *nodes[p];
    nd.flush_log();
    if (!nd.healthy()) ++unhealthy;
    decode_errors += nd.decode_errors() + nd.malformed_datagrams();
    encode_errors += nd.encode_errors();
    const std::string js = nd.stats_json();
    core::CgCounters c;
    c.injected = json_u64(js, "injected");
    c.confirmed = json_u64(js, "confirmed");
    c.shoots = json_u64(js, "shoots");
    add_congos_counters(ep, c, json_u64(js, "filter_drops"),
                        json_u64(js, "duplicates_suppressed"));
    if (spec.durable) journal_events += nd.make_checkpoint().events.size();
  }

  ep.counts["rounds"] = static_cast<std::uint64_t>(total);
  ep.counts["msgs_total"] = live_frames + discard.frames;
  ep.counts["bytes_total"] = sum.bytes_sent;
  ep.counts["datagrams_sent"] = sum.datagrams_sent;
  ep.counts["frames_discarded_at_dead_nodes"] = discard.frames;
  ep.counts["crashes"] = sched.kills.size();
  ep.counts["journal_events"] = journal_events;

  ep.gate["unhealthy_nodes"] = unhealthy;
  ep.gate["decode_errors"] = decode_errors;
  ep.gate["encode_errors"] = encode_errors;
  ep.gate["send_errors"] = sum.send_errors + sum.no_route;
  ep.gate["datagrams_sent"] = sum.datagrams_sent;
  ep.gate["datagrams_received"] = sum.datagrams_received;
  ep.gate["resume_failures"] = resume_failures;
  ep.gate["filter_drops"] = ep.counts["filter_drops"];

  ep.layers["net.send_syscalls"] = static_cast<double>(sum.send_syscalls);
  ep.layers["net.recv_syscalls"] = static_cast<double>(sum.recv_syscalls);
  ep.layers["net.queue_hwm"] = static_cast<double>(hwm);
  ep.layers["net.queue_overflow"] = static_cast<double>(sum.queue_overflow);
  ep.layers["net.dgrams_lost"] =
      static_cast<double>(sum.datagrams_sent - std::min(sum.datagrams_sent, sum.datagrams_received));
  ep.counts["checkpoint_bytes"] = checkpoint_bytes;

  nodes.clear();  // closes the event logs before the audit reads them
  offline_audit(spec, dir, *partitions, life, total, discard.sent_in_round, ep);
  // Every frame a live node accepted must be in its event log, and nothing
  // else; the service split comes from the logged frames.
  const std::uint64_t logged = ep.counts["logged_frames"];
  ep.gate["log_frame_mismatch"] =
      live_frames > logged ? live_frames - logged : logged - live_frames;
  return ep;
}

// -- main --------------------------------------------------------------------------------

void emit_episode(Json& j, const Episode& ep) {
  j.begin('{');
  j.field("traced", ep.traced).field("wall_s", ep.wall_s);
  j.key("round_s").begin('[');
  for (const double v : ep.round_s) j.num(v);
  j.end(']');
  j.key("round_cpu_s").begin('[');
  for (const double v : ep.round_cpu_s) j.num(v);
  j.end(']');
  j.key("counts").begin('{');
  for (const auto& [k, v] : ep.counts) j.field(k, v);
  j.end('}');
  j.key("gate").begin('{');
  for (const auto& [k, v] : ep.gate) j.field(k, v);
  j.end('}');
  j.key("layers").begin('{');
  for (const auto& [k, v] : ep.layers) j.field(k, v);
  j.end('}');
  j.end('}');
}

/// Set-up is cheap next to an episode; it is repeated on its own this many
/// times after every episode, so that its samples span the whole run: the
/// host's speed for a ~0.2 ms set-up shifts by up to 1.7x from one tenth of a
/// second to the next. setup_s comes from these reps alone. Each rep starts
/// from a trimmed heap, so it faults in its memory as a fresh process does;
/// otherwise whether a wire set-up reuses its socket buffers or faults them in
/// (1 ms or 6 ms) would follow the allocator's state. The first few reps after
/// an episode are still slower, so a batch must be long enough for the median
/// to sit among the settled ones.
constexpr int kSetupReps = 20;

int usage() {
  std::fprintf(stderr,
               "usage: congos_perf --workload <sim-congos|wire-lockstep|wire-durable>"
               " --seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      trace = v == "1";
    } else if (k == "--workdir") {
      workdir = v;
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || workdir.empty() || seconds <= 0) return usage();

  std::optional<SimSpec> sim_spec;
  std::optional<WireSpec> wire_spec;
  if (workload == "sim-congos") {
    sim_spec = SimSpec{};
  } else if (workload == "wire-lockstep") {
    wire_spec = WireSpec{};
  } else if (workload == "wire-durable") {
    WireSpec w;
    w.durable = true;
    wire_spec = w;
  } else {
    return usage();
  }

  const std::size_t engine_threads = harness::default_engine_threads();
  const std::string dir = workdir + "/" + workload + "-" + std::to_string(getpid());
  std::vector<Episode> episodes;
  std::unique_ptr<Tracer> last_trace;
  Clock::time_point last_trace_origin;
  std::vector<double> setups;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    // With tracing, episodes alternate untraced / traced so both halves see
    // the same machine state; the difference is the tracing overhead.
    const bool traced = trace && (i % 2 == 1);
    auto tracer = std::make_unique<Tracer>(traced);
    const auto origin = Clock::now();
    Episode ep = sim_spec
                     ? run_sim_episode(*sim_spec, seed, traced, false, *tracer)
                     : run_wire_episode(*wire_spec, seed, traced, false, dir, *tracer);
    if (traced) {
      for (const auto& [k, v] : tracer->self_seconds()) ep.layers["span." + k] = v;
      last_trace = std::move(tracer);
      last_trace_origin = origin;
    }
    episodes.push_back(std::move(ep));
    for (int k = 0; k < kSetupReps; ++k) {
      malloc_trim(0);
      Tracer off(false);
      setups.push_back(sim_spec
                           ? run_sim_episode(*sim_spec, seed, false, true, off).setup_s
                           : run_wire_episode(*wire_spec, seed, false, true, dir, off).setup_s);
    }
    // Traced runs need two episodes of each kind.
    const std::size_t need = trace ? 4 : 3;
    if (episodes.size() >= need && secs(start, Clock::now()) >= seconds) {
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (last_trace && !trace_out.empty()) last_trace->write(trace_out, last_trace_origin);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json j;
  j.begin('{');
  j.field("workload", workload).field("seed", seed);
  j.field("engine_threads", engine_threads);
  j.field("lz4", wire::lz4_available());
  j.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  j.field("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.key("setup_only_s").begin('[');
  for (const double v : setups) j.num(v);
  j.end(']');
  j.key("episodes").begin('[');
  for (const Episode& ep : episodes) emit_episode(j, ep);
  j.end(']');
  j.end('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
