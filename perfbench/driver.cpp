// perfbench driver: one workload's jobs against the simulator's public API.
//
//   perfbench_driver measure <workload> --seed N --seconds S
//       whole jobs until S seconds have passed, with set-up samples before
//       the first and after each; every result is checked and digested.
//       Prints one JSON line.
//   perfbench_driver setup <workload> --seed N
//       set-up samples only (fattree_artifacts takes them between its
//       eac_cli jobs).
//   perfbench_driver job <workload> --seed N
//       one untraced job; prints its wall time (obs.idle_overhead pairs).
//   perfbench_driver traced <workload> --seed N
//       the per-layer pass: recorders installed, plus timers around each
//       layer's public entry points. Prints one JSON line of metrics.
//
// Workloads: highload_sweep, flows_100k, ring_pdes, fattree (the in-process
// half of fattree_artifacts: set-up and layer timings; its timed job is
// eac_cli, driven by run.py).
//
// Every check below is a property or an independent computation from the
// spec's own arithmetic; nothing is compared against stored output.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eac/config.hpp"
#include "scenario/builder.hpp"
#include "scenario/parallel.hpp"
#include "scenario/partition.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/topogen.hpp"
#include "sim/domain_profile.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "traffic/catalog.hpp"

namespace {

using namespace eac;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;

// ---------------------------------------------------------------------------
// Workload inputs. Sizes are chosen so one job takes a few seconds on a
// 4-core host; README.md records the make-up of each.
// ---------------------------------------------------------------------------

constexpr double kSweepSeconds = 40;      // highload_sweep: simulated s/point
constexpr double kFlowsTarget = 100'000;  // flows_100k: concurrent flows
// flows_100k's window starts after the pre-warm transient: every pre-warmed
// source starts its first on period at t = 0 with aligned packet clocks,
// which drops ~18 % of the data over [0.25, 1) s and under 0.1 % once most
// sources have begun a second on period.
constexpr double kFlowsSeconds = 2.0;     // flows_100k: simulated s
constexpr double kFlowsWarmup = 1.5;
constexpr double kRingSeconds = 60;       // ring_pdes: seeded spec
constexpr double kRingWarmup = 20;
constexpr int kRingDomains = 4;
// ring_pdes's partition-invariance operation: a fixed spec (not the run's
// seed) on which the 4-domain cut differs from the serial run every time.
constexpr std::uint64_t kInvarianceSeed = 17;
constexpr double kInvarianceSeconds = 10;
constexpr double kInvarianceWarmup = 5;
// fattree_artifacts: fabrics per job, seeds kCaptures * seed + i, and the
// fabric of `eac_cli --scenario fattree --k 4 --duration 8 --warmup 2
// --lifetime 20` (run.py drives eac_cli with the same values).
constexpr std::uint64_t kCaptures = 6;
constexpr int kFatTreeK = 4;
constexpr double kFatTreeSeconds = 8;
constexpr double kFatTreeWarmup = 2;
constexpr double kFatTreeLifetime = 20;
// setup_s: one sample repeats the job's set-up until this much wall time
// has passed and divides by the repeats, so a 2 ms set-up is not read off
// a single timer interval; kSetupSamples samples before the first job and
// after every job spread them over the run like the jobs themselves.
constexpr double kSetupBatchSeconds = 0.02;
constexpr int kSetupSamples = 5;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
};

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::size_t sweep_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw > 0 ? hw : 1);
}

/// The Figures 4-7 flow population: EXP1 on/off sources arriving every
/// tau = 1 s (~400 % offered load), probing at their token rate. Measured
/// from t = 0 so the window's population is the pre-warm plus admissions.
scenario::RunConfig highload_base(std::uint64_t seed) {
  scenario::RunConfig cfg;
  FlowClass c;
  c.arrival_rate_per_s = 1.0;
  c.onoff = traffic::exp1();
  c.packet_size = traffic::kOnOffPacketBytes;
  c.probe_rate_bps = c.onoff.burst_rate_bps;
  cfg.classes = {c};
  cfg.duration_s = kSweepSeconds;
  cfg.warmup_s = 0;
  cfg.seed = seed;
  return cfg;
}

/// 4 designs x 3 probing algorithms x the design's epsilon sweep, plus the
/// six Measured Sum targets: 72 points.
std::vector<ScenarioSpec> highload_specs(std::uint64_t seed) {
  const scenario::RunConfig base = highload_base(seed);
  const EacConfig designs[] = {drop_in_band(), drop_out_of_band(),
                               mark_in_band(), mark_out_of_band()};
  const ProbeAlgo algos[] = {ProbeAlgo::kSimple, ProbeAlgo::kSlowStart,
                             ProbeAlgo::kEarlyReject};
  std::vector<ScenarioSpec> out;
  for (const EacConfig& d : designs) {
    std::vector<double> eps(std::begin(kOutOfBandEpsilons),
                            std::end(kOutOfBandEpsilons));
    if (d.band == ProbeBand::kInBand) {
      eps.assign(std::begin(kInBandEpsilons), std::end(kInBandEpsilons));
    }
    for (ProbeAlgo a : algos) {
      for (double e : eps) {
        scenario::RunConfig cfg = base;
        cfg.policy = scenario::PolicyKind::kEndpoint;
        cfg.eac = d;
        cfg.eac.algo = a;
        for (FlowClass& c : cfg.classes) c.epsilon = e;
        out.push_back(scenario::single_link_spec(cfg));
      }
    }
  }
  for (double u : {0.80, 0.85, 0.90, 0.95, 1.00, 1.05}) {
    scenario::RunConfig cfg = base;
    cfg.policy = scenario::PolicyKind::kMbac;
    cfg.mbac_target_utilization = u;
    out.push_back(scenario::single_link_spec(cfg));
  }
  return out;
}

/// One admission-controlled link sized so kFlowsTarget pre-warmed flows put
/// 72 % offered data load on it; arrivals hold the population stationary.
ScenarioSpec flows_spec(std::uint64_t seed) {
  constexpr double kPerFlowBps = 16'000;  // 32 kbps burst, 50 % duty cycle
  ScenarioSpec spec;
  spec.name = "flows_100k";
  spec.policy = scenario::PolicyKind::kEndpoint;
  spec.eac = drop_in_band();
  FlowClass c;
  c.arrival_rate_per_s = kFlowsTarget / 300.0;
  c.onoff.burst_rate_bps = 32'000;
  c.onoff.mean_on_s = 0.5;
  c.onoff.mean_off_s = 0.5;
  c.packet_size = 125;
  c.probe_rate_bps = 32'000;
  c.epsilon = 0.02;
  c.compact_rng = true;
  spec.flows = {c};
  spec.mean_lifetime_s = 300.0;
  spec.prewarm_bps = kFlowsTarget * kPerFlowBps;
  scenario::LinkSpec l;
  l.from = 0;
  l.to = 1;
  l.rate_bps = kFlowsTarget * kPerFlowBps / 0.72;
  spec.links = {l};
  spec.duration_s = kFlowsSeconds;
  spec.warmup_s = kFlowsWarmup;
  spec.seed = seed;
  return spec;
}

/// The 4-cluster partitionable ring (multihop_pdes_spec).
ScenarioSpec ring_spec(std::uint64_t seed, double duration, double warmup,
                       int domains) {
  scenario::RunConfig cfg;
  FlowClass c;
  c.arrival_rate_per_s = 1.0;
  c.onoff = traffic::exp1();
  c.packet_size = traffic::kOnOffPacketBytes;
  c.probe_rate_bps = c.onoff.burst_rate_bps;
  c.epsilon = 0.01;
  cfg.classes = {c};
  cfg.eac = drop_in_band();
  cfg.duration_s = duration;
  cfg.warmup_s = warmup;
  cfg.seed = seed;
  ScenarioSpec spec = scenario::multihop_pdes_spec(cfg);
  spec.partitions = domains;
  return spec;
}

/// The spec eac_cli builds for `--scenario fattree --k K --lifetime L` with
/// its default flow (EXP1, tau 3.5 s, eps 0.01, drop-inband slow-start),
/// serial.
ScenarioSpec fattree_spec(std::uint64_t seed) {
  FlowClass c;
  c.arrival_rate_per_s = 1.0 / 3.5;
  c.epsilon = 0.01;
  c.onoff = traffic::exp1();
  c.packet_size = traffic::kOnOffPacketBytes;
  c.probe_rate_bps = c.onoff.burst_rate_bps;
  scenario::FatTreeParams p;
  p.k = kFatTreeK;
  p.fabric_rate_bps = 10e6;
  p.fabric_buffer_packets = 200;
  p.flow = c;
  p.mean_lifetime_s = kFatTreeLifetime;
  ScenarioSpec spec = scenario::make_fat_tree(p, seed);
  spec.policy = scenario::PolicyKind::kEndpoint;
  spec.eac = drop_in_band();
  spec.duration_s = kFatTreeSeconds;
  spec.warmup_s = kFatTreeWarmup;
  spec.partitions = 1;
  return spec;
}

/// The specs of one job (run once each per job) for a workload.
std::vector<ScenarioSpec> job_specs(const Options& o) {
  if (o.workload == "highload_sweep") return highload_specs(o.seed);
  if (o.workload == "flows_100k") return {flows_spec(o.seed)};
  // The timed ring job is the serial run: a 4-domain cut's wall time follows
  // the host's CPU steal (README.md), so the cut is checked and profiled
  // but not timed end to end.
  if (o.workload == "ring_pdes") {
    return {ring_spec(o.seed, kRingSeconds, kRingWarmup, 1)};
  }
  if (o.workload == "fattree") {
    std::vector<ScenarioSpec> out;
    for (std::uint64_t i = 0; i < kCaptures; ++i) {
      out.push_back(fattree_spec(kCaptures * o.seed + i));
    }
    return out;
  }
  return {};
}

/// The same spec cut to zero simulated length: set-up plus the t = 0
/// events (pre-warm emissions) only.
ScenarioSpec zero_length(ScenarioSpec s) {
  s.duration_s = 0;
  s.warmup_s = 0;
  return s;
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< operations that failed, any reason
  bool correct = true;       ///< false once a non-known-fault check fails
  std::vector<std::string> messages;

  void note(std::string m) {
    if (messages.size() < 20) messages.push_back(std::move(m));
  }
};

/// Collects the failed conditions of one operation.
struct Op {
  std::vector<std::string> errors;
  void expect(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// Packets that can be in flight anywhere in the network at one instant:
/// every buffer full plus every link's bandwidth-delay product in the
/// smallest packet size. Packets sent before the measurement window opened
/// can be counted as received inside it, at most this many.
double inflight_bound(const ScenarioSpec& s) {
  double min_pkt = 1e9;
  for (const FlowClass& f : s.flows) {
    min_pkt = std::min(min_pkt, static_cast<double>(f.packet_size));
  }
  double n = 0;
  for (const scenario::LinkSpec& l : s.links) {
    n += static_cast<double>(l.buffer_packets) + 2 +
         std::ceil(l.rate_bps * l.delay.to_seconds() / (8 * min_pkt));
  }
  return n;
}

/// Conservation, on every result: accepts <= attempts,
/// data_marked <= data_received <= data_sent (+ in-flight at the window
/// start), utilizations in [0, 1], ordered delay percentiles.
void check_conservation(const ScenarioSpec& s, const ScenarioResult& r,
                        Op& op) {
  const double inflight = inflight_bound(s);
  auto group = [&](const std::string& g, const stats::GroupCounters& c) {
    op.expect(c.accepts <= c.attempts, g + ": accepts > attempts");
    op.expect(c.data_marked <= c.data_received,
              g + ": data_marked > data_received");
    op.expect(static_cast<double>(c.data_received) <=
                  static_cast<double>(c.data_sent) + inflight,
              g + fmt(": data_received %.0f > data_sent %.0f + in-flight",
                      static_cast<double>(c.data_received),
                      static_cast<double>(c.data_sent)));
  };
  for (const auto& [id, c] : r.groups) group("group " + std::to_string(id), c);
  group("total", r.total);
  op.expect(r.links.size() == s.links.size(), "one report per link");
  for (const scenario::LinkReport& l : r.links) {
    op.expect(l.utilization >= 0 && l.utilization <= 1 + 1e-9,
              l.name + fmt(": utilization %g outside [0,1]", l.utilization));
    op.expect(l.probe_utilization >= 0 &&
                  l.utilization + l.probe_utilization <= 1 + 1e-3,
              l.name + fmt(": data %g + probe %g share exceeds the link",
                           l.utilization, l.probe_utilization));
  }
  op.expect(r.delay_p50_s >= 0 && r.delay_p50_s <= r.delay_p99_s,
            fmt("delay p50 %g > p99 %g", r.delay_p50_s, r.delay_p99_s));
}

/// Variance of the on-time an exponential on/off source accumulates over
/// `w` seconds (two-state Markov chain, long-window limit).
double onoff_ontime_var(const traffic::OnOffParams& m, double w) {
  const double a = m.mean_on_s, b = m.mean_off_s;
  const double p = a / (a + b);
  const double tau = a * b / (a + b);  // correlation time
  return 2 * p * (1 - p) * tau * w;
}

/// Mean data rate of an exponential on/off source as the model defines it:
/// packets leave at the burst rate from the start of each on period until
/// it ends, so an on period of length L ~ Exp(a) sends ceil(L / g) packets
/// (mean 1 / (1 - e^{-g/a})) and the off period starts at the first packet
/// slot at or after L.
double packet_rate_bps(const FlowClass& f) {
  const double bits = 8.0 * f.packet_size;
  const double g = bits / f.onoff.burst_rate_bps;
  const double n = 1 / (1 - std::exp(-g / f.onoff.mean_on_s));
  return bits * n / (n * g + f.onoff.mean_off_s);
}

/// highload_sweep, per point. Little's law over a window shorter than the
/// mean lifetime T: the N0 pre-warmed flows carry
///   u0 = N0 r / C * (T/W)(1 - e^{-W/T})
/// (each lives Exp(T), cut at W), and each of the A flows admitted in the
/// window adds between 0 and r / C. A = (1 - blocking) * attempts, so the
/// increment is the (1 - B) x offered-load term of the steady-state law,
/// scaled by the window. Data lost at the link is not carried. The band
/// adds 5 sigma of on/off and lifetime sampling noise.
void check_highload_point(const ScenarioSpec& s, const ScenarioResult& r,
                          Op& op) {
  const FlowClass& f = s.flows.at(0);
  const double C = s.links.at(0).rate_bps;
  const double rbar = packet_rate_bps(f);
  const double T = s.mean_lifetime_s;
  const double W = s.duration_s - s.warmup_s;
  // The pre-warm count is the spec's own arithmetic: its target over the
  // class's nominal mean rate.
  const double n0 = std::floor(s.prewarm_bps / f.onoff.average_rate_bps());
  const double q = 1 - std::exp(-W / T);
  const double u0 = n0 * rbar / C * (T / W) * q;
  const double A = static_cast<double>(r.total.accepts);
  const double inc = A * rbar / C;
  // Sampling noise: on/off on-time of all flows, and the pre-warmed flows'
  // lifetimes min(Exp(T), W).
  const double var_on = (n0 + A) * onoff_ontime_var(f.onoff, W) *
                        f.onoff.burst_rate_bps * f.onoff.burst_rate_bps;
  const double e1 = T * q;
  const double e2 = 2 * T * T * (1 - std::exp(-W / T) * (1 + W / T));
  const double var_life = n0 * (e2 - e1 * e1) * rbar * rbar;
  const double sigma = std::sqrt(var_on + var_life) / (C * W);
  const double u = r.links.at(0).utilization;
  const double lo = (u0 - 5 * sigma) * (1 - r.loss());
  const double hi = u0 + inc + 5 * sigma;
  op.expect(u >= lo && u <= hi,
            fmt("Little's law: utilization %.4f outside [%.4f, %.4f]", u, lo,
                hi));
  // Attempts: Poisson arrivals at rate lambda over the window, less those
  // whose verdict falls after it (at most one probe length).
  const double lam = f.arrival_rate_per_s;
  const double probe_s = s.policy == scenario::PolicyKind::kMbac
                             ? 0.0
                             : s.eac.total_probe_seconds() +
                                   s.eac.decision_lag_seconds;
  const double att = static_cast<double>(r.total.attempts);
  const double mean_hi = lam * W, mean_lo = lam * std::max(0.0, W - probe_s);
  op.expect(att <= mean_hi + 6 * std::sqrt(mean_hi) + 1 &&
                att >= mean_lo - 6 * std::sqrt(mean_hi) - 1,
            fmt("attempts %.0f outside the Poisson band of lambda*W = %.1f",
                att, mean_hi));
  if (s.policy == scenario::PolicyKind::kMbac) {
    op.expect(r.links.at(0).probe_utilization == 0,
              fmt("MBAC point carries probe share %g",
                  r.links.at(0).probe_utilization));
  }
}

/// flows_100k: the population reaches the target; flows_created is the
/// pre-warm plus a Poisson number of arrivals; the sources emit what the
/// spec offers (72 % of the link, packet-level rate, less the pre-warmed
/// flows that departed); the link carries that offered load, to within the
/// sampling band and the packets a full buffer holds at the window start,
/// so data lost at the link fails the check; and the receivers count what
/// the link carried, to within the packets in flight at the window edges.
void check_flows(const ScenarioSpec& s, const ScenarioResult& r, Op& op) {
  const FlowClass& f = s.flows.at(0);
  const double bits = 8.0 * f.packet_size;
  const double rbar = packet_rate_bps(f);
  const double C = s.links.at(0).rate_bps;
  const double T = s.mean_lifetime_s;
  const double n0 = std::floor(s.prewarm_bps / f.onoff.average_rate_bps());
  const double lam = f.arrival_rate_per_s;
  const double D = s.duration_s, w0 = s.warmup_s, W = D - w0;
  op.expect(static_cast<double>(r.peak_active_flows) >= kFlowsTarget,
            fmt("peak_active_flows %.0f < %.0f",
                static_cast<double>(r.peak_active_flows), kFlowsTarget));
  const double created = static_cast<double>(r.flows_created);
  const double mean = n0 + lam * D;
  op.expect(std::abs(created - mean) <= 5 * std::sqrt(lam * D) + 1,
            fmt("flows_created %.0f outside the Poisson band of %.0f",
                created, mean));
  // Offered data in the window: the pre-warmed flows that are still alive
  // (Exp(T) lifetimes), plus arrivals admitted early enough to have finished
  // probing (none in a window shorter than one probe). 5 sigma of on/off
  // and departure sampling noise.
  const double probe_s = s.eac.total_probe_seconds() + s.eac.decision_lag_seconds;
  const double alive = T / W * (std::exp(-w0 / T) - std::exp(-D / T));
  const double late = std::max(0.0, D - probe_s) * lam * (1 - r.blocking());
  const double offered = (n0 * alive + late) * rbar / C;
  const double var_on = n0 * onoff_ontime_var(f.onoff, W) *
                        f.onoff.burst_rate_bps * f.onoff.burst_rate_bps;
  const double var_dep = n0 * (1 - alive) * rbar * rbar * W * W;
  const double sigma = std::sqrt(var_on + var_dep) / (C * W);
  const double sent = static_cast<double>(r.total.data_sent) * bits / (C * W);
  op.expect(std::abs(sent - offered) <= 5 * sigma,
            fmt("sources sent %.4f of the link, offered %.4f +- %.4f", sent,
                offered, 5 * sigma));
  const double u = r.links.at(0).utilization;
  const double queued =
      static_cast<double>(s.links.at(0).buffer_packets + 2) * bits / (C * W);
  op.expect(std::abs(u - offered) <= 5 * sigma + queued,
            fmt("utilization %.4f outside offered %.4f +- %.4f", u, offered,
                5 * sigma + queued));
  const double recv = static_cast<double>(r.total.data_received) * bits / (C * W);
  const double edge = inflight_bound(s) * bits / (C * W);
  op.expect(std::abs(u - recv) <= edge,
            fmt("utilization %.4f, receivers counted %.4f (+- %.4f)", u, recv,
                edge));
}

// ---------------------------------------------------------------------------
// Digest of the modelled outputs: per-link utilization, per-group counters,
// delay percentiles, event and flow counts. Printed, never compared with a
// stored copy: a change meant only to speed the simulator must leave it
// unchanged between parent and change.
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  void add(const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  }
  void add(const ScenarioResult& r) {
    char buf[128];
    for (const scenario::LinkReport& l : r.links) {
      std::snprintf(buf, sizeof buf, "L%s %.17g %.17g;", l.name.c_str(),
                    l.utilization, l.probe_utilization);
      add(buf);
    }
    auto counters = [&](const char* tag, long id, const stats::GroupCounters& c) {
      std::snprintf(buf, sizeof buf, "%s%ld %llu %llu %llu %llu %llu;", tag, id,
                    static_cast<unsigned long long>(c.attempts),
                    static_cast<unsigned long long>(c.accepts),
                    static_cast<unsigned long long>(c.data_sent),
                    static_cast<unsigned long long>(c.data_received),
                    static_cast<unsigned long long>(c.data_marked));
      add(buf);
    };
    for (const auto& [id, c] : r.groups) counters("G", id, c);
    counters("T", 0, r.total);
    std::snprintf(buf, sizeof buf, "D %.17g %.17g E %llu F %llu %llu;",
                  r.delay_p50_s, r.delay_p99_s,
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.flows_created),
                  static_cast<unsigned long long>(r.peak_active_flows));
    add(buf);
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string digest_of(const ScenarioResult& r) {
  Digest d;
  d.add(r);
  return d.hex();
}

// ---------------------------------------------------------------------------
// Running jobs.
// ---------------------------------------------------------------------------

/// Run one spec, optionally under every recorder the program offers
/// (telemetry engine profile, trace category counts, domain profiler).
ScenarioResult run_spec(const ScenarioSpec& s, bool recorded) {
  if (!recorded) return scenario::run_scenario(s);
#if EAC_TELEMETRY_ENABLED && EAC_TRACE_ENABLED && EAC_DOMPROF_ENABLED
  telemetry::Recorder rec;
  telemetry::Scope tscope{rec};
  // Category counts are taken before the ring drops anything, so a small
  // ring is enough for them and keeps the traced pass's memory flat.
  trace::Config tc;
  tc.limit_events = 1u << 16;
  trace::Sink sink{tc};
  trace::Scope sscope{sink};
  sim::DomainProfiler dprof;
  sim::domprof::Scope dscope{dprof};
  return scenario::run_scenario(s);
#else
  std::fprintf(stderr, "perfbench: recording needs the instrumented build\n");
  std::exit(2);
#endif
}

struct JobResult {
  double wall = 0;
  double cpu = 0;
  std::vector<ScenarioResult> results;
  std::vector<double> point_wall;  ///< per spec, seconds
};

JobResult run_job(const std::vector<ScenarioSpec>& specs,
                  scenario::SweepRunner* pool, bool recorded = false) {
  JobResult j;
  j.results.resize(specs.size());
  j.point_wall.resize(specs.size());
  const double c0 = cpu_now();
  const double t0 = wall_now();
  auto one = [&](std::size_t i) {
    const double p0 = wall_now();
    j.results[i] = run_spec(specs[i], recorded);
    j.point_wall[i] = wall_now() - p0;
  };
  if (pool != nullptr) {
    pool->for_each(specs.size(), one);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) one(i);
  }
  j.wall = wall_now() - t0;
  j.cpu = cpu_now() - c0;
  return j;
}

/// The differences between a cut run and its serial reference, in words.
std::string result_diff(const ScenarioResult& serial,
                        const ScenarioResult& cut) {
  std::string out;
  for (const auto& [id, c] : serial.groups) {
    const auto it = cut.groups.find(id);
    if (it == cut.groups.end()) {
      out += " group " + std::to_string(id) + " missing;";
      continue;
    }
    const stats::GroupCounters& d = it->second;
    const char* names[] = {"attempts", "accepts", "data_sent",
                           "data_received", "data_marked"};
    const std::uint64_t a[] = {c.attempts, c.accepts, c.data_sent,
                               c.data_received, c.data_marked};
    const std::uint64_t b[] = {d.attempts, d.accepts, d.data_sent,
                               d.data_received, d.data_marked};
    for (int k = 0; k < 5; ++k) {
      if (a[k] != b[k]) {
        out += " group " + std::to_string(id) + " " + names[k] + " serial " +
               std::to_string(a[k]) + " cut " + std::to_string(b[k]) + ";";
      }
    }
  }
  if (serial.events != cut.events) {
    out += " events serial " + std::to_string(serial.events) + " cut " +
           std::to_string(cut.events) + ";";
  }
  if (out.empty()) out = " link utilization or delay percentiles differ;";
  return out;
}

/// Check one job's results; count its operations (one per spec).
void check_job(const Options& o, const std::vector<ScenarioSpec>& specs,
               const JobResult& j, Checks& checks) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Op op;
    check_conservation(specs[i], j.results[i], op);
    if (o.workload == "highload_sweep") {
      check_highload_point(specs[i], j.results[i], op);
    } else if (o.workload == "flows_100k") {
      check_flows(specs[i], j.results[i], op);
    }
    ++checks.attempted;
    if (op.errors.empty()) continue;
    ++checks.failed;
    checks.correct = false;
    checks.note("spec " + std::to_string(i) + ": " + op.errors.front());
  }
}

/// ring_pdes's partition-invariance operation, once per round, untimed: the
/// fixed spec cut into kRingDomains domains must reproduce its serial run.
/// The serial result is computed once per process (not stored): the
/// simulation is deterministic.
struct Invariance {
  ScenarioSpec cut;
  ScenarioResult serial;
};

std::unique_ptr<Invariance> make_invariance(const Options& o) {
  if (o.workload != "ring_pdes") return nullptr;
  auto inv = std::make_unique<Invariance>();
  inv->cut = ring_spec(kInvarianceSeed, kInvarianceSeconds, kInvarianceWarmup,
                       kRingDomains);
  ScenarioSpec serial = inv->cut;
  serial.partitions = 1;
  inv->serial = scenario::run_scenario(serial);
  return inv;
}

void check_invariance(const Invariance& inv, Checks& checks) {
  const ScenarioResult cut = scenario::run_scenario(inv.cut);
  Op op;
  check_conservation(inv.cut, cut, op);
  ++checks.attempted;
  if (!op.errors.empty()) {
    ++checks.failed;
    checks.correct = false;
    checks.note("invariance spec: " + op.errors.front());
  } else if (digest_of(inv.serial) != digest_of(cut)) {
    // The known fault: counted as a failed operation, not hidden.
    ++checks.failed;
    checks.note("partition invariance: the " + std::to_string(kRingDomains) +
                "-domain run of the fixed ring spec (seed " +
                std::to_string(kInvarianceSeed) +
                ") differs from the serial run:" +
                result_diff(inv.serial, cut) +
                " fault: same-nanosecond tie order between cross-domain"
                " deliveries and local events (DESIGN.md section 11)");
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_str(const std::string& v) {
  scenario::JsonWriter w;
  w.value(v);
  return w.take();
}

/// kSetupSamples setup_s samples, appended to `out`: produce the job's
/// specs and build each at zero length, repeated for kSetupBatchSeconds.
void sample_setup(const Options& o, std::vector<double>& out) {
  for (int i = 0; i < kSetupSamples; ++i) {
    int reps = 0;
    const double t0 = wall_now();
    double elapsed = 0;
    do {
      for (const ScenarioSpec& s : job_specs(o)) {
        scenario::run_scenario(zero_length(s));
      }
      ++reps;
      elapsed = wall_now() - t0;
    } while (elapsed < kSetupBatchSeconds);
    out.push_back(elapsed / reps);
  }
}

std::unique_ptr<scenario::SweepRunner> make_pool(const Options& o) {
  if (o.workload != "highload_sweep") return nullptr;
  return std::make_unique<scenario::SweepRunner>(sweep_workers());
}

int cmd_measure(const Options& o) {
  std::vector<double> setup;
  sample_setup(o, setup);
  const std::vector<ScenarioSpec> specs = job_specs(o);
  const auto pool = make_pool(o);
  const auto invariance = make_invariance(o);
  Checks checks;
  std::vector<double> walls, cpus;
  std::string digest;
  std::uint64_t events = 0;
  const double start = wall_now();
  double round = 0;
  do {
    const double r0 = wall_now();
    const JobResult j = run_job(specs, pool.get());
    walls.push_back(j.wall);
    cpus.push_back(j.cpu);
    check_job(o, specs, j, checks);
    if (invariance != nullptr) check_invariance(*invariance, checks);
    Digest d;
    events = 0;
    for (const ScenarioResult& r : j.results) {
      d.add(r);
      events += r.events;
    }
    // Repeated jobs of one spec set must reproduce their outputs exactly.
    if (!digest.empty() && d.hex() != digest) {
      checks.correct = false;
      checks.note("job outputs differ between repeats of the same inputs");
    }
    digest = d.hex();
    sample_setup(o, setup);
    round = wall_now() - r0;
    // Whole rounds only: stop before one that would overrun the run length.
  } while (wall_now() - start + round <= o.seconds);

  std::string msgs = "[";
  for (std::size_t i = 0; i < checks.messages.size(); ++i) {
    msgs += (i ? "," : "") + json_str(checks.messages[i]);
  }
  msgs += "]";
  std::printf(
      "{\"setup_s\":%s,\"wall_s\":%s,\"cpu_s\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"correct\":%s,\"digest\":\"%s\",\"events\":%llu,"
      "\"messages\":%s}\n",
      json_list(setup).c_str(), json_list(walls).c_str(),
      json_list(cpus).c_str(),
      static_cast<unsigned long long>(checks.attempted),
      static_cast<unsigned long long>(checks.failed),
      checks.correct ? "true" : "false", digest.c_str(),
      static_cast<unsigned long long>(events), msgs.c_str());
  return 0;
}

int cmd_setup(const Options& o) {
  std::vector<double> setup;
  sample_setup(o, setup);
  std::printf("{\"setup_s\":%s}\n", json_list(setup).c_str());
  return 0;
}

int cmd_job(const Options& o) {
  const std::vector<ScenarioSpec> specs = job_specs(o);
  const auto pool = make_pool(o);
  const JobResult j = run_job(specs, pool.get());
  std::printf("{\"wall_s\":%.9g}\n", j.wall);
  return 0;
}

// ---------------------------------------------------------------------------
// The traced pass.
// ---------------------------------------------------------------------------

#if EAC_TELEMETRY_ENABLED && EAC_TRACE_ENABLED && EAC_DOMPROF_ENABLED

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metrics {
  std::vector<std::pair<std::string, double>> kv;
  void set(const std::string& k, double v) { kv.emplace_back(k, v); }
  std::string json() const {
    std::string s = "{";
    char buf[96];
    for (std::size_t i = 0; i < kv.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\":%.9g", i ? "," : "",
                    kv[i].first.c_str(), kv[i].second);
      s += buf;
    }
    return s + "}";
  }
};

template <typename F>
double time_ms(F&& f) {
  const double t0 = wall_now();
  f();
  return 1e3 * (wall_now() - t0);
}

/// Median over `reps` repetitions of f's wall time, in ms.
template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_ms(f));
  return median(v);
}

int cmd_traced(const Options& o) {
  Metrics m;
  // Bytes per flow first, while this process's peak RSS is still flat:
  // the zero-length build holds every pre-warmed flow at once.
  double rss_per_flow = 0;
  if (o.workload == "flows_100k") {
    const double before = peak_rss_bytes();
    const ScenarioResult r = scenario::run_scenario(zero_length(flows_spec(o.seed)));
    rss_per_flow = (peak_rss_bytes() - before) /
                   std::max<double>(1, static_cast<double>(r.peak_active_flows));
  }

  // Set-up, layer by layer (median of 3): spec generation, partitioning,
  // and the zero-length build.
  std::vector<ScenarioSpec> specs;
  const double topogen_ms = median_ms(3, [&] { specs = job_specs(o); });
  // ring_pdes's PDES layers run its seeded spec cut into kRingDomains.
  const bool pdes = o.workload == "ring_pdes";
  ScenarioSpec cut = specs.front();
  if (pdes) cut.partitions = kRingDomains;
  const double partition_ms = median_ms(3, [&] {
    for (const ScenarioSpec& s : specs) {
      scenario::partition_spec(s, scenario::resolve_domains(s));
    }
    if (pdes) scenario::partition_spec(cut, kRingDomains);
  });
  const double build_ms = median_ms(3, [&] {
    for (const ScenarioSpec& s : specs) scenario::run_scenario(zero_length(s));
  });

  const auto pool = make_pool(o);
  const std::size_t workers = pool != nullptr ? pool->thread_count() : 1;
  // End-to-end reference for this pass: one untraced job, then the same
  // job with every recorder installed. The ratio is the traced pass's own
  // overhead; the recorded job supplies the layer counts and self times.
  const JobResult plain = run_job(specs, pool.get());
  const JobResult traced = run_job(specs, pool.get(), /*recorded=*/true);
  // The untraced job's outputs pass the same checks as in the timed runs.
  Checks checks;
  check_job(o, specs, plain, checks);
  if (const auto inv = make_invariance(o)) check_invariance(*inv, checks);
  for (const std::string& msg : checks.messages) {
    std::fprintf(stderr, "perfbench: check: %s\n", msg.c_str());
  }
  m.set("attempted", static_cast<double>(checks.attempted));
  m.set("failed", static_cast<double>(checks.failed));
  m.set("correct", checks.correct ? 1 : 0);
  std::uint64_t events = 0;
  for (const ScenarioResult& r : plain.results) events += r.events;

  double cat_ms[telemetry::kCategoryCount] = {};
  double cat_events[telemetry::kCategoryCount] = {};
  double max_pending = 0;
  double trc[trace::kCategoryCount] = {};
  for (const ScenarioResult& r : traced.results) {
    for (std::size_t c = 0; c < r.telemetry.profile.categories.size() &&
                            c < telemetry::kCategoryCount;
         ++c) {
      cat_ms[c] += r.telemetry.profile.categories[c].wall_ms;
      cat_events[c] += static_cast<double>(r.telemetry.profile.categories[c].events);
    }
    max_pending = std::max(max_pending,
                           static_cast<double>(r.telemetry.profile.max_pending));
    for (std::size_t c = 0; c < trace::kCategoryCount; ++c) {
      trc[c] += static_cast<double>(r.trace.by_category[c]);
    }
  }
  auto cat = [](telemetry::Category c) { return static_cast<std::size_t>(c); };
  auto tcat = [](trace::Category c) { return static_cast<std::size_t>(c); };

  m.set("sim.events", static_cast<double>(events));
  m.set("sim.ns_per_event", events > 0 ? 1e9 * plain.wall / static_cast<double>(events) : 0);
  m.set("sim.max_pending", max_pending);
  m.set("sim.other.self_ms", cat_ms[cat(telemetry::Category::kOther)]);
  m.set("net.self_ms", cat_ms[cat(telemetry::Category::kNet)]);
  m.set("net.events", cat_events[cat(telemetry::Category::kNet)]);
  m.set("net.queue_ops", trc[tcat(trace::Category::kQueue)]);
  m.set("net.link_ops", trc[tcat(trace::Category::kLink)]);
  m.set("traffic.self_ms", cat_ms[cat(telemetry::Category::kTraffic)]);
  m.set("traffic.events", cat_events[cat(telemetry::Category::kTraffic)]);
  m.set("eac.probe.self_ms", cat_ms[cat(telemetry::Category::kProbe)]);
  m.set("eac.probe.events", cat_events[cat(telemetry::Category::kProbe)]);
  m.set("eac.probe_ops", trc[tcat(trace::Category::kProbe)]);
  m.set("eac.flows.self_ms", cat_ms[cat(telemetry::Category::kFlows)]);
  m.set("eac.flows.events", cat_events[cat(telemetry::Category::kFlows)]);
  m.set("eac.flow_ops", trc[tcat(trace::Category::kFlow)]);
  m.set("eac.rss_bytes_per_flow", rss_per_flow);
  m.set("mbac.self_ms", cat_ms[cat(telemetry::Category::kMbac)]);
  m.set("mbac.events", cat_events[cat(telemetry::Category::kMbac)]);
  m.set("scenario.topogen_ms", topogen_ms);
  m.set("scenario.partition_ms", partition_ms);
  m.set("scenario.build_ms", build_ms);

  // Sweep fan-out: how much of the workers' time the points filled.
  double idle = 0, p50 = 0, pmax = 0;
  if (o.workload == "highload_sweep") {
    double sum = 0;
    for (double w : plain.point_wall) sum += w;
    idle = 1 - sum / (static_cast<double>(workers) * plain.wall);
    p50 = median(plain.point_wall);
    pmax = *std::max_element(plain.point_wall.begin(), plain.point_wall.end());
  }
  m.set("scenario.sweep.idle_fraction", idle);
  m.set("scenario.sweep.point_s_p50", p50);
  m.set("scenario.sweep.point_s_max", pmax);

  // PDES coordinator: the cut run profiled, and its speed-up over the
  // serial job (untraced both).
  sim::DomainProfileReport dom;
  double speedup = 0;
  if (pdes) {
    dom = run_spec(cut, /*recorded=*/true).domains;
    speedup = 1e3 * plain.wall / time_ms([&] { scenario::run_scenario(cut); });
  }
  double cross = 0, inbox = 0, stalls = 0;
  for (const sim::DomainProfileEntry& e : dom.per_domain) {
    cross += static_cast<double>(e.cross_in);
    inbox = std::max(inbox, static_cast<double>(e.peak_inbox_depth));
    stalls += static_cast<double>(e.stall_rounds);
  }
  m.set("sim.domain.rounds", static_cast<double>(dom.rounds));
  m.set("sim.domain.stall_rounds", stalls);
  m.set("sim.domain.barrier_wait_fraction", dom.barrier_wait_fraction);
  m.set("sim.domain.imbalance", dom.imbalance);
  m.set("sim.domain.window_mean_us", 1e6 * dom.window_mean_s);
  m.set("sim.domain.speedup", speedup);
  m.set("net.cross_msgs", cross);
  m.set("net.inbox_peak", inbox);

  // Each recorder alone on one representative spec, against a bare run.
  const ScenarioSpec& rep = specs.front();
  const double bare_ms = time_ms([&] { scenario::run_scenario(rep); });
  ScenarioResult tel_res;
  const double tel_ms = time_ms([&] {
    telemetry::Recorder rec;
    telemetry::Scope scope{rec};
    tel_res = scenario::run_scenario(rep);
  });
  // The trace capture eac_cli makes in fattree_artifacts (probe and queue
  // events, a ring large enough to drop nothing); elsewhere the default.
  trace::Config tcfg;
  if (o.workload == "fattree") {
    std::string path;
    trace::parse_trace_arg("x:probe,queue", path, tcfg);
    tcfg.limit_events = 1u << 22;
  }
  trace::Sink sink{tcfg};
  ScenarioResult trc_res;
  const double trc_ms = time_ms([&] {
    trace::Scope scope{sink};
    trc_res = scenario::run_scenario(rep);
  });
  m.set("telemetry.record_overhead", tel_ms / bare_ms);
  m.set("trace.record_overhead", trc_ms / bare_ms);
  double export_ms = 0, export_mib = 0, report_ms = 0;
  if (o.workload == "fattree") {
    std::string doc;
    export_ms = time_ms([&] { doc = sink.export_chrome_json(&trc_res.domains); });
    export_mib = static_cast<double>(doc.size()) / (1024.0 * 1024.0);
    // The --telemetry artifact's body: the spec and the recorded result.
    report_ms = time_ms([&] {
      (void)scenario::to_json(rep);
      (void)scenario::to_json(tel_res);
    });
  }
  m.set("trace.export_ms", export_ms);
  m.set("trace.export_mib", export_mib);
  m.set("scenario.report_ms", report_ms);
  m.set("scenario.bare_run_ms", bare_ms);
  m.set("obs.traced_overhead", traced.wall / plain.wall);
  std::printf("%s\n", m.json().c_str());
  return 0;
}

#else

int cmd_traced(const Options&) {
  std::fprintf(stderr, "perfbench: the traced pass needs the instrumented build\n");
  return 2;
}

#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver measure|setup|job|traced <workload> "
               "--seed N [--seconds S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  Options o;
  o.mode = argv[1];
  o.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v);
    } else {
      return usage();
    }
  }
  if (job_specs(o).empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.mode == "measure") return cmd_measure(o);
  if (o.mode == "setup") return cmd_setup(o);
  if (o.mode == "job") return cmd_job(o);
  if (o.mode == "traced") return cmd_traced(o);
  return usage();
}
