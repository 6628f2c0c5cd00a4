// End-to-end benchmark binary for the hcrl reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//
// Workloads (each single-threaded, pinned to precision = f64 and
// gemm_threads = 1, engine left at the run_scenario default):
//   paper-hier    table1/m30/hierarchical, 8000 jobs (2000 pretrain): the
//                 paper's own system; time goes to the global DQN and the
//                 local LSTM.
//   paper-drl     table1/m30/drl-only on the same trace: shares the global
//                 tier, local tier is immediate-sleep, so local-tier or LSTM
//                 changes must leave it unchanged.
//   fleet-faulty  10,000 servers, random-k (k = 2) + immediate-sleep,
//                 200,000 synthetic jobs over 3,820 s (the paper's
//                 per-server rate), no pretrain, the registry's *-faulty
//                 recipe: the event engine, fault/retry path and trace
//                 generation carry the time; the NN layers none of it.
//
// --trace 0 times whole cells through core::run_scenario with telemetry off
// and prints the end-to-end metrics. --trace 1 additionally re-drives the
// cell once through the same public pieces run_scenario uses, with the
// policies wrapped in timing decorators, prints the per-layer metrics, and
// checks that the traced run reproduces the untraced one bit for bit.
// --scale tiny shrinks every workload so all code paths run in seconds.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit status is non-zero when any output check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/core/predictor.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/matrix.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/fault/fault.hpp"
#include "src/sim/sharded_cluster.hpp"
#include "src/telemetry/export.hpp"
#include "src/telemetry/registry.hpp"

namespace {

using hcrl::core::ExperimentConfig;
using hcrl::core::ExperimentResult;
using hcrl::core::Scenario;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads -------------------------------------------------------------

// Paper Table I (M = 30, 95,000 real Google jobs): energy saving against
// round-robin, 1 - 242.25/441.47 and 1 - 203.21/441.47.
constexpr double kPaperSavingDrlOnlyPct = 45.1;
constexpr double kPaperSavingHierPct = 54.0;

Scenario paper_cell(const std::string& registry_name, bool tiny) {
  return hcrl::core::ScenarioRegistry::builtin().make(registry_name, tiny ? 400 : 8000);
}

Scenario fleet_faulty_cell(bool tiny) {
  // The paper's rate is 95,000 jobs a week on 30 servers; at 20 jobs per
  // server that is a 3,820 s horizon at any fleet size. The horizon is far
  // longer than a job (~800 s mean), so the number of jobs in flight, and
  // with it the event heap, is that of a longer trace; the short horizon
  // keeps a cell near half a second, so a run times many cells.
  const std::size_t servers = tiny ? 100 : 10000;
  Scenario s;
  s.name = "fleet-faulty";
  s.config.num_servers = servers;
  s.config.num_groups = 4;  // unused without a DRL tier; must divide num_servers
  s.config.allocator = "random-k";
  s.config.allocator_opts.set("k", std::int64_t{2});
  s.config.power = "immediate-sleep";
  s.config.trace.num_jobs = 20 * servers;
  s.config.trace.horizon_s = 3820.0;
  s.config.trace.seed = 2011;
  s.config.pretrain_jobs = 0;
  s.config.checkpoint_every_jobs = 0;
  // The registry's *-faulty recipe (MTBF 4 h, MTTR 600 s, evictions every
  // 6 h, faults.seed 1045), taken from a registered faulty cell.
  s.config.faults =
      hcrl::core::ScenarioRegistry::builtin().make("tiny/round-robin-faulty", 0).config.faults;
  return s;
}

Scenario make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Scenario s;
  if (name == "paper-hier") {
    s = paper_cell("table1/m30/hierarchical", tiny);
  } else if (name == "paper-drl") {
    s = paper_cell("table1/m30/drl-only", tiny);
  } else if (name == "fleet-faulty") {
    s = fleet_faulty_cell(tiny);
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: paper-hier, paper-drl, fleet-faulty)");
  }
  // Pinned so HCRL_PRECISION / HCRL_GEMM_THREADS cannot change what is measured.
  s.config.precision = hcrl::nn::Precision::kF64;
  s.config.gemm_threads = 1;
  s.seed = seed;
  return s;
}

/// Jobs the cell simulates: the offline-construction prefix (learning
/// allocators only, as in run_scenario) plus the measured trace.
std::size_t simulated_jobs(const ExperimentConfig& cfg) {
  const auto& registry = hcrl::policy::PolicyRegistry::builtin();
  const bool pretrains =
      registry.allocator_info(hcrl::policy::resolve_system(cfg).allocator).learning;
  return cfg.trace.num_jobs + (pretrains ? std::min(cfg.pretrain_jobs, cfg.trace.num_jobs) : 0);
}

// ---- shared set-up pieces ----------------------------------------------------

/// The measured run's fault injector, built exactly as core::run_scenario
/// builds it; null when the config injects no faults.
std::unique_ptr<hcrl::sim::FaultInjector> make_faults(const ExperimentConfig& cfg,
                                                     const hcrl::core::Trace& trace) {
  if (!cfg.faults.enabled()) return nullptr;
  hcrl::sim::FaultConfig fc = cfg.faults;
  if (fc.seed == 0) {
    fc.seed = hcrl::common::SplitMix64(cfg.trace.seed ^ 0xFA017FA017FA017FULL).next();
  }
  const double horizon =
      (trace.jobs.empty() ? 0.0 : trace.jobs.back().arrival) + fc.horizon_padding_s;
  return std::make_unique<hcrl::sim::FaultInjector>(fc, cfg.num_servers, horizon);
}

/// One set-up pass: the calls run_scenario makes before the first simulated
/// event (trace production, system construction, fault plan).
double time_setup(const Scenario& scenario) {
  const auto t0 = Clock::now();
  const ExperimentConfig cfg = scenario.materialized();
  const hcrl::core::Trace trace = scenario.effective_trace()->produce();
  const hcrl::policy::SystemBundle system = hcrl::policy::build_system(cfg);
  const auto faults = make_faults(cfg, trace);
  return seconds_since(t0);
}

// ---- output checks -----------------------------------------------------------

/// The simulated outcome the checks compare: everything a run reports that
/// must not depend on timing or tracing.
struct Outcome {
  double energy_joules = 0.0;
  double accumulated_latency_s = 0.0;
  double latency_p99_s = 0.0;
  std::size_t jobs_arrived = 0;
  std::size_t jobs_completed = 0;
  hcrl::sim::FaultCounters faults;
};

Outcome outcome_of(const ExperimentResult& r) {
  const auto& s = r.final_snapshot;
  return {s.energy_joules, s.accumulated_latency_s, r.latency_p99_s,
          s.jobs_arrived,  s.jobs_completed,        s.faults};
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Field-by-field bitwise comparison; returns the names of differing fields.
std::vector<std::string> diff_outcomes(const Outcome& a, const Outcome& b) {
  std::vector<std::string> diffs;
  const auto f = [&](const char* name, double x, double y) {
    if (!bits_equal(x, y)) diffs.emplace_back(name);
  };
  const auto n = [&](const char* name, std::size_t x, std::size_t y) {
    if (x != y) diffs.emplace_back(name);
  };
  f("energy_joules", a.energy_joules, b.energy_joules);
  f("accumulated_latency_s", a.accumulated_latency_s, b.accumulated_latency_s);
  f("latency_p99_s", a.latency_p99_s, b.latency_p99_s);
  n("jobs_arrived", a.jobs_arrived, b.jobs_arrived);
  n("jobs_completed", a.jobs_completed, b.jobs_completed);
  n("faults.crashes", a.faults.crashes, b.faults.crashes);
  n("faults.recoveries", a.faults.recoveries, b.faults.recoveries);
  n("faults.evictions", a.faults.evictions, b.faults.evictions);
  n("faults.jobs_killed", a.faults.jobs_killed, b.faults.jobs_killed);
  n("faults.bounces", a.faults.bounces, b.faults.bounces);
  n("faults.retries", a.faults.retries, b.faults.retries);
  n("faults.jobs_lost", a.faults.jobs_lost, b.faults.jobs_lost);
  f("faults.lost_cpu_seconds", a.faults.lost_cpu_seconds, b.faults.lost_cpu_seconds);
  f("faults.downtime_s", a.faults.downtime_s, b.faults.downtime_s);
  return diffs;
}

/// Invariants every finished cell must satisfy; returns the violations.
std::vector<std::string> check_outcome(const Outcome& o, std::size_t submitted) {
  std::vector<std::string> errors;
  if (o.jobs_completed + o.faults.jobs_lost != submitted) {
    errors.push_back("completed (" + std::to_string(o.jobs_completed) + ") + lost (" +
                     std::to_string(o.faults.jobs_lost) + ") != submitted (" +
                     std::to_string(submitted) + ")");
  }
  if (!std::isfinite(o.energy_joules) || o.energy_joules <= 0.0) {
    errors.push_back("energy is not finite and positive");
  }
  if (!std::isfinite(o.accumulated_latency_s) || o.accumulated_latency_s < 0.0 ||
      !std::isfinite(o.latency_p99_s) || o.latency_p99_s < 0.0) {
    errors.push_back("latency is not finite and non-negative");
  }
  return errors;
}

// ---- statistics --------------------------------------------------------------

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Exact per-call percentile in microseconds (same index rule as the
/// program's own tail-latency metric).
double percentile_us(std::vector<double> samples_s, double q) {
  return samples_s.empty() ? 0.0 : 1e6 * hcrl::common::percentile(samples_s, q);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- timing decorators (traced run) ----------------------------------------

/// Busy time of one class of calls, with one sample per call.
struct CallTimes {
  double total_s = 0.0;
  std::vector<double> samples_s;

  void add(double dt) {
    total_s += dt;
    samples_s.push_back(dt);
  }
  double calls() const { return static_cast<double>(samples_s.size()); }
};

/// Forwards select_server to the wrapped allocator and times each call,
/// split by whether the DRL learner took a minibatch step inside it
/// (train_steps() advanced) or only encoded state and ran Q inference.
class TimedAllocator final : public hcrl::sim::AllocationPolicy {
 public:
  TimedAllocator(hcrl::sim::AllocationPolicy& inner, const hcrl::core::DrlAllocator* drl)
      : inner_(inner), drl_(drl) {}

  hcrl::sim::ServerId select_server(const hcrl::sim::ClusterView& cluster,
                                    const hcrl::sim::Job& job) override {
    const std::int64_t steps = drl_ != nullptr ? drl_->train_steps() : 0;
    const auto t0 = Clock::now();
    const hcrl::sim::ServerId target = inner_.select_server(cluster, job);
    const double dt = seconds_since(t0);
    const bool trained = drl_ != nullptr && drl_->train_steps() != steps;
    (trained ? train : decide).add(dt);
    return target;
  }
  void on_simulation_end(const hcrl::sim::ClusterView& cluster, hcrl::sim::Time now) override {
    inner_.on_simulation_end(cluster, now);
  }
  RoutingMode routing_mode() const override { return inner_.routing_mode(); }
  std::string name() const override { return inner_.name(); }

  double busy_s() const { return decide.total_s + train.total_s; }

  CallTimes decide;
  CallTimes train;

 private:
  hcrl::sim::AllocationPolicy& inner_;
  const hcrl::core::DrlAllocator* drl_;
};

/// Forwards the inline power hooks (on_idle, on_arrival) and times each
/// call. Staging hooks keep their defaults, so the traced run takes the
/// per-call decision path. on_arrival calls that ran an LSTM training round
/// are recognised from LstmPredictor::observations() and its train rule.
class TimedPower final : public hcrl::sim::PowerPolicy {
 public:
  TimedPower(hcrl::sim::PowerPolicy& inner, hcrl::core::RlPowerManager* rl, std::size_t servers)
      : inner_(inner), lstm_(servers, nullptr) {
    if (rl == nullptr) return;
    for (std::size_t id = 0; id < servers; ++id) {
      lstm_[id] = dynamic_cast<const hcrl::core::LstmPredictor*>(
          &rl->predictor(static_cast<hcrl::sim::ServerId>(id)));
    }
  }

  double on_idle(const hcrl::sim::Server& server, hcrl::sim::Time now) override {
    const auto t0 = Clock::now();
    const double timeout = inner_.on_idle(server, now);
    idle.add(seconds_since(t0));
    return timeout;
  }

  void on_arrival(const hcrl::sim::Server& server, const hcrl::sim::Job& job,
                  hcrl::sim::Time now) override {
    const hcrl::core::LstmPredictor* lstm = lstm_.at(server.id());
    const std::size_t seen = lstm != nullptr ? lstm->observations() : 0;
    const auto t0 = Clock::now();
    inner_.on_arrival(server, job, now);
    const double dt = seconds_since(t0);
    observe.add(dt);
    if (lstm != nullptr && lstm->observations() != seen && trained_now(*lstm)) lstm_train.add(dt);
  }

  std::string name() const override { return inner_.name(); }

  double busy_s() const { return idle.total_s + observe.total_s; }

  CallTimes idle;
  CallTimes observe;
  CallTimes lstm_train;

 private:
  /// LstmPredictor::observe trains after every train_interval-th
  /// observation once its history exceeds lookback + 1 entries.
  static bool trained_now(const hcrl::core::LstmPredictor& lstm) {
    const auto& o = lstm.options();
    const std::size_t n = lstm.observations();
    return n % o.train_interval == 0 && std::min(n, o.history_capacity) > o.lookback + 1;
  }

  hcrl::sim::PowerPolicy& inner_;
  std::vector<const hcrl::core::LstmPredictor*> lstm_;
};

// ---- traced run ----------------------------------------------------------------

std::vector<double> completed_latencies(const hcrl::sim::Cluster& cluster) {
  std::vector<double> out;
  for (const auto& r : cluster.metrics().job_records()) out.push_back(r.latency());
  return out;
}

std::vector<double> completed_latencies(const hcrl::sim::ShardedCluster& cluster) {
  std::vector<double> out;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    for (const auto& r : cluster.shard_metrics(s).job_records()) out.push_back(r.latency());
  }
  return out;
}

struct TracedRun {
  Outcome outcome;
  double wall_s = 0.0;
  double produce_s = 0.0;
  double build_s = 0.0;
  double fault_plan_s = 0.0;
  double pretrain_s = 0.0;
  double measured_s = 0.0;
  double step_s = 0.0;  // every step() loop, policy time included
  CallTimes decide, train, idle, observe, lstm_train;
  double policy_s = 0.0;  // decorated policy time inside the step loops
  std::uint64_t events = 0, arrivals = 0, crashes = 0, evictions = 0, retries = 0, lost = 0;
  std::uint64_t gemm_calls = 0, gemm_macs = 0;
};

/// Re-drives `scenario` the way core::run_scenario does (materialized config,
/// effective trace, registry-built system, offline construction phase,
/// fault injector, the engine the config selects) with timed policy
/// decorators and the telemetry registry on for its counters.
TracedRun traced_run(const Scenario& scenario) {
  namespace sim = hcrl::sim;
  namespace telemetry = hcrl::telemetry;
  TracedRun out;
  telemetry::global_registry().reset();
  telemetry::set_enabled(true);
  const auto wall0 = Clock::now();

  scenario.validate();
  const ExperimentConfig cfg = scenario.materialized();
  if (cfg.gemm_threads > 0) hcrl::nn::set_gemm_threads(cfg.gemm_threads);

  auto t0 = Clock::now();
  hcrl::core::Trace trace = scenario.effective_trace()->produce();
  out.produce_s = seconds_since(t0);

  t0 = Clock::now();
  hcrl::policy::SystemBundle system = hcrl::policy::build_system(cfg);
  out.build_s = seconds_since(t0);

  TimedAllocator allocation(*system.allocation, system.drl);
  TimedPower power(*system.power, system.local_rl, cfg.num_servers);
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server = cfg.server;

  const auto step_loop = [&](auto& cluster) {
    const double policy0 = allocation.busy_s() + power.busy_s();
    const auto s0 = Clock::now();
    while (cluster.step()) {
    }
    out.step_s += seconds_since(s0);
    out.policy_s += allocation.busy_s() + power.busy_s() - policy0;
  };

  if (system.drl != nullptr && cfg.pretrain_jobs > 0) {
    t0 = Clock::now();
    const std::size_t n = std::min(cfg.pretrain_jobs, trace.jobs.size());
    std::vector<sim::Job> prefix(trace.jobs.begin(),
                                 trace.jobs.begin() + static_cast<std::ptrdiff_t>(n));
    sim::Cluster warmup(cc, allocation, power);
    warmup.load_jobs(std::move(prefix));
    step_loop(warmup);
    system.drl->end_episode();
    out.pretrain_s = seconds_since(t0);
  }
  if (system.drl != nullptr) system.drl->set_learning(cfg.learn_during_run);
  if (system.local_rl != nullptr) system.local_rl->set_learning(cfg.learn_during_run);

  t0 = Clock::now();
  const auto faults = make_faults(cfg, trace);
  out.fault_plan_s = seconds_since(t0);

  ExperimentResult result;
  const auto measured = [&](auto& cluster) {
    cluster.install_faults(faults.get());
    cluster.load_jobs(std::move(trace.jobs));
    step_loop(cluster);
    result.final_snapshot = cluster.snapshot();
    std::vector<double> latencies = completed_latencies(cluster);
    if (!latencies.empty()) result.latency_p99_s = hcrl::common::percentile(latencies, 0.99);
  };
  t0 = Clock::now();
  if (cfg.shards == 0) {
    sim::Cluster cluster(cc, allocation, power);
    measured(cluster);
  } else {
    sim::ShardedClusterConfig scc;
    scc.cluster = cc;
    scc.num_shards = cfg.shards;
    sim::ShardedCluster cluster(scc, allocation, power);
    measured(cluster);
  }
  out.measured_s = seconds_since(t0);
  out.wall_s = seconds_since(wall0);

  telemetry::set_enabled(false);
  const telemetry::RegistrySnapshot snap = telemetry::global_registry().snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const telemetry::MetricValue* m = snap.find(name);
    return m != nullptr ? m->count : 0;
  };
  out.events = counter("sim.events");
  out.arrivals = counter("sim.arrivals");
  out.crashes = counter("sim.faults.crashes");
  out.evictions = counter("sim.faults.evictions");
  out.retries = counter("sim.faults.retries");
  out.lost = counter("sim.faults.jobs_lost");
  out.gemm_calls = counter("nn.gemm.calls");
  out.gemm_macs = counter("nn.gemm.macs");

  out.outcome = outcome_of(result);
  out.decide = std::move(allocation.decide);
  out.train = std::move(allocation.train);
  out.idle = std::move(power.idle);
  out.observe = std::move(power.observe);
  out.lstm_train = std::move(power.lstm_train);
  return out;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "{\"n\": " + std::to_string(v.size()) +
                    ", \"median\": " + json_number(median(v)) +
                    ", \"q1\": " + json_number(quantile(v, 0.25)) +
                    ", \"q3\": " + json_number(quantile(v, 0.75)) + ", \"samples\": [";
  for (std::size_t i = 0; i < v.size() && i < 16; ++i) out += (i ? ", " : "") + json_number(v[i]);
  return out + "]}";
}

// ---- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--scale takes full or tiny");
      }
      a.tiny = value == "tiny";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// Cell runs that threw or failed a check, against cells attempted.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  /// Record one cell run and its check violations (none: it passed).
  void record(const std::vector<std::string>& violations) {
    ++attempted;
    if (violations.empty()) return;
    ++failed;
    errors.insert(errors.end(), violations.begin(), violations.end());
  }
};

/// Cells per untraced run. Each is the workload on its own input: cell 0
/// uses Scenario::seed = --seed, the rest seeds drawn from a SplitMix64
/// stream over it. One trace is a small sample (energy and tail latency move
/// by 5-10% from seed to seed), so the simulated metrics are medians over
/// these cells: 8 on the ~4 s paper cells, 32 on the ~0.5 s fleet cell.
std::size_t cells_per_run(const std::string& workload) {
  return workload == "fleet-faulty" ? 32 : 8;
}

std::vector<Scenario> make_cells(const Args& args, std::size_t count) {
  std::vector<Scenario> cells(count, make_workload(args.workload, args.seed, args.tiny));
  hcrl::common::SplitMix64 stream(args.seed);
  for (std::size_t i = 1; i < count; ++i) cells[i].seed = stream.next() | 1;  // nonzero
  return cells;
}

double median_of(const std::vector<Outcome>& outcomes,
                 const std::function<double(const Outcome&)>& f) {
  std::vector<double> v;
  for (const Outcome& o : outcomes) v.push_back(f(o));
  return median(v);
}

int run(const Args& args) {
  // The traced mode re-drives one cell, so it times only that cell.
  const std::vector<Scenario> cells =
      make_cells(args, args.trace ? 1 : cells_per_run(args.workload));
  for (const Scenario& c : cells) c.validate();
  const ExperimentConfig cfg = cells.front().materialized();
  const std::size_t submitted = cfg.trace.num_jobs;
  const double jobs = static_cast<double>(simulated_jobs(cfg));
  Tally tally;

  std::printf("perfbench workload=%s seed=%llu scale=%s trace=%d precision=%s engine=%s "
              "gemm_threads=%zu nproc=%ld git=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", args.trace ? 1 : 0,
              hcrl::nn::to_string(cfg.precision).c_str(),
              cfg.shards == 0 ? "serial" : ("sharded-" + std::to_string(cfg.shards)).c_str(),
              cfg.gemm_threads, sysconf(_SC_NPROCESSORS_ONLN),
              hcrl::telemetry::build_git_describe().c_str());
  std::printf("cell: %zu servers, %zu measured jobs, %zu simulated jobs; %zu cells\n",
              cfg.num_servers, submitted, static_cast<std::size_t>(jobs), cells.size());

  // Set-ups (cycling over the cells) and whole cells through run_scenario
  // with telemetry off, interleaved so that neither lands wholly inside one
  // burst of host contention: before each cell, set-ups run until they have
  // taken a tenth of the elapsed time. Every cell runs once, then cells
  // repeat in order while the budget lasts; a repeat must reproduce its
  // cell's first outcome bit for bit. The traced mode keeps half its budget
  // for the traced run.
  const double budget = (args.trace ? 0.5 : 0.9) * args.seconds;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<Outcome> first;  // first outcome of each cell
  double setup_total_s = 0.0;
  const auto run0 = Clock::now();
  for (std::size_t rep = 0;
       rep < std::max<std::size_t>(cells.size(), 3) || seconds_since(run0) < budget; ++rep) {
    do {
      setup_s.push_back(time_setup(cells[setup_s.size() % cells.size()]));
      setup_total_s += setup_s.back();
    } while (setup_total_s < 0.1 * seconds_since(run0) && setup_s.size() < 4000);

    const std::size_t c = rep % cells.size();
    const std::string label = "cell " + std::to_string(c) + ": ";
    std::vector<std::string> violations;
    try {
      const auto t0 = Clock::now();
      const Outcome o = outcome_of(hcrl::core::run_scenario(cells[c]));
      wall_s.push_back(seconds_since(t0));
      if (rep < cells.size()) {
        first.push_back(o);
        for (const std::string& e : check_outcome(o, submitted)) violations.push_back(label + e);
      } else {
        for (const std::string& d : diff_outcomes(first[c], o)) {
          violations.push_back(label + "repeat differs from its first run in " + d);
        }
      }
    } catch (const std::exception& e) {
      tally.record({label + "threw: " + e.what()});
      break;
    }
    tally.record(violations);
  }
  const double rss_mb = peak_rss_mb();

  std::vector<Metric> metrics;
  std::string detail = "{\"workload\": " + json_string(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"wall_s\": " + samples_json(wall_s) +
                       ", \"setup_s\": " + samples_json(setup_s);

  if (!args.trace) {
    const bool ok = tally.failed == 0 && first.size() == cells.size();
    const auto sim = [&](const std::function<double(const Outcome&)>& f) {
      return ok ? median_of(first, f) : 0.0;
    };
    // The fastest cell, not the median: on a shared host contention only
    // adds time, and it comes in bursts of 5-20 s that shift a run's median
    // by 10-20% from run to run; the fastest cell shifts about half as much.
    const double cell_s = wall_s.empty() ? 0.0 : *std::min_element(wall_s.begin(), wall_s.end());
    metrics = {
        {"wall_s", cell_s, "s"},
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", cell_s > 0.0 ? jobs / cell_s : 0.0, "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"energy_kwh", sim([](const Outcome& o) { return o.energy_joules / 3.6e6; }), "kWh"},
        {"latency_mean_s", sim([](const Outcome& o) {
           return o.jobs_completed > 0
                      ? o.accumulated_latency_s / static_cast<double>(o.jobs_completed)
                      : 0.0;
         }), "s"},
        {"latency_p99_s", sim([](const Outcome& o) { return o.latency_p99_s; }), "s"},
        {"completed_frac", sim([&](const Outcome& o) {
           return static_cast<double>(o.jobs_completed) / static_cast<double>(submitted);
         }), "fraction"},
    };
    // Paper reference, ungated and untimed: energy saving of cell 0 against
    // round-robin on the same trace.
    if (args.workload != "fleet-faulty" && ok) {
      Scenario rr = paper_cell("table1/m30/round-robin", args.tiny);
      rr.config.precision = cells[0].config.precision;
      rr.config.gemm_threads = cells[0].config.gemm_threads;
      rr.seed = cells[0].seed;
      const double rr_joules = hcrl::core::run_scenario(rr).final_snapshot.energy_joules;
      const double saving = 100.0 * (1.0 - first[0].energy_joules / rr_joules);
      std::printf("paper reference (not like for like: %zu synthetic jobs here, 95,000 real "
                  "Google jobs in the paper): energy saving vs round-robin %.1f%%; paper "
                  "Table I, M=30: drl-only %.1f%%, hierarchical %.1f%%\n",
                  submitted, saving, kPaperSavingDrlOnlyPct, kPaperSavingHierPct);
      detail += ", \"energy_saving_vs_round_robin_pct\": " + json_number(saving);
    }
  } else {
    TracedRun t;
    std::vector<std::string> violations;
    try {
      t = traced_run(cells[0]);
      for (const std::string& e : check_outcome(t.outcome, submitted)) {
        violations.push_back("traced: " + e);
      }
      if (!first.empty()) {
        const auto diffs = diff_outcomes(first[0], t.outcome);
        for (const std::string& d : diffs) {
          violations.push_back("traced run differs from untraced in " + d);
        }
        std::printf("traced vs untraced: %s\n", diffs.empty() ? "bit-identical" : "DIFFERENT");
      }
    } catch (const std::exception& e) {
      violations.push_back(std::string("traced run threw: ") + e.what());
    }
    tally.record(violations);
    const double untraced = median(wall_s);
    metrics = {
        {"traced.wall_s", t.wall_s, "s"},
        {"workload.produce_s", t.produce_s, "s"},
        {"policy.build_s", t.build_s, "s"},
        {"sim.fault_plan_s", t.fault_plan_s, "s"},
        {"runner.pretrain_s", t.pretrain_s, "s"},
        {"runner.measured_s", t.measured_s, "s"},
        {"global.decide_calls", t.decide.calls(), "count"},
        {"global.decide_s", t.decide.total_s, "s"},
        {"global.decide_p50_us", percentile_us(t.decide.samples_s, 0.50), "us"},
        {"global.decide_p99_us", percentile_us(t.decide.samples_s, 0.99), "us"},
        {"global.train_calls", t.train.calls(), "count"},
        {"global.train_s", t.train.total_s, "s"},
        {"global.train_p50_us", percentile_us(t.train.samples_s, 0.50), "us"},
        {"global.train_p99_us", percentile_us(t.train.samples_s, 0.99), "us"},
        {"local.idle_calls", t.idle.calls(), "count"},
        {"local.idle_s", t.idle.total_s, "s"},
        {"local.idle_p99_us", percentile_us(t.idle.samples_s, 0.99), "us"},
        {"local.observe_calls", t.observe.calls(), "count"},
        {"local.observe_s", t.observe.total_s, "s"},
        {"local.lstm_rounds", t.lstm_train.calls(), "count"},
        {"local.lstm_train_s", t.lstm_train.total_s, "s"},
        {"local.lstm_train_p99_us", percentile_us(t.lstm_train.samples_s, 0.99), "us"},
        {"sim.events", static_cast<double>(t.events), "count"},
        {"sim.engine_self_s", t.step_s - t.policy_s, "s"},
        {"sim.engine_ns_per_event",
         t.events > 0 ? 1e9 * (t.step_s - t.policy_s) / static_cast<double>(t.events) : 0.0,
         "ns"},
        {"sim.arrivals", static_cast<double>(t.arrivals), "count"},
        {"sim.crashes", static_cast<double>(t.crashes), "count"},
        {"sim.evictions", static_cast<double>(t.evictions), "count"},
        {"sim.retries", static_cast<double>(t.retries), "count"},
        {"sim.jobs_lost", static_cast<double>(t.lost), "count"},
        {"nn.gemm_calls", static_cast<double>(t.gemm_calls), "count"},
        {"nn.gemm_macs", static_cast<double>(t.gemm_macs), "count"},
        {"trace_overhead_pct", untraced > 0.0 ? 100.0 * (t.wall_s - untraced) / untraced : 0.0,
         "%"},
    };
  }

  for (const std::string& e : tally.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("%-26s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-26s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("wall_s: median %.4f, q1 %.4f, q3 %.4f over %zu cells; setup_s: median %.6f, "
              "q1 %.6f, q3 %.6f over %zu set-ups\n",
              median(wall_s), quantile(wall_s, 0.25), quantile(wall_s, 0.75), wall_s.size(),
              median(setup_s), quantile(setup_s, 0.25), quantile(setup_s, 0.75), setup_s.size());
  std::printf("detail %s}\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  hcrl::common::set_log_level(hcrl::common::LogLevel::kWarn);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
