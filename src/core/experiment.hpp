// Experiment driver: builds the paper's systems and measures them.
//
// Systems (§VII-B):
//   round-robin       — round-robin broker, servers never sleep (baseline);
//   drl-only          — DRL global tier, "ad hoc" immediate sleep locally;
//   hierarchical      — DRL global tier + RL/LSTM local tier (the paper's);
//   drl-fixed-timeout — DRL global tier + fixed 30/60/90 s timeout (Fig. 10
//                       baselines);
//   least-loaded / first-fit-packing — extra non-learning references.
//
// DRL systems get an offline construction phase first (§IV: experience
// accumulation + DNN pre-training): the driver replays a prefix of the
// trace with learning enabled before the measured run, mirroring the
// paper's use of separate cluster traces for pre-training.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/nn/precision.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/fault/fault.hpp"
#include "src/workload/generator.hpp"

namespace hcrl::core {

enum class SystemKind {
  kRoundRobin,
  kDrlOnly,
  kHierarchical,
  kDrlFixedTimeout,
  kLeastLoaded,
  kFirstFitPacking,
};

std::string to_string(SystemKind kind);

struct ExperimentConfig {
  SystemKind system = SystemKind::kHierarchical;
  std::size_t num_servers = 30;
  std::size_t num_groups = 3;  // K for the grouped Q-network
  workload::GeneratorOptions trace;
  sim::ServerConfig server;

  double fixed_timeout_s = 60.0;  // for kDrlFixedTimeout

  /// Registry-backed policy selection (src/policy/registry.hpp). A non-empty
  /// `allocator` / `power` names any registered policy and overrides that
  /// half of the pair implied by `system`; the option blocks carry the
  /// per-policy keys (config file syntax: `allocator = random-k` +
  /// `allocator.k = 4`, `power = fixed-timeout` + `power.timeout_s = 45`).
  /// Empty strings (the default) keep the exact system-enum behaviour, so
  /// every existing config file is unchanged.
  std::string allocator;
  std::string power;
  common::Config allocator_opts;
  common::Config power_opts;

  /// Latency SLA threshold in seconds: completed jobs whose latency exceeds
  /// it count into ExperimentResult::sla_violations. 0 disables the count.
  double sla_latency_s = 0.0;

  DrlAllocatorOptions drl;     // encoder dims are overwritten from the fields above
  LocalPowerManagerOptions local;

  /// Offline construction phase: replay this many jobs from the head of the
  /// trace (with learning on) before the measured run; 0 disables.
  std::size_t pretrain_jobs = 20000;
  /// Keep learning enabled during the measured run (the paper's online
  /// deep Q-learning phase); false freezes the policy after pretraining.
  bool learn_during_run = true;

  /// Record a metrics checkpoint every N completed jobs (0 disables).
  std::size_t checkpoint_every_jobs = 5000;

  /// Scalar type of every NN in the experiment (global-tier Sub-Q +
  /// autoencoder, local-tier LSTM predictors). finalize() propagates it into
  /// the drl/local sub-configs; defaults to the process-wide default
  /// (HCRL_PRECISION environment variable, f64 when unset).
  nn::Precision precision = nn::default_precision();
  /// Intra-GEMM worker count applied (process-globally) when the scenario
  /// runs; 0 leaves the current setting (HCRL_GEMM_THREADS env, default 1)
  /// untouched. Thread count never changes results — the threaded GEMM is
  /// bit-identical to serial — so scenarios with different values may share
  /// one sweep.
  std::size_t gemm_threads = 0;
  /// Event-loop engine for the measured run: 0 keeps the serial sim::Cluster;
  /// >= 1 runs sim::ShardedCluster with that many shards in deterministic
  /// lockstep (shards=1 is bit-identical to the serial engine; any fixed
  /// shard count is bit-reproducible run-to-run). The threaded shard engine
  /// is exercised by bench/ and tests; the driver keeps lockstep so every
  /// policy — including the RL tiers that share learners — is supported.
  std::size_t shards = 0;

  /// Deterministic fault injection for the measured run (config keys
  /// `faults.*`; see src/sim/fault/fault.hpp). Disabled by default
  /// (mtbf_s == 0 && evict_every_s == 0). Pretraining always runs
  /// fault-free: the offline construction phase models a clean cluster and
  /// the faulty measured run is what the robustness scenarios score.
  sim::FaultConfig faults;

  /// Per-scenario watchdog: abort the run (pretraining included) with a
  /// std::runtime_error once it exceeds this many wall-clock seconds, so a
  /// hung cell becomes a per-cell error outcome instead of a hung grid.
  /// 0 disables. Checked cooperatively every 64 events — it never perturbs
  /// simulation results, only bounds how long a cell may take.
  double watchdog_s = 0.0;

  void finalize();  // propagate sizes into drl/local sub-configs
  void validate() const;
};

struct CheckpointRow {
  std::size_t jobs_completed = 0;
  double sim_time_s = 0.0;
  double accumulated_latency_s = 0.0;
  double energy_kwh = 0.0;
  double average_power_w = 0.0;
};

struct ExperimentResult {
  std::string system;
  /// Resolved registry names of the policies that actually ran (equals the
  /// system-enum pair unless ExperimentConfig::allocator/power overrode it).
  std::string allocator;
  std::string power;
  sim::MetricsSnapshot final_snapshot;
  std::vector<CheckpointRow> series;
  workload::TraceStats trace_stats;
  double wall_seconds = 0.0;
  std::size_t servers_on_at_end = 0;
  /// Tail latency over completed jobs (sorted-merge across shards, so the
  /// value is engine-independent); 0 when no job completed.
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  /// Completed jobs with latency > config.sla_latency_s (0 when disabled).
  std::size_t sla_violations = 0;
};

/// Run one full experiment (trace generation + optional pretraining +
/// measured simulation). Thin wrapper over run_scenario() in
/// src/core/runner.hpp; prefer the Scenario/Runner API for sweeps — it
/// names scenarios, validates them up front, shares traces explicitly and
/// scales across cores (ParallelRunner).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Run the same trace through several systems (shares one cached trace).
/// Wrapper over SerialRunner + comparison_scenarios() (src/core/scenario.hpp).
std::vector<ExperimentResult> run_comparison(const ExperimentConfig& base,
                                             const std::vector<SystemKind>& systems);

}  // namespace hcrl::core
