// The sharded event-loop engine (src/sim/sharded_cluster.hpp):
//  - shards=1 lockstep is bit-identical to the serial Cluster through the
//    full driver (snapshot + checkpoint series), at f64 and f32;
//  - any fixed shard count is bit-reproducible run-to-run;
//  - the threaded engine (pre-routed and window-barrier modes) matches
//    single-threaded lockstep exactly;
//  - mode/safety guard rails throw instead of silently degrading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"
#include "src/sim/cluster.hpp"
#include "src/sim/sharded_cluster.hpp"
#include "src/workload/generator.hpp"

namespace hcrl {
namespace {

using core::ExperimentResult;
using core::Scenario;
using core::SystemKind;

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);
  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_arrived, b.final_snapshot.jobs_arrived);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.average_power_watts, b.final_snapshot.average_power_watts);
  EXPECT_EQ(a.final_snapshot.jobs_in_system, b.final_snapshot.jobs_in_system);
  EXPECT_EQ(a.final_snapshot.reliability_penalty, b.final_snapshot.reliability_penalty);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].jobs_completed, b.series[i].jobs_completed);
    EXPECT_EQ(a.series[i].sim_time_s, b.series[i].sim_time_s);
    EXPECT_EQ(a.series[i].accumulated_latency_s, b.series[i].accumulated_latency_s);
    EXPECT_EQ(a.series[i].energy_kwh, b.series[i].energy_kwh);
    EXPECT_EQ(a.series[i].average_power_w, b.series[i].average_power_w);
  }
}

Scenario tiny(SystemKind kind, std::size_t shards, nn::Precision precision) {
  Scenario s = core::ScenarioRegistry::builtin().make("tiny/" + core::to_string(kind), 400);
  s.config.shards = shards;
  s.config.precision = precision;
  s.config.finalize();
  return s;
}

void expect_shards1_matches_serial(SystemKind kind, nn::Precision precision) {
  const ExperimentResult serial = core::run_scenario(tiny(kind, 0, precision));
  const ExperimentResult sharded = core::run_scenario(tiny(kind, 1, precision));
  expect_identical(serial, sharded);
  EXPECT_FALSE(serial.series.empty());  // the comparison must cover a real series
}

// ---- shards=1 == serial, through the full driver ---------------------------

TEST(ShardedCluster, OneShardMatchesSerialRoundRobinF64) {
  expect_shards1_matches_serial(SystemKind::kRoundRobin, nn::Precision::kF64);
}

TEST(ShardedCluster, OneShardMatchesSerialLeastLoadedF64) {
  expect_shards1_matches_serial(SystemKind::kLeastLoaded, nn::Precision::kF64);
}

// The hierarchical system exercises both learning tiers: the lockstep engine
// must reproduce the serial event order exactly with the RL local tier and
// the DRL global tier deciding on every epoch.
TEST(ShardedCluster, OneShardMatchesSerialHierarchicalF64) {
  expect_shards1_matches_serial(SystemKind::kHierarchical, nn::Precision::kF64);
}

TEST(ShardedCluster, OneShardMatchesSerialHierarchicalF32) {
  expect_shards1_matches_serial(SystemKind::kHierarchical, nn::Precision::kF32);
}

TEST(ShardedCluster, OneShardMatchesSerialRoundRobinF32) {
  expect_shards1_matches_serial(SystemKind::kRoundRobin, nn::Precision::kF32);
}

// ---- fixed shard count: bit-reproducible run-to-run ------------------------

TEST(ShardedCluster, FixedShardCountIsReproducible) {
  for (const std::size_t shards : {2u, 4u}) {
    for (const SystemKind kind : {SystemKind::kRoundRobin, SystemKind::kHierarchical}) {
      const ExperimentResult first = core::run_scenario(tiny(kind, shards, nn::Precision::kF64));
      const ExperimentResult second = core::run_scenario(tiny(kind, shards, nn::Precision::kF64));
      expect_identical(first, second);
      EXPECT_EQ(first.final_snapshot.jobs_completed, 400u);
    }
  }
}

// ---- threaded engine == lockstep -------------------------------------------

std::vector<sim::Job> tiny_trace(std::size_t jobs) {
  workload::GeneratorOptions o;
  o.num_jobs = jobs;
  o.horizon_s = static_cast<double>(jobs) * 2.1;
  o.seed = 33;
  return workload::GoogleTraceGenerator(o).generate();
}

sim::ShardedClusterConfig sharded_config(std::size_t servers, std::size_t shards,
                                         sim::ShardedClusterConfig::Execution mode) {
  sim::ShardedClusterConfig cfg;
  cfg.cluster.num_servers = servers;
  cfg.cluster.server.t_on = 30.0;
  cfg.cluster.server.t_off = 10.0;
  cfg.num_shards = shards;
  cfg.execution = mode;
  return cfg;
}

void expect_snapshots_equal(const sim::MetricsSnapshot& a, const sim::MetricsSnapshot& b) {
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.accumulated_latency_s, b.accumulated_latency_s);
  EXPECT_EQ(a.jobs_in_system, b.jobs_in_system);
  EXPECT_EQ(a.reliability_penalty, b.reliability_penalty);
}

// Trace-only allocator + stateless power policy: the parallel engine
// pre-routes every arrival and runs the shards with zero barriers. Must be
// bitwise equal to lockstep — and, transitively, to the serial engine.
TEST(ShardedCluster, ParallelPreRoutedMatchesLockstep) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    sim::RoundRobinAllocator alloc_a;
    sim::FixedTimeoutPolicy power_a(30.0);
    sim::ShardedCluster lockstep(
        sharded_config(8, shards, sim::ShardedClusterConfig::Execution::kLockstep), alloc_a,
        power_a);
    lockstep.load_jobs(tiny_trace(600));
    lockstep.run();

    sim::RoundRobinAllocator alloc_b;
    sim::FixedTimeoutPolicy power_b(30.0);
    sim::ShardedCluster parallel(
        sharded_config(8, shards, sim::ShardedClusterConfig::Execution::kParallel), alloc_b,
        power_b);
    parallel.load_jobs(tiny_trace(600));
    parallel.run();

    expect_snapshots_equal(lockstep.snapshot(), parallel.snapshot());
    EXPECT_EQ(lockstep.servers_on(), parallel.servers_on());
    EXPECT_EQ(lockstep.mean_cpu_utilization(), parallel.mean_cpu_utilization());
  }
}

// Global-state allocator forces window barriers: every shard quiesces below
// the next arrival before the router reads cluster-wide state.
TEST(ShardedCluster, ParallelWindowedMatchesLockstep) {
  for (const std::size_t shards : {2u, 3u}) {
    sim::LeastLoadedAllocator alloc_a;
    sim::ImmediateSleepPolicy power_a;
    sim::ShardedCluster lockstep(
        sharded_config(6, shards, sim::ShardedClusterConfig::Execution::kLockstep), alloc_a,
        power_a);
    lockstep.load_jobs(tiny_trace(400));
    lockstep.run();

    sim::LeastLoadedAllocator alloc_b;
    sim::ImmediateSleepPolicy power_b;
    sim::ShardedCluster parallel(
        sharded_config(6, shards, sim::ShardedClusterConfig::Execution::kParallel), alloc_b,
        power_b);
    parallel.load_jobs(tiny_trace(400));
    parallel.run();

    expect_snapshots_equal(lockstep.snapshot(), parallel.snapshot());
    EXPECT_EQ(lockstep.servers_on(), parallel.servers_on());
  }
}

// Lockstep sharded vs serial Cluster at the engine level: shards=1 is
// bitwise identical; higher shard counts process the identical event
// schedule (same counts, same end time, same on/off states) but accumulate
// the float metrics per shard, so the deterministic shard-order sums may
// differ from the serial single-accumulator order by rounding only.
TEST(ShardedCluster, LockstepMatchesSerialForTraceOnlyPolicies) {
  sim::RoundRobinAllocator alloc_serial;
  sim::FixedTimeoutPolicy power_serial(30.0);
  sim::ClusterConfig serial_cfg = sharded_config(8, 1, {}).cluster;
  sim::Cluster serial(serial_cfg, alloc_serial, power_serial);
  serial.load_jobs(tiny_trace(600));
  serial.run();
  const auto a = serial.snapshot();

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    sim::RoundRobinAllocator alloc;
    sim::FixedTimeoutPolicy power(30.0);
    sim::ShardedCluster sharded(
        sharded_config(8, shards, sim::ShardedClusterConfig::Execution::kLockstep), alloc, power);
    sharded.load_jobs(tiny_trace(600));
    sharded.run();
    const auto b = sharded.snapshot();
    if (shards == 1) {
      expect_snapshots_equal(a, b);
    } else {
      EXPECT_EQ(a.now, b.now);
      EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
      EXPECT_EQ(a.jobs_completed, b.jobs_completed);
      const double rel = 1e-12;
      EXPECT_NEAR(a.energy_joules, b.energy_joules, rel * a.energy_joules);
      EXPECT_NEAR(a.accumulated_latency_s, b.accumulated_latency_s,
                  rel * a.accumulated_latency_s);
      EXPECT_NEAR(a.reliability_penalty, b.reliability_penalty,
                  rel * std::max(1.0, a.reliability_penalty));
      EXPECT_EQ(a.jobs_in_system, b.jobs_in_system);
    }
    EXPECT_EQ(serial.servers_on(), sharded.servers_on());
  }
}

// ---- guard rails -----------------------------------------------------------

TEST(ShardedCluster, ParallelModeRejectsUnsafePowerPolicyAndStepping) {
  sim::RoundRobinAllocator alloc;

  class UnsafeProbe final : public sim::PowerPolicy {
   public:
    double on_idle(const sim::Server&, sim::Time) override { return sim::kNeverSleep; }
    std::string name() const override { return "unsafe-probe"; }
    // shard_parallel_safe() stays false (the default).
  } unsafe;
  EXPECT_THROW(sim::ShardedCluster(
                   sharded_config(4, 2, sim::ShardedClusterConfig::Execution::kParallel), alloc,
                   unsafe),
               std::invalid_argument);

  sim::FixedTimeoutPolicy safe(30.0);
  sim::ShardedCluster parallel(
      sharded_config(4, 2, sim::ShardedClusterConfig::Execution::kParallel), alloc, safe);
  EXPECT_THROW(parallel.step(), std::logic_error);
  EXPECT_THROW(parallel.run_until_completed(1), std::logic_error);
}

TEST(ShardedCluster, ConfigValidation) {
  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  EXPECT_THROW(sim::ShardedCluster(sharded_config(4, 0, {}), alloc, power),
               std::invalid_argument);
  EXPECT_THROW(sim::ShardedCluster(sharded_config(4, 5, {}), alloc, power),
               std::invalid_argument);
}

TEST(ShardedCluster, PartitionCoversAllServersContiguously) {
  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  sim::ShardedCluster c(sharded_config(10, 3, {}), alloc, power);
  ASSERT_EQ(c.num_shards(), 3u);
  std::size_t prev = 0;
  for (sim::ServerId i = 0; i < 10; ++i) {
    const std::size_t s = c.shard_of(i);
    EXPECT_GE(s, prev);  // contiguous, non-decreasing blocks
    prev = s;
  }
  EXPECT_EQ(c.shard_of(0), 0u);
  EXPECT_EQ(c.shard_of(9), 2u);
}

// ---- scale smoke -----------------------------------------------------------

// 10k servers through the threaded pre-routed engine. Kept small enough for
// the default suite; the >= 1M-event measurement lives in bench_micro
// (BM_ShardedEventThroughput) with cells tracked in BENCH_micro.json.
TEST(ShardedCluster, TenThousandServerSmoke) {
  const std::size_t jobs = std::getenv("HCRL_SLOW_TESTS") != nullptr ? 200000u : 20000u;
  workload::GeneratorOptions o;
  o.num_jobs = jobs;
  o.horizon_s = static_cast<double>(jobs) * 0.02;  // heavy aggregate arrival rate
  o.seed = 5;
  auto trace = workload::GoogleTraceGenerator(o).generate();

  sim::RoundRobinAllocator alloc;
  sim::FixedTimeoutPolicy power(30.0);
  sim::ShardedCluster cluster(
      sharded_config(10000, 4, sim::ShardedClusterConfig::Execution::kParallel), alloc, power);
  cluster.load_jobs(std::move(trace));
  cluster.run();

  const auto snap = cluster.snapshot();
  EXPECT_EQ(snap.jobs_arrived, jobs);
  EXPECT_EQ(snap.jobs_completed, jobs);
  EXPECT_GT(snap.energy_joules, 0.0);
}

}  // namespace
}  // namespace hcrl
