// Frozen end-to-end results of the registry cells, at both precisions.
//
// Each row is the digest of one full experiment — final snapshot, tail
// latency, servers left on and the fault counters — written as exact
// hex-float literals. Any change to the simulation engine, the policies or
// the NN substrate that moves a single bit of a result fails here, so a
// refactor that must preserve behaviour (deleting a duplicate code path,
// merging engines) is checked against these rows unchanged.
//
// On a mismatch the test prints the actual row in the table's own literal
// format. Regenerate a row only for a change that is meant to alter results,
// and say why in the commit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"

namespace hcrl::core {
namespace {

using nn::Precision;

// Large enough that the global tier's replay buffer passes its 512-sample
// training threshold, so DQN gradient steps are frozen too; small enough that
// all 32 runs take a few seconds.
constexpr std::size_t kJobs = 1000;

struct Golden {
  const char* cell;
  Precision precision;
  double now;
  std::size_t jobs_completed;
  double energy_joules;
  double accumulated_latency_s;
  double latency_p99_s;
  std::size_t servers_on_at_end;
  std::size_t crashes;
  std::size_t recoveries;
  std::size_t evictions;
  std::size_t jobs_killed;
  std::size_t bounces;
  std::size_t retries;
  std::size_t jobs_lost;
  double lost_cpu_seconds;
  double downtime_s;
};

bool operator==(const Golden& a, const Golden& b) {
  return std::string(a.cell) == b.cell && a.precision == b.precision && a.now == b.now &&
         a.jobs_completed == b.jobs_completed && a.energy_joules == b.energy_joules &&
         a.accumulated_latency_s == b.accumulated_latency_s &&
         a.latency_p99_s == b.latency_p99_s && a.servers_on_at_end == b.servers_on_at_end &&
         a.crashes == b.crashes && a.recoveries == b.recoveries && a.evictions == b.evictions &&
         a.jobs_killed == b.jobs_killed && a.bounces == b.bounces && a.retries == b.retries &&
         a.jobs_lost == b.jobs_lost && a.lost_cpu_seconds == b.lost_cpu_seconds &&
         a.downtime_s == b.downtime_s;
}

std::string format_row(const Golden& g) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", Precision::%s, %a, %zu, %a, %a, %a, %zu, %zu, %zu, %zu, %zu, %zu, "
                "%zu, %zu, %a, %a},",
                g.cell, g.precision == Precision::kF64 ? "kF64" : "kF32", g.now,
                g.jobs_completed, g.energy_joules, g.accumulated_latency_s, g.latency_p99_s,
                g.servers_on_at_end, g.crashes, g.recoveries, g.evictions, g.jobs_killed,
                g.bounces, g.retries, g.jobs_lost, g.lost_cpu_seconds, g.downtime_s);
  return buf;
}

// clang-format off
const Golden kGoldens[] = {
    {"tiny/round-robin", Precision::kF64, 0x1.adb9d3ae24827p+13, 1000, 0x1.1cc7bf0bdd1abp+23, 0x1.c89d344e76ed6p+19, 0x1.519260fe13dacp+12, 6, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/round-robin", Precision::kF32, 0x1.adb9d3ae24827p+13, 1000, 0x1.1cc7bf0bdd1abp+23, 0x1.c89d344e76ed6p+19, 0x1.519260fe13dacp+12, 6, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/drl-only", Precision::kF64, 0x1.b250e529b2b96p+13, 1000, 0x1.f04534330ab19p+22, 0x1.d51f606197ad6p+19, 0x1.568b930a454fap+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/drl-only", Precision::kF32, 0x1.b250e529b2b96p+13, 1000, 0x1.f04534330ab19p+22, 0x1.d51f606197ad6p+19, 0x1.568b930a454fap+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/hierarchical", Precision::kF64, 0x1.b250e529b2b96p+13, 1000, 0x1.f096c4330ab19p+22, 0x1.d51f606197ad6p+19, 0x1.568b930a454fap+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/hierarchical", Precision::kF32, 0x1.b250e529b2b96p+13, 1000, 0x1.f096c4330ab19p+22, 0x1.d51f606197ad6p+19, 0x1.568b930a454fap+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/drl-fixed-timeout", Precision::kF64, 0x1.ab4c69c98a14cp+13, 1000, 0x1.ec25cd8dce4a4p+22, 0x1.d65b6c3965e58p+19, 0x1.506d1b0d68898p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/drl-fixed-timeout", Precision::kF32, 0x1.ab4c69c98a14cp+13, 1000, 0x1.ec25cd8dce4a4p+22, 0x1.d65b6c3965e58p+19, 0x1.506d1b0d68898p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/least-loaded", Precision::kF64, 0x1.d93370f08bdcdp+13, 1000, 0x1.f64bce5528279p+22, 0x1.e1c25d0f3dc98p+19, 0x1.46f883de577d1p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/least-loaded", Precision::kF32, 0x1.d93370f08bdcdp+13, 1000, 0x1.f64bce5528279p+22, 0x1.e1c25d0f3dc98p+19, 0x1.46f883de577d1p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/first-fit-packing", Precision::kF64, 0x1.9f06211f41108p+13, 1000, 0x1.e3260be4a5f1ep+22, 0x1.b6c9f81593ff8p+19, 0x1.519260fe13dacp+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/first-fit-packing", Precision::kF32, 0x1.9f06211f41108p+13, 1000, 0x1.e3260be4a5f1ep+22, 0x1.b6c9f81593ff8p+19, 0x1.519260fe13dacp+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"tiny/round-robin-faulty", Precision::kF64, 0x1.e01f93b1ada37p+13, 1000, 0x1.35ebb9d1a10a7p+23, 0x1.1eb84c4f5e2f5p+20, 0x1.a1772aefc13fep+12, 6, 1, 1, 3, 57, 0, 57, 0, 0x1.bf3202232f314p+10, 0x1.90e678712510dp+10},
    {"tiny/round-robin-faulty", Precision::kF32, 0x1.e01f93b1ada37p+13, 1000, 0x1.35ebb9d1a10a7p+23, 0x1.1eb84c4f5e2f5p+20, 0x1.a1772aefc13fep+12, 6, 1, 1, 3, 57, 0, 57, 0, 0x1.bf3202232f314p+10, 0x1.90e678712510dp+10},
    {"tiny/drl-only-faulty", Precision::kF64, 0x1.d11a93fae427bp+13, 1000, 0x1.054c5b7511b98p+23, 0x1.0977d6a5e0044p+20, 0x1.a6082347ea39fp+12, 0, 1, 1, 3, 48, 0, 48, 0, 0x1.f1c2e2b513e8p+10, 0x1.90e678712510dp+10},
    {"tiny/drl-only-faulty", Precision::kF32, 0x1.d11a93fae427bp+13, 1000, 0x1.054c5b7511b98p+23, 0x1.0977d6a5e0044p+20, 0x1.a6082347ea39fp+12, 0, 1, 1, 3, 48, 0, 48, 0, 0x1.f1c2e2b513e8p+10, 0x1.90e678712510dp+10},
    {"tiny/hierarchical-faulty", Precision::kF64, 0x1.d2fa93fae427bp+13, 1000, 0x1.06556f7511b97p+23, 0x1.0977d6a5e0044p+20, 0x1.a6082347ea39fp+12, 0, 1, 1, 3, 48, 0, 48, 0, 0x1.f1c2e2b513e8p+10, 0x1.90e678712510dp+10},
    {"tiny/hierarchical-faulty", Precision::kF32, 0x1.d2fa93fae427bp+13, 1000, 0x1.06556f7511b97p+23, 0x1.0977d6a5e0044p+20, 0x1.a6082347ea39fp+12, 0, 1, 1, 3, 48, 0, 48, 0, 0x1.f1c2e2b513e8p+10, 0x1.90e678712510dp+10},
    {"tiny/drl-fixed-timeout-faulty", Precision::kF64, 0x1.d2fa93fae427bp+13, 1000, 0x1.0e1c88ec47d77p+23, 0x1.06653ff8cf83p+20, 0x1.7161e0e270506p+12, 0, 1, 1, 3, 42, 0, 42, 0, 0x1.caf43d87b2194p+10, 0x1.90e678712510dp+10},
    {"tiny/drl-fixed-timeout-faulty", Precision::kF32, 0x1.d2fa93fae427bp+13, 1000, 0x1.0e1c88ec47d77p+23, 0x1.06653ff8cf83p+20, 0x1.7161e0e270506p+12, 0, 1, 1, 3, 42, 0, 42, 0, 0x1.caf43d87b2194p+10, 0x1.90e678712510dp+10},
    {"tiny/least-loaded-faulty", Precision::kF64, 0x1.f89581b9598b4p+13, 1000, 0x1.020cf3cf24aeep+23, 0x1.1713017a397ap+20, 0x1.b4b49fe17d9f1p+12, 0, 1, 1, 3, 33, 0, 33, 0, 0x1.1b0e2893f3777p+11, 0x1.90e678712510dp+10},
    {"tiny/least-loaded-faulty", Precision::kF32, 0x1.f89581b9598b4p+13, 1000, 0x1.020cf3cf24aeep+23, 0x1.1713017a397ap+20, 0x1.b4b49fe17d9f1p+12, 0, 1, 1, 3, 33, 0, 33, 0, 0x1.1b0e2893f3777p+11, 0x1.90e678712510dp+10},
    {"tiny/first-fit-packing-faulty", Precision::kF64, 0x1.dc767e2ebd626p+13, 1000, 0x1.c4e1580d6a94ap+22, 0x1.d430fe0f56da8p+19, 0x1.a0065fab4902ep+12, 0, 1, 1, 3, 47, 0, 47, 0, 0x1.d285e0537aeb6p+10, 0x1.90e678712510dp+10},
    {"tiny/first-fit-packing-faulty", Precision::kF32, 0x1.dc767e2ebd626p+13, 1000, 0x1.c4e1580d6a94ap+22, 0x1.d430fe0f56da8p+19, 0x1.a0065fab4902ep+12, 0, 1, 1, 3, 47, 0, 47, 0, 0x1.d285e0537aeb6p+10, 0x1.90e678712510dp+10},
    {"table1/m30/round-robin", Precision::kF64, 0x1.83013de423bf2p+13, 1000, 0x1.0950ecbeff01dp+25, 0x1.7f996bc12402ep+19, 0x1.435193addbaf8p+12, 30, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"table1/m30/round-robin", Precision::kF32, 0x1.83013de423bf2p+13, 1000, 0x1.0950ecbeff01dp+25, 0x1.7f996bc12402ep+19, 0x1.435193addbaf8p+12, 30, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"table1/m30/drl-only", Precision::kF64, 0x1.83f13de423bf2p+13, 1000, 0x1.1c91b5829d921p+24, 0x1.8cc2165546f56p+19, 0x1.46ad1b43ae8d6p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"table1/m30/drl-only", Precision::kF32, 0x1.83f13de423bf2p+13, 1000, 0x1.1c91b5829d921p+24, 0x1.8cc2165546f56p+19, 0x1.46ad1b43ae8d6p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"table1/m30/hierarchical", Precision::kF64, 0x1.87b13de423bf2p+13, 1000, 0x1.2600384031f05p+24, 0x1.94261a92e261ap+19, 0x1.435193addbaf8p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"table1/m30/hierarchical", Precision::kF32, 0x1.87b13de423bf2p+13, 1000, 0x1.2600384031f05p+24, 0x1.94261a92e261ap+19, 0x1.435193addbaf8p+12, 0, 0, 0, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0},
    {"table1/m30/hierarchical-faulty", Precision::kF64, 0x1.e414f2a6a2a4ep+13, 1000, 0x1.46b18067400b2p+24, 0x1.bfcde43d69592p+19, 0x1.9ab63115f87f7p+12, 0, 17, 17, 6, 82, 0, 82, 0, 0x1.5c1fc15e8e779p+11, 0x1.4b22ac6778ab4p+13},
    {"table1/m30/hierarchical-faulty", Precision::kF32, 0x1.e414f2a6a2a4ep+13, 1000, 0x1.46b18067400b2p+24, 0x1.bfcde43d69592p+19, 0x1.9ab63115f87f7p+12, 0, 17, 17, 6, 82, 0, 82, 0, 0x1.5c1fc15e8e779p+11, 0x1.4b22ac6778ab4p+13},
};
// clang-format on

std::vector<std::string> golden_cells() {
  std::vector<std::string> cells;
  for (const std::string& name : ScenarioRegistry::builtin().names()) {
    if (name.rfind("tiny/", 0) == 0) cells.push_back(name);
  }
  for (const char* system : {"round-robin", "drl-only", "hierarchical", "hierarchical-faulty"}) {
    cells.push_back(std::string("table1/m30/") + system);
  }
  return cells;
}

Golden run_cell(const std::string& cell, Precision precision) {
  Scenario scenario = ScenarioRegistry::builtin().make(cell, kJobs);
  scenario.config.precision = precision;
  const ExperimentResult r = run_scenario(scenario);
  const sim::MetricsSnapshot& s = r.final_snapshot;
  const sim::FaultCounters& f = s.faults;
  return Golden{cell.c_str(), precision, s.now, s.jobs_completed, s.energy_joules,
                s.accumulated_latency_s, r.latency_p99_s, r.servers_on_at_end, f.crashes,
                f.recoveries, f.evictions, f.jobs_killed, f.bounces, f.retries, f.jobs_lost,
                f.lost_cpu_seconds, f.downtime_s};
}

const Golden* find_golden(const std::string& cell, Precision precision) {
  for (const Golden& g : kGoldens) {
    if (cell == g.cell && g.precision == precision) return &g;
  }
  return nullptr;
}

TEST(Golden, CoversTinyAndTable1M30Cells) {
  // 12 tiny cells (six systems, plain and faulty) + 4 table1/m30 cells.
  EXPECT_EQ(golden_cells().size(), 16u);
}

TEST(Golden, RegistryCellsMatchFrozenResultsBothPrecisions) {
  for (const std::string& cell : golden_cells()) {
    for (const Precision precision : {Precision::kF64, Precision::kF32}) {
      SCOPED_TRACE(cell + " precision=" + nn::to_string(precision));
      const Golden actual = run_cell(cell, precision);
      const Golden* expected = find_golden(cell, precision);
      if (expected == nullptr) {
        ADD_FAILURE() << "no golden row; actual:\n" << format_row(actual);
        continue;
      }
      EXPECT_EQ(actual.now, expected->now);
      EXPECT_EQ(actual.jobs_completed, expected->jobs_completed);
      EXPECT_EQ(actual.energy_joules, expected->energy_joules);
      EXPECT_EQ(actual.accumulated_latency_s, expected->accumulated_latency_s);
      EXPECT_EQ(actual.latency_p99_s, expected->latency_p99_s);
      EXPECT_EQ(actual.servers_on_at_end, expected->servers_on_at_end);
      EXPECT_EQ(actual.crashes, expected->crashes);
      EXPECT_EQ(actual.recoveries, expected->recoveries);
      EXPECT_EQ(actual.evictions, expected->evictions);
      EXPECT_EQ(actual.jobs_killed, expected->jobs_killed);
      EXPECT_EQ(actual.bounces, expected->bounces);
      EXPECT_EQ(actual.retries, expected->retries);
      EXPECT_EQ(actual.jobs_lost, expected->jobs_lost);
      EXPECT_EQ(actual.lost_cpu_seconds, expected->lost_cpu_seconds);
      EXPECT_EQ(actual.downtime_s, expected->downtime_s);
      if (!(actual == *expected)) ADD_FAILURE() << "actual row:\n" << format_row(actual);
    }
  }
}

}  // namespace
}  // namespace hcrl::core
