// Simulation-layer telemetry ids, shared by Cluster and ShardedCluster so
// both engines report into the same metric names. The structs are magic
// statics: ids resolve once per process, and the hot helpers in
// telemetry/registry.hpp are a relaxed load + branch while telemetry is
// disabled — the engines' determinism contracts are unaffected either way.
#pragma once

#include "src/telemetry/registry.hpp"

namespace hcrl::sim {

struct SimMetrics {
  telemetry::MetricId events;
  telemetry::MetricId arrivals;
  telemetry::MetricId sync_windows;
  // Fault injection (see src/sim/fault/fault.hpp).
  telemetry::MetricId fault_crashes;
  telemetry::MetricId fault_evictions;
  telemetry::MetricId fault_retries;
  telemetry::MetricId fault_lost;

  static const SimMetrics& get() {
    static const SimMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return SimMetrics{
          .events = reg.counter("sim.events"),
          .arrivals = reg.counter("sim.arrivals"),
          .sync_windows = reg.counter("sim.sync_windows"),
          .fault_crashes = reg.counter("sim.faults.crashes"),
          .fault_evictions = reg.counter("sim.faults.evictions"),
          .fault_retries = reg.counter("sim.faults.retries"),
          .fault_lost = reg.counter("sim.faults.jobs_lost"),
      };
    }();
    return m;
  }
};

}  // namespace hcrl::sim
