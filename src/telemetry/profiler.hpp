// Scoped-timer phase profiler. A Span times a region with RAII and, on
// destruction, (a) observes the duration into a registry histogram
// `<name>.seconds` and (b) appends a timeline event to the installed
// TraceCollector, if any. Everything no-ops when telemetry is disabled —
// the constructor is a relaxed load + branch.
//
//   static const telemetry::SpanDef kDrainSpan("sim.shard_drain");
//   { telemetry::Span span(kDrainSpan); drain(); }
//
// SpanDef registers its histogram once (function-local static at the
// instrumentation site); Span itself is cheap enough for per-phase use but
// is NOT meant for per-event inner loops — use counters there.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "src/telemetry/registry.hpp"

namespace hcrl::telemetry {

/// Log-spaced duration histogram boundaries in seconds, 1 µs .. 100 s
/// (three per decade). Shared by every SpanDef so phase histograms merge
/// and compare uniformly.
const std::vector<double>& duration_bounds();

/// One named phase; registers `<name>.seconds` in the global registry.
struct SpanDef {
  explicit SpanDef(const char* span_name)
      : name(span_name), hist(global_registry().histogram(std::string(span_name) + ".seconds",
                                                          duration_bounds())) {}
  const char* name;
  MetricId hist;
};

class Span {
 public:
  explicit Span(const SpanDef& def) noexcept : Span(def, std::string()) {}
  Span(const SpanDef& def, std::string trace_label) noexcept
      : def_(&def), label_(std::move(trace_label)), active_(enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const SpanDef* def_;
  std::string label_;
  std::chrono::steady_clock::time_point start_{};
  bool active_;
};

}  // namespace hcrl::telemetry
