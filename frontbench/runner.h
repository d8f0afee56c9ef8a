// The runner's workloads and the per-layer helpers they share.

#ifndef FRONTBENCH_RUNNER_H_
#define FRONTBENCH_RUNNER_H_

#include <string>
#include <vector>

#include "common.h"
#include "enumerate/engine.h"
#include "enumerate/probe_context.h"

namespace frontbench {

struct RunContext {
  Plan plan;
  std::string dir;        // holds the plan, the graph and the outputs
  std::string nwdd_path;  // the daemon binary (serve-* workloads)
  bool traced = false;
  SpanLog* spans = nullptr;
  Report* report = nullptr;
};

// Each fills ctx.report and returns false only when the run could not be
// carried out at all (bad plan, missing binary); failed operations and
// mismatches are recorded in the report instead.
bool RunEnumPaged(const RunContext& ctx);
bool RunServe(const RunContext& ctx);

// Setting up is repeated this many times per run; setup_s is the median.
inline constexpr int kEnumSetups = 5;   // ~5 s each
inline constexpr int kServeSetups = 12;  // ~0.2 s each

// One timed set-up: graph file load plus engine build, with the engine's
// own stage timings.
struct SetupSample {
  double load_ms = 0.0;
  double ctor_ms = 0.0;
  nwd::EnumerationEngine::Stats stats;
};

// The prepare-stage per-layer metrics (graph, cover, splitter, skip,
// extendable, compile), as medians over the set-ups.
void ReportPrepareLayers(const std::vector<SetupSample>& setups, Report* report);

// Answer-path per-layer metrics from drained probe-context counters.
// `next_calls` is the number of Next calls the counters cover.
void ReportAnswerCounters(const nwd::AnswerCounters& counters,
                          int64_t next_calls, Report* report);

// Latency percentiles of `ns` as <prefix>_p50_<unit>, _p90_ and _p99_,
// scaled by `divisor` (1 for ns, 1e3 for us, 1e6 for ms).
void ReportQuantiles(const std::string& prefix, const std::string& unit,
                     double divisor, std::vector<int64_t> ns, Report* report);
// The same from time slices of a phase: each percentile is the median of
// the slices' percentiles. Reorders the slices.
void ReportWindowedQuantiles(const std::string& prefix, const std::string& unit,
                             double divisor,
                             std::vector<std::vector<int64_t>>* windows,
                             Report* report);

}  // namespace frontbench

#endif  // FRONTBENCH_RUNNER_H_
