// Per-layer and percentile reporting shared by the workloads.

#include <utility>

#include "runner.h"

namespace frontbench {

void ReportQuantiles(const std::string& prefix, const std::string& unit,
                     double divisor, std::vector<int64_t> ns, Report* report) {
  const int64_t samples = static_cast<int64_t>(ns.size());
  for (const auto& [name, q] : {std::pair{"_p50_", 0.50}, std::pair{"_p90_", 0.90},
                                std::pair{"_p99_", 0.99}}) {
    report->Set(prefix + name + unit, Percentile(&ns, q) / divisor, unit, samples);
  }
}

void ReportWindowedQuantiles(const std::string& prefix, const std::string& unit,
                             double divisor,
                             std::vector<std::vector<int64_t>>* windows,
                             Report* report) {
  int64_t samples = 0;
  std::vector<double> p50, p90, p99;
  for (std::vector<int64_t>& w : *windows) {
    if (w.empty()) continue;
    samples += static_cast<int64_t>(w.size());
    p50.push_back(Percentile(&w, 0.50) / divisor);
    p90.push_back(Percentile(&w, 0.90) / divisor);
    p99.push_back(Percentile(&w, 0.99) / divisor);
  }
  report->Set(prefix + "_p50_" + unit, Median(p50), unit, samples);
  report->Set(prefix + "_p90_" + unit, Median(p90), unit, samples);
  report->Set(prefix + "_p99_" + unit, Median(p99), unit, samples);
}

void ReportPrepareLayers(const std::vector<SetupSample>& setups,
                         Report* report) {
  auto median = [&](auto field) {
    std::vector<double> values;
    for (const SetupSample& s : setups) values.push_back(field(s));
    return Median(values);
  };
  const int64_t k = static_cast<int64_t>(setups.size());
  report->Set("graph.load_ms", median([](const SetupSample& s) { return s.load_ms; }), "ms", k);
  report->Set("cover.build_ms", median([](const SetupSample& s) { return s.stats.cover_ms; }), "ms", k);
  report->Set("kernels.build_ms", median([](const SetupSample& s) { return s.stats.kernels_ms; }), "ms", k);
  report->Set("skip.build_ms", median([](const SetupSample& s) { return s.stats.skips_ms; }), "ms", k);
  report->Set("extendable.build_ms", median([](const SetupSample& s) { return s.stats.extendable_ms; }), "ms", k);
  report->Set("compile.build_ms", median([](const SetupSample& s) { return s.stats.compile_ms; }), "ms", k);
  // The ctor minus its named stages: LNF compilation, the distance oracle
  // and the candidate-list bookkeeping outside the timed stages.
  report->Set("prepare.other_ms", median([](const SetupSample& s) {
                return s.ctor_ms - s.stats.cover_ms - s.stats.kernels_ms -
                       s.stats.skips_ms - s.stats.extendable_ms -
                       s.stats.compile_ms;
              }), "ms", k);
  const nwd::EnumerationEngine::Stats& last = setups.back().stats;
  report->Set("cover.bags", static_cast<double>(last.cover_bags), "count");
  report->Set("cover.degree", static_cast<double>(last.cover_degree), "count");
  report->Set("skip.entries", static_cast<double>(last.skip_entries), "count");
}

void ReportAnswerCounters(const nwd::AnswerCounters& c, int64_t next_calls,
                          Report* report) {
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  report->Set("compile.insns_per_probe", ratio(c.compiled_insns, c.compiled_probes),
              "insns", c.compiled_probes);
  report->Set("next.descents_per_answer", ratio(c.descents, next_calls),
              "descents", next_calls);
  report->Set("ball_cache.hit_ratio",
              ratio(c.ball_cache_hits, c.ball_cache_hits + c.ball_cache_misses),
              "1", c.ball_cache_hits + c.ball_cache_misses);
  report->Set("probe_context.pool_size", static_cast<double>(c.contexts), "count");
}

}  // namespace frontbench
