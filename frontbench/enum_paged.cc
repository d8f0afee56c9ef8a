// enum-paged: the library front door, one caller thread. Load the graph
// file and build the engine (kEnumSetups times), page through the answer set
// from seeded random tuples, then run seeded Test/Next probes back to back.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>

#include "checks.h"
#include "runner.h"
#include "fo/parser.h"
#include "graph/io.h"
#include "util/lex.h"

namespace frontbench {

namespace {

// Next spans written out per traced run (the quantiles use every call).
constexpr size_t kMaxNextSpans = 100000;

// Each engine built during set-up serves an equal slice of both measured
// phases, so one run samples kEnumSetups memory layouts, not one; each
// slice is cut into kSlicesPerEngine time windows. A metric is the median
// over all windows, so a short stall of the host moves one window.
constexpr size_t kSlicesPerEngine = 4;
constexpr size_t kWindows = kEnumSetups * kSlicesPerEngine;

// Probe results kept for the correctness gate.
struct ProbeRecord {
  const PlannedOp* op;
  bool test_reply = false;
  std::optional<Tuple> next_reply;
};

// Everything the measured phases collect, across engines.
struct Measured {
  std::vector<std::vector<int64_t>> gaps = std::vector<std::vector<int64_t>>(kWindows);
  std::vector<int64_t> window_answers = std::vector<int64_t>(kWindows, 0);
  std::vector<int64_t> window_ns = std::vector<int64_t>(kWindows, 0);
  std::vector<std::vector<int64_t>> probe_ns = std::vector<std::vector<int64_t>>(kWindows);
  std::vector<double> probe_cpu_ns;  // CPU time per probe, one per engine
  std::vector<int64_t> next_ns;  // traced: span around each paging Next
  std::vector<PageRecord> checked_pages;
  std::vector<ProbeRecord> checked_probes;
  nwd::AnswerCounters counters;  // paging phases only
  int64_t answers = 0;
  int64_t next_calls = 0;
  int64_t pages = 0;
  int64_t probes = 0;
  size_t next_page = 0;   // position in plan.page_from
  size_t next_probe = 0;  // position in plan.probes
};

// The window of `offset_ns` into the engine's slice of `phase_ns`.
size_t WindowOf(size_t engine, int64_t offset_ns, int64_t phase_ns) {
  const int64_t slices = static_cast<int64_t>(kSlicesPerEngine);
  return engine * kSlicesPerEngine +
         static_cast<size_t>(std::clamp<int64_t>(offset_ns * slices / phase_ns, 0, slices - 1));
}

// Pages through the answer set for `phase_ns`: each page from the next
// seeded start, plan.page_limit answers by repeated Next.
void Page(const RunContext& ctx, const nwd::EnumerationEngine& engine,
          size_t engine_index, int64_t phase_ns, int32_t parent, Measured* m) {
  const Plan& plan = ctx.plan;
  const int64_t n = engine.universe();
  const int64_t start = NowNs();
  for (; NowNs() - start < phase_ns; ++m->next_page, ++m->pages) {
    const size_t i = m->next_page;
    const Tuple& from = plan.page_from[i % plan.page_from.size()];
    const bool keep = i % static_cast<size_t>(plan.page_check_every) == 0;
    PageRecord record{from, plan.page_limit, {}};
    Tuple cursor = from;
    const int64_t t0 = NowNs();
    const size_t w = WindowOf(engine_index, t0 - start, phase_ns);
    int64_t prev = t0;
    for (int64_t j = 0; j < plan.page_limit; ++j) {
      const int64_t call = ctx.traced ? NowNs() : 0;
      const std::optional<Tuple> next = engine.Next(cursor);
      const int64_t now = NowNs();
      ++m->next_calls;
      if (ctx.traced) {
        m->next_ns.push_back(now - call);
        if (ctx.spans->size() < kMaxNextSpans) {
          ctx.spans->Add(Span{"engine/next", call, now, parent, 0});
        }
      }
      if (!next.has_value()) break;
      m->gaps[w].push_back(now - prev);
      prev = now;
      ++m->answers;
      ++m->window_answers[w];
      if (keep) record.answers.push_back(*next);
      cursor = *next;
      if (!nwd::LexIncrement(&cursor, n)) break;
    }
    m->window_ns[w] += NowNs() - t0;
    if (keep) m->checked_pages.push_back(std::move(record));
  }
}

// CPU time of the calling thread, which runs the engine.
int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Seeded Test/Next probes, back to back, for `phase_ns`.
void Probe(const RunContext& ctx, const nwd::EnumerationEngine& engine,
           size_t engine_index, int64_t phase_ns, Measured* m) {
  const Plan& plan = ctx.plan;
  const int64_t first_probe = m->probes;
  const int64_t cpu_start = ThreadCpuNs();
  const int64_t start = NowNs();
  for (; NowNs() - start < phase_ns; ++m->next_probe, ++m->probes) {
    const size_t i = m->next_probe;
    const PlannedOp& op = plan.probes[i % plan.probes.size()];
    const bool keep = op.check && i < plan.probes.size();
    const int64_t t0 = NowNs();
    std::vector<int64_t>& window = m->probe_ns[WindowOf(engine_index, t0 - start, phase_ns)];
    if (op.kind == 'T') {
      const bool reply = engine.Test(op.tuple);
      window.push_back(NowNs() - t0);
      if (keep) m->checked_probes.push_back({&op, reply, std::nullopt});
    } else {
      std::optional<Tuple> reply = engine.Next(op.tuple);
      window.push_back(NowNs() - t0);
      if (keep) m->checked_probes.push_back({&op, false, std::move(reply)});
    }
  }
  m->probe_cpu_ns.push_back(static_cast<double>(ThreadCpuNs() - cpu_start) /
                            std::max<int64_t>(1, m->probes - first_probe));
}

void Accumulate(const nwd::AnswerCounters& c, nwd::AnswerCounters* total) {
  total->probes_served += c.probes_served;
  total->descents += c.descents;
  total->ball_cache_hits += c.ball_cache_hits;
  total->ball_cache_misses += c.ball_cache_misses;
  total->compiled_probes += c.compiled_probes;
  total->compiled_insns += c.compiled_insns;
  total->contexts = std::max(total->contexts, c.contexts);
}

}  // namespace

bool RunEnumPaged(const RunContext& ctx) {
  const Plan& plan = ctx.plan;
  Report* report = ctx.report;
  SpanLog* spans = ctx.spans;
  const nwd::fo::ParseResult parsed = nwd::fo::ParseQuery(kQuery);
  if (!parsed.ok) {
    std::fprintf(stderr, "query error: %s\n", parsed.error.c_str());
    return false;
  }
  const std::string graph_path = ctx.dir + "/" + plan.graph_file;
  const int64_t page_slice = plan.page_ns / kEnumSetups;
  const int64_t probe_slice = plan.probe_ns / kEnumSetups;

  // Set up kEnumSetups times: load the file and build the engine (timed),
  // then page and probe on that engine for its slice of the phases. Only
  // one engine is alive at a time.
  std::vector<SetupSample> setups;
  std::vector<double> setup_s;
  Measured m;
  std::unique_ptr<nwd::ColoredGraph> graph;
  for (size_t k = 0; k < kEnumSetups; ++k) {
    std::unique_ptr<nwd::EnumerationEngine> engine;
    graph.reset();
    const int32_t setup_span = spans->Open("setup");
    const int64_t t0 = NowNs();
    const int32_t load_span = spans->Open("graph/load", setup_span);
    nwd::GraphParseResult loaded = nwd::ReadGraphFromFile(graph_path);
    spans->Close(load_span);
    if (!loaded.ok) {
      std::fprintf(stderr, "graph load failed: %s\n", loaded.error.c_str());
      return false;
    }
    const int64_t t1 = NowNs();
    graph = std::make_unique<nwd::ColoredGraph>(std::move(loaded.graph));
    const int32_t ctor_span = spans->Open("engine/ctor", setup_span);
    engine = std::make_unique<nwd::EnumerationEngine>(*graph, parsed.query);
    spans->Close(ctor_span);
    const int64_t t2 = NowNs();
    spans->Close(setup_span);
    setups.push_back(SetupSample{(t1 - t0) / 1e6, (t2 - t1) / 1e6, engine->stats()});
    setup_s.push_back((t2 - t0) / 1e9);
    if (engine->used_fallback() || !engine->stats().compiled) {
      report->Mismatch("engine is not in compiled LNF mode: " +
                       engine->stats().fallback_reason +
                       engine->stats().not_compiled_reason);
    }

    engine->DrainAnswerStats();  // counters cover the paging phase only
    const int32_t paging_span = spans->Open("phase/paging");
    Page(ctx, *engine, k, page_slice, paging_span, &m);
    spans->Close(paging_span);
    Accumulate(engine->DrainAnswerStats(), &m.counters);
    const int32_t probe_span = spans->Open("phase/probes");
    Probe(ctx, *engine, k, probe_slice, &m);
    spans->Close(probe_span);
  }
  report->Set("setup_s", Median(setup_s), "s", kEnumSetups);
  ReportPrepareLayers(setups, report);
  ReportAnswerCounters(m.counters, m.next_calls, report);
  std::vector<double> rates;
  for (size_t w = 0; w < kWindows; ++w) {
    if (m.window_ns[w] > 0) rates.push_back(m.window_answers[w] / (m.window_ns[w] / 1e9));
  }
  report->Set("page_answers_per_s", Median(rates), "1/s", m.answers);
  std::string window_rates;
  for (const double r : rates) window_rates += (window_rates.empty() ? "" : ",") + std::to_string(static_cast<int64_t>(r));
  report->detail["page_window_rates"] = "[" + window_rates + "]";
  ReportWindowedQuantiles("delay", "ns", 1.0, &m.gaps, report);
  ReportWindowedQuantiles("probe", "us", 1e3, &m.probe_ns, report);
  report->Set("probe_cpu_us", Median(m.probe_cpu_ns) / 1e3, "us", m.probes);
  if (ctx.traced) {
    const int64_t calls = static_cast<int64_t>(m.next_ns.size());
    report->Set("next.p50_ns", Percentile(&m.next_ns, 0.50), "ns", calls);
    report->Set("next.p99_ns", Percentile(&m.next_ns, 0.99), "ns", calls);
  }
  report->attempted += m.pages + m.probes;
  report->Set("peak_rss_mb", ProcStatusKb(0, "VmHWM:") / 1024.0, "MB");

  // --- Correctness gate: naive FO semantics on the same graph. ---------
  const int64_t n = graph->NumVertices();
  NaiveOracle oracle(*graph, parsed.query);
  for (const PageRecord& page : m.checked_pages) {
    CheckPage(&oracle, page, n, report, "enum-paged page");
  }
  for (const ProbeRecord& r : m.checked_probes) {
    if (r.op->kind == 'T') {
      CheckTest(&oracle, r.op->tuple, r.test_reply, report, "enum-paged");
    } else {
      CheckNext(&oracle, r.op->tuple, r.next_reply, report, "enum-paged");
    }
  }
  if (m.checked_pages.empty() || m.checked_probes.empty()) {
    report->Mismatch("enum-paged: no page or probe was sampled for checking");
  } else {
    SelfTest(&oracle, m.checked_probes.front().op->tuple, m.checked_pages.front(),
             n, report);
  }
  report->detail["checked"] = "{\"pages\":" + std::to_string(m.checked_pages.size()) +
                              ",\"probes\":" + std::to_string(m.checked_probes.size()) + "}";
  report->detail["pages"] = std::to_string(m.pages);
  return true;
}

}  // namespace frontbench
