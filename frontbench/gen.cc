// The generator: from a workload name and a seed, writes the input graph
// (one fixed instance per workload) and the plan of every request a run
// sends (drawn from the seed). It runs as its own process
// before the runner, so the program under test only ever sees the graph
// file, the query text and the requests.

#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"
#include "gen/generators.h"
#include "graph/io.h"
#include "util/rng.h"

namespace frontbench {
namespace {

constexpr int64_t kSecond = 1'000'000'000;

// Graph shapes (see RATIONALE.md): bounded degree 6 / average 3 at
// n = 2^15, and the 128 x 128 road-network grid; two colors at 0.2.
constexpr int64_t kBdegN = int64_t{1} << 15;
constexpr int64_t kGridSide = 128;
const nwd::gen::ColorOptions kColors{2, 0.2};
constexpr uint64_t kGraphSeed = 20180611;

// Probe mix of every open-loop phase: 80% test, 20% next.
constexpr double kTestShare = 0.8;

// Answers per `enumerate` page on the wire. Today every page pays one
// 40 ms delayed-ACK stall (RATIONALE.md, "The wire today"), and on the
// 4-core development host a page took 44 ms at 256 and at 1024 answers,
// 60 ms at 4096 and 120 ms at 16384: 40 ms plus ~4.9 us per answer. At
// 16384 the daemon's own work is two thirds of a page, so a page path
// 1.4x slower moves page_answers_per_s past its bound.
constexpr int64_t kServePageLimit = 16384;

Tuple RandomTuple(nwd::Rng* rng, int64_t n) {
  return {static_cast<Vertex>(rng->NextBounded(static_cast<uint64_t>(n))),
          static_cast<Vertex>(rng->NextBounded(static_cast<uint64_t>(n)))};
}

PlannedOp RandomProbe(nwd::Rng* rng, int64_t n, int conn, int64_t t_ns,
                      int check_one_in) {
  PlannedOp op;
  op.conn = conn;
  op.t_ns = t_ns;
  op.kind = rng->NextBool(kTestShare) ? 'T' : 'N';
  op.tuple = RandomTuple(rng, n);
  op.check = rng->NextBounded(static_cast<uint64_t>(check_one_in)) == 0;
  return op;
}

// Seeded Poisson arrivals at `rate` ops/s per lane over `duration_ns`, on
// each of `conns` lanes.
std::vector<PlannedOp> PoissonProbes(nwd::Rng* rng, int64_t n, double rate,
                                     int conns, int64_t duration_ns,
                                     int check_one_in) {
  std::vector<PlannedOp> ops;
  const double per_lane = rate / conns;
  for (int conn = 0; conn < conns; ++conn) {
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng->NextDouble()) / per_lane * 1e9;
      if (t >= static_cast<double>(duration_ns)) break;
      ops.push_back(RandomProbe(rng, n, conn, static_cast<int64_t>(t),
                                check_one_in));
    }
  }
  return ops;
}

// Page starts; serve-* also gets a kPagesPhase at this point of its run.
void AddPages(nwd::Rng* rng, int64_t n, int64_t limit, int64_t phase_ns,
              int64_t check_every, Plan* plan) {
  plan->page_limit = limit;
  plan->page_ns = phase_ns;
  plan->page_check_every = check_every;
  if (plan->workload != "enum-paged") {
    Rung pages;
    pages.kind = kPagesPhase;
    pages.duration_ns = phase_ns;
    plan->rungs.push_back(std::move(pages));
  }
  for (int i = 0; i < 4096; ++i) {
    // Keep x below n - 1 so no page can run off the end of the order.
    Tuple from = RandomTuple(rng, n);
    from[0] = std::min<Vertex>(from[0], static_cast<Vertex>(n - 2));
    plan->page_from.push_back(from);
  }
}

void AddRung(nwd::Rng* rng, int64_t n, char kind, double rate, int conns,
             int64_t duration_ns, int windows, int check_one_in, Plan* plan) {
  Rung rung;
  rung.kind = kind;
  rung.rate = rate;
  rung.duration_ns = duration_ns;
  rung.windows = windows;
  rung.ops = PoissonProbes(rng, n, rate, conns, duration_ns, check_one_in);
  plan->rungs.push_back(std::move(rung));
}

// The rate ladder, ascending; the runner stops it at the first failing rung.
void AddLadder(nwd::Rng* rng, int64_t n, const std::vector<double>& rates,
               int conns, int64_t rung_ns, Plan* plan) {
  for (const double rate : rates) {
    AddRung(rng, n, kLadderRung, rate, conns, rung_ns, 1, 32, plan);
  }
}

// serve-churn's writes: Poisson at `rate` per second; each arrival deletes
// a random local grid edge and sets or clears color 0 on a random vertex,
// and the next arrival puts the edge back, so the graph stays a grid.
void AddChurn(nwd::Rng* rng, int64_t rate, int64_t duration_ns, Plan* plan) {
  double t = 0.0;
  bool pending_revert = false;
  std::string revert;
  while (true) {
    t += -std::log(1.0 - rng->NextDouble()) / static_cast<double>(rate) * 1e9;
    if (t >= static_cast<double>(duration_ns) && !pending_revert) break;
    PlannedOp op;
    op.kind = 'U';
    op.conn = 1;
    op.t_ns = static_cast<int64_t>(t);
    if (pending_revert) {
      op.spec = revert;
    } else {
      const int64_t r = rng->NextInt(0, kGridSide - 2);
      const int64_t c = rng->NextInt(0, kGridSide - 2);
      const int64_t u = r * kGridSide + c;
      const int64_t v = rng->NextBool(0.5) ? u + 1 : u + kGridSide;
      const int64_t w = rng->NextInt(0, kGridSide * kGridSide - 1);
      const int bit = rng->NextBool(0.5) ? 1 : 0;
      op.spec = "del:" + std::to_string(u) + "," + std::to_string(v) +
                ";color:" + std::to_string(w) + ",0," + std::to_string(bit);
      revert = "add:" + std::to_string(u) + "," + std::to_string(v);
    }
    pending_revert = !pending_revert;
    plan->updates.push_back(std::move(op));
  }
}

bool IsWorkload(const std::string& name) {
  return name == "enum-paged" || name == "serve-probe" ||
         name == "serve-churn";
}

}  // namespace

int RunGenerator(const std::string& workload, uint64_t seed, int seconds,
                 const std::string& dir) {
  if (!IsWorkload(workload)) {
    std::fprintf(stderr, "gen: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  // The graph is one fixed instance per workload, so runs differ only in
  // their requests; the seed drives every request, page start and sample.
  nwd::Rng graph_rng(kGraphSeed);
  nwd::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const int64_t total_ns = static_cast<int64_t>(seconds) * kSecond;
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  plan.seconds = seconds;
  plan.graph_file = "graph.txt";

  nwd::ColoredGraph graph =
      workload == "enum-paged"
          ? nwd::gen::BoundedDegreeGraph(kBdegN, 6, 3.0, kColors, &graph_rng)
          : nwd::gen::Grid(kGridSide, kGridSide, kColors, &graph_rng);
  const int64_t n = graph.NumVertices();

  if (workload == "enum-paged") {
    // 70% of the measured time pages, 30% probes. A page of 500 answers
    // stays within one x, so a run samples a few thousand x's.
    AddPages(&rng, n, 500, total_ns * 7 / 10, /*check_every=*/256, &plan);
    plan.probe_ns = total_ns * 3 / 10;
    for (int i = 0; i < 65536; ++i) {
      plan.probes.push_back(RandomProbe(&rng, n, 0, 0, /*check_one_in=*/64));
    }
  } else if (workload == "serve-probe") {
    // 30% reference phase (16k probes/s), the ladder (4% a rung), 30% pages.
    // Reference windows of ~0.25 s at T = 15: host CPU steal comes in
    // bursts of about that length, and windows are chosen by their steal.
    plan.conns = 1;
    AddRung(&rng, n, kReferenceRung, 16000, 1, total_ns * 3 / 10, 18, 32, &plan);
    AddLadder(&rng, n,
              {2000, 4000, 8000, 16000, 24000, 32000, 48000, 64000, 96000,
               128000},
              1, total_ns / 25, &plan);
    AddPages(&rng, n, kServePageLimit, total_ns * 3 / 10, /*check_every=*/8,
             &plan);
  } else {  // serve-churn
    // 25% reference probes and 20% pages on the fresh engine, then 50%
    // light probes (4k/s) beside 10 updates/s. Reads during and after
    // the churn are too erratic today to gate (see RATIONALE.md).
    plan.conns = 2;
    AddRung(&rng, n, kReferenceRung, 16000, 1, total_ns / 4, 16, 32, &plan);
    AddPages(&rng, n, kServePageLimit, total_ns / 5, /*check_every=*/8, &plan);
    AddRung(&rng, n, kChurnRung, 4000, 1, total_ns / 2, 5, 8, &plan);
    AddChurn(&rng, /*rate=*/10, total_ns / 2, &plan);
  }

  if (!nwd::WriteGraphToFile(graph, dir + "/" + plan.graph_file)) {
    std::fprintf(stderr, "gen: cannot write %s/%s\n", dir.c_str(),
                 plan.graph_file.c_str());
    return 1;
  }
  if (!WritePlan(plan, dir + "/plan.txt")) {
    std::fprintf(stderr, "gen: cannot write %s/plan.txt\n", dir.c_str());
    return 1;
  }
  return 0;
}

}  // namespace frontbench
