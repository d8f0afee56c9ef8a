// Shared pieces of the front-door benchmark: clocks, percentiles, the
// metric report, the in-memory span log, /proc readers, and the plan file
// that the generator writes and the runner replays.

#ifndef FRONTBENCH_COMMON_H_
#define FRONTBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/colored_graph.h"
#include "util/lex.h"

namespace frontbench {

using nwd::Tuple;
using nwd::Vertex;

// The one query every workload runs: a near disjunct answered through
// the anchor ball (Case II) and a far disjunct answered through the skip
// pointers (Case I), so every Next runs both kinds of descent.
inline constexpr const char* kQuery =
    "(x, y) := (dist(x, y) <= 2 & C0(y)) | (dist(x, y) > 2 & C1(y))";

int64_t NowNs();  // steady clock

// Nearest-rank percentile (q in [0, 1]) of `values`; reorders them.
// 0 for an empty vector.
double Percentile(std::vector<int64_t>* values, double q);
double Median(std::vector<double> values);

// One reported number: value, unit, and the samples behind it (0 for a
// derived or single-shot quantity).
struct Stat {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

// Everything one runner process reports, keyed by metric name, plus
// free-form detail (per-rung tables, counts) for the report file.
struct Report {
  std::map<std::string, Stat> metrics;
  std::map<std::string, std::string> detail;  // name -> JSON value text
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> mismatches;  // first few, for the log

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0) {
    metrics[name] = Stat{value, unit, samples};
  }
  void Mismatch(const std::string& what);
  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit,
  // samples}},"detail":{..},"mismatches":[..]} on one line.
  std::string ToJson() const;
};

// Spans the benchmark records around its own calls into the program:
// name, start, end, parent span index (-1 = root) and request id. Kept in
// memory, written out once at the end of a traced run.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t rid = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Opens a phase-level span and returns its index (for children).
  int32_t Open(const char* name, int32_t parent = -1);
  void Close(int32_t index);
  // Appends a finished span (children recorded by lane threads are merged
  // through AppendAll).
  void Add(const Span& span);
  void AppendAll(const std::vector<Span>& spans);
  bool WriteCsv(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Reads "<key> <n> kB" from /proc/<pid>/status (pid 0 = self); -1 if absent.
int64_t ProcStatusKb(int pid, const char* key);

// CPU time all threads of process `pid` have run, in nanoseconds, from
// /proc/<pid>/task/*/schedstat. Time the hypervisor stole is not in it.
int64_t ProcessCpuNs(int pid);

// The host's aggregate CPU ticks from /proc/stat: the time the hypervisor
// ran other guests while this one wanted to run (steal), and all time.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();
// Steal between two readings, as a share of all CPU time between them.
double StealShare(const CpuTicks& from, const CpuTicks& to);

// --- The plan: everything a run sends, generated from the seed ---------

// One open-loop request: due at t_ns after its phase starts, on lane
// `conn`. `check` marks the seeded sample of probes whose reply is verified.
struct PlannedOp {
  int conn = 0;
  int64_t t_ns = 0;
  char kind = 'T';  // 'T' test, 'N' next, 'U' update
  Tuple tuple;      // probes
  std::string spec; // updates: the edit list after `update `
  bool check = false;
};

// One phase of a serve-* run: mostly a fixed-rate open-loop phase of probes.
//   kReferenceRung: the phase whose latencies are reported as probe_p50_us
//     and probe_p90_us (the median over `windows` equal time slices of
//     each slice's percentile);
//   kLadderRung: one rung of the rate ladder behind max_rate_rps;
//   kChurnRung: probes beside the plan's updates (serve-churn);
//   kPagesPhase: no probes; back-to-back pages for duration_ns.
inline constexpr char kReferenceRung = 'R';
inline constexpr char kLadderRung = 'L';
inline constexpr char kChurnRung = 'C';
inline constexpr char kPagesPhase = 'P';

struct Rung {
  char kind = kReferenceRung;
  double rate = 0.0;  // offered ops/s, all lanes together
  int64_t duration_ns = 0;
  int windows = 1;
  std::vector<PlannedOp> ops;  // sorted by t_ns within each lane
};

struct Plan {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  std::string graph_file;  // relative to the plan's directory
  int conns = 1;           // serve lanes (connections)
  // Paging: back-to-back pages of `page_limit` answers from the seeded
  // starts in `page_from` (cycled), for page_ns in enum-paged and for the
  // kPagesPhase rung's duration in serve-*; every page_check_every-th page
  // is verified in full.
  int64_t page_limit = 0;
  int64_t page_ns = 0;
  int64_t page_check_every = 1;
  std::vector<Tuple> page_from;
  // serve-*: the phases, run in this order.
  std::vector<Rung> rungs;
  // serve-churn: open-loop updates on lane 1, on the churn rung's clock.
  std::vector<PlannedOp> updates;
  // enum-paged: in-process probes, back to back, for probe_ns.
  int64_t probe_ns = 0;
  std::vector<PlannedOp> probes;
};

bool WritePlan(const Plan& plan, const std::string& path);
bool ReadPlan(const std::string& path, Plan* plan, std::string* error);

// "a,b" <-> Tuple.
std::string TupleText(const Tuple& t);

}  // namespace frontbench

#endif  // FRONTBENCH_COMMON_H_
