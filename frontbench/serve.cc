// serve-probe and serve-churn: the shipped nwdd binary,
// spawned fresh for every set-up on loopback TCP, driven through its frame
// protocol by open-loop lanes (one thread per connection).

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "checks.h"
#include "runner.h"
#include "fo/parser.h"
#include "graph/io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "serve/wire.h"
#include "wire_client.h"

extern char** environ;

namespace frontbench {
namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kSec = 1'000'000'000;
// A rung passes when its probe p99 and its generator lateness p99 stay
// within this limit, nothing failed, and lateness did not grow.
constexpr int64_t kLatencyLimitNs = 1 * kMs;
constexpr int64_t kLateGrowthNs = kMs / 4;
// nwdd is killed past this resident size, so a runaway ends as failed
// operations instead of exhausting the host.
constexpr int64_t kRssCeilingKb = int64_t{2048} * 1024;
// Reference-phase attempts while the host steals more CPU than this, and
// how long to wait for a quieter host before each attempt.
constexpr int kReferenceAttempts = 3;
constexpr double kQuietStealShare = 0.02;
constexpr int64_t kQuietWaitNs = 12'000'000'000;
// A failed or lost request counts as missing every latency limit.
constexpr int64_t kFailedLatencyNs = int64_t{1} << 50;

std::atomic<uint64_t> g_next_rid{1};

std::string WithRid(const std::string& request, uint64_t* rid_out = nullptr) {
  const uint64_t rid = g_next_rid.fetch_add(1);
  if (rid_out != nullptr) *rid_out = rid;
  return request + " rid=" + std::to_string(rid);
}

// --- The daemon process ---------------------------------------------------

struct DaemonProc {
  pid_t pid = -1;
  int port = -1;
};

bool SpawnDaemon(const std::string& nwdd, const std::string& graph_path,
                 const std::string& log_path, DaemonProc* d,
                 std::string* error) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const std::string source = "file:" + graph_path;
  std::vector<std::string> args = {nwdd, source, kQuery, "--tcp", "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&d->pid, nwdd.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot spawn " + nwdd + ": " + std::strerror(rc);
    d->pid = -1;
    return false;
  }
  return true;
}

// Waits for nwdd's "listening on 127.0.0.1:PORT" line.
bool WaitForPort(DaemonProc* d, const std::string& log_path,
                 int64_t deadline_ns, std::string* error) {
  const std::string marker = "listening on 127.0.0.1:";
  while (NowNs() < deadline_ns) {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      const size_t at = line.find(marker);
      if (at != std::string::npos) {
        d->port = std::atoi(line.c_str() + at + marker.size());
        return d->port > 0;
      }
    }
    int status = 0;
    if (waitpid(d->pid, &status, WNOHANG) == d->pid) {
      d->pid = -1;
      *error = "nwdd exited before listening (see " + log_path + ")";
      return false;
    }
    usleep(200);
  }
  *error = "nwdd did not start listening in time";
  return false;
}

// Asks nwdd to shut down, then reaps it (SIGKILL after a grace period).
void StopDaemon(DaemonProc* d, Conn* conn) {
  if (d->pid < 0) return;
  if (conn != nullptr && conn->alive()) {
    Reply reply;
    conn->Call(WithRid("shutdown"), &reply, NowNs() + 2 * kSec);
  }
  const int64_t grace = NowNs() + 5 * kSec;
  int status = 0;
  while (waitpid(d->pid, &status, WNOHANG) == 0) {
    if (NowNs() > grace) {
      kill(d->pid, SIGKILL);
      waitpid(d->pid, &status, 0);
      break;
    }
    usleep(1000);
  }
  d->pid = -1;
}

// Returns once a half-second slice shows less than kQuietStealShare steal,
// or after kQuietWaitNs. Steal on this kind of host comes in episodes of a
// minute or more from other guests, not from the benchmark's own load.
void WaitForQuietHost() {
  const int64_t give_up = NowNs() + kQuietWaitNs;
  do {
    const CpuTicks from = ReadCpuTicks();
    usleep(500'000);
    if (StealShare(from, ReadCpuTicks()) < kQuietStealShare) return;
  } while (NowNs() < give_up);
}

// --- nwdd's own metrics (the `metrics` verb) -------------------------------

struct MetricsDoc {
  nwd::obs::json::Value root;
  bool ok = false;

  int64_t Get(const char* group, const char* name) const {
    const auto* g = root.Find(group);
    const auto* v = g != nullptr ? g->Find(name) : nullptr;
    return v != nullptr ? v->Int64Or(0) : 0;
  }
  nwd::obs::Histogram::Snapshot Hist(const char* name) const {
    nwd::obs::Histogram::Snapshot s;
    s.buckets.assign(nwd::obs::Histogram::kBuckets, 0);
    const auto* g = root.Find("histograms");
    const auto* h = g != nullptr ? g->Find(name) : nullptr;
    if (h == nullptr) return s;
    s.count = h->Find("count")->Int64Or(0);
    s.sum = h->Find("sum")->Int64Or(0);
    s.min = h->Find("min")->Int64Or(0);
    s.max = h->Find("max")->Int64Or(0);
    const auto* buckets = h->Find("buckets");
    for (size_t b = 0; buckets != nullptr && b < buckets->array.size() &&
                       b < s.buckets.size();
         ++b) {
      s.buckets[b] = buckets->array[b].Int64Or(0);
    }
    return s;
  }
};

MetricsDoc FetchMetrics(Conn* conn) {
  MetricsDoc doc;
  Reply reply;
  if (!conn->Call(WithRid("metrics"), &reply, NowNs() + 5 * kSec) ||
      !reply.ok()) {
    return doc;
  }
  const size_t body = reply.head.find('\n');
  if (body == std::string::npos) return doc;
  nwd::obs::json::ParseResult parsed =
      nwd::obs::json::Parse(std::string_view(reply.head).substr(body + 1));
  doc.ok = parsed.ok;
  doc.root = std::move(parsed.value);
  return doc;
}

// Samples recorded between two scrapes of one histogram. min/max become
// the bounds of the outermost non-empty log2 buckets.
nwd::obs::Histogram::Snapshot HistDiff(const nwd::obs::Histogram::Snapshot& a,
                                       const nwd::obs::Histogram::Snapshot& b) {
  nwd::obs::Histogram::Snapshot d;
  d.count = b.count - a.count;
  d.sum = b.sum - a.sum;
  d.buckets.assign(b.buckets.size(), 0);
  int first = -1, last = -1;
  for (size_t i = 0; i < b.buckets.size(); ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
    if (d.buckets[i] > 0) {
      if (first < 0) first = static_cast<int>(i);
      last = static_cast<int>(i);
    }
  }
  if (first >= 0) {
    d.min = first == 0 ? 0 : int64_t{1} << (first - 1);
    d.max = last == 0 ? 0 : (int64_t{1} << last) - 1;
  }
  return d;
}

// --- Open-loop phases -------------------------------------------------------

// One executed request of an open-loop phase.
struct Done {
  const PlannedOp* op = nullptr;
  int64_t due_ns = 0;
  uint64_t rid = 0;
  LaneResult result;
};

// Sleeps until the steady clock reads `t_ns`.
void SleepUntil(int64_t t_ns) {
  for (int64_t now = NowNs(); now < t_ns; now = NowNs()) {
    usleep(static_cast<useconds_t>(std::max<int64_t>(1, (t_ns - now) / 1000)));
  }
}

// Runs `ops` (each on lane op.conn) open loop, one thread per lane. The
// phase starts shortly after the requests are rendered (*start_ns); replies
// still missing `grace_ns` after the last due time are lost. With
// `window_steal`, it also records the host's CPU steal share in each of the
// `windows` equal slices of the first `duration_ns` of the phase.
std::vector<Done> RunLanes(const std::vector<const PlannedOp*>& ops,
                           const std::vector<Conn*>& conns, int64_t grace_ns,
                           int64_t* start_ns, int64_t duration_ns = 0,
                           int windows = 0,
                           std::vector<double>* window_steal = nullptr) {
  std::vector<std::vector<LaneOp>> lane_ops(conns.size());
  std::vector<std::vector<size_t>> lane_index(conns.size());
  std::vector<Done> done(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlannedOp& op = *ops[i];
    std::string text;
    if (op.kind == 'U') {
      text = "update " + op.spec + " wait=1";
    } else {
      text = std::string(op.kind == 'T' ? "test " : "next ") + TupleText(op.tuple);
    }
    done[i].op = &op;
    lane_ops[op.conn].push_back(
        LaneOp{op.t_ns, WithRid(text, &done[i].rid), op.check});
    lane_index[op.conn].push_back(i);
  }
  *start_ns = NowNs() + 5 * kMs;
  int64_t last_due = *start_ns;
  for (size_t lane = 0; lane < conns.size(); ++lane) {
    for (size_t j = 0; j < lane_ops[lane].size(); ++j) {
      lane_ops[lane][j].due_ns += *start_ns;
      done[lane_index[lane][j]].due_ns = lane_ops[lane][j].due_ns;
      last_due = std::max(last_due, lane_ops[lane][j].due_ns);
    }
  }
  const int64_t give_up_ns = last_due + grace_ns;
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < conns.size(); ++lane) {
    if (lane_ops[lane].empty()) continue;
    threads.emplace_back([&, lane] {
      TightenTimerSlack();
      std::vector<LaneResult> results =
          conns[lane]->RunOpenLoop(lane_ops[lane], give_up_ns);
      for (size_t j = 0; j < results.size(); ++j) {
        done[lane_index[lane][j]].result = std::move(results[j]);
      }
    });
  }
  if (window_steal != nullptr) {
    window_steal->clear();
    SleepUntil(*start_ns);
    CpuTicks from = ReadCpuTicks();
    for (int w = 1; w <= windows; ++w) {
      SleepUntil(*start_ns + duration_ns * w / windows);
      const CpuTicks to = ReadCpuTicks();
      window_steal->push_back(StealShare(from, to));
      from = to;
    }
  }
  for (std::thread& t : threads) t.join();
  return done;
}

// Indices of the quiet entries of `steal` (the host's CPU steal share while
// each window or page ran): those below kQuietStealShare or, when fewer
// than half are that quiet, the quieter half. The choice depends only on
// the host, never on what was measured, so a slower program still shows in
// every entry chosen.
std::vector<size_t> QuietIndices(const std::vector<double>& steal) {
  std::vector<size_t> pick(steal.size());
  for (size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  std::stable_sort(pick.begin(), pick.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = (pick.size() + 1) / 2;
  while (keep < pick.size() && steal[pick[keep]] < kQuietStealShare) ++keep;
  pick.resize(keep);
  return pick;
}

struct PhaseSummary {
  double rate = 0.0;
  double achieved = 0.0;  // completed ok per second of the phase
  int64_t samples = 0;
  int64_t fails = 0;
  std::vector<int64_t> client_ns;  // sent -> reply (ok only)
  // Latency from the due time (a failed request counts as
  // kFailedLatencyNs): with windows > 1, the median over equal time
  // slices of each slice's percentile, over the slices in `used` (the
  // slices' indices) from `used_samples` requests. Per-slice values in
  // microseconds, for every slice.
  double p50 = 0, p90 = 0, p99 = 0;
  std::vector<double> window_p50, window_p90, window_p99;
  std::vector<double> window_steal;
  std::vector<int> used;
  int64_t used_samples = 0;
  double cpu_per_op_ns = 0;  // nwdd's CPU time over the phase, per request
  double late_p99 = 0;
  bool late_growing = false;
  bool pass = false;
};

// Given each slice's host CPU steal (`window_steal`, one per slice), the
// percentiles are taken over the quiet slices (QuietIndices).
PhaseSummary Summarize(const std::vector<Done>& done, double rate,
                       int64_t start_ns, int64_t duration_ns, int windows,
                       const std::vector<double>& window_steal = {}) {
  PhaseSummary s;
  s.rate = rate;
  s.samples = static_cast<int64_t>(done.size());
  windows = std::max(1, windows);
  std::vector<std::vector<int64_t>> latency(static_cast<size_t>(windows));
  std::vector<std::pair<int64_t, int64_t>> late;  // (due, lateness)
  int64_t last_recv = start_ns;
  int64_t ok = 0;
  for (const Done& d : done) {
    const LaneResult& r = d.result;
    const int64_t slice = duration_ns > 0
        ? std::clamp<int64_t>((d.due_ns - start_ns) * windows / duration_ns, 0, windows - 1)
        : 0;
    if (r.ok && r.recv_ns > 0) {
      ++ok;
      latency[static_cast<size_t>(slice)].push_back(r.recv_ns - d.due_ns);
      s.client_ns.push_back(r.recv_ns - r.sent_ns);
      last_recv = std::max(last_recv, r.recv_ns);
    } else {
      ++s.fails;
      latency[static_cast<size_t>(slice)].push_back(kFailedLatencyNs);
    }
    if (r.sent_ns > 0) late.emplace_back(d.due_ns, r.sent_ns - d.due_ns);
  }
  std::vector<int> slices;  // non-empty slices, in time order
  for (int i = 0; i < windows; ++i) {
    std::vector<int64_t>& w = latency[static_cast<size_t>(i)];
    if (w.empty()) continue;
    slices.push_back(i);
    s.window_p50.push_back(Percentile(&w, 0.50) / 1e3);
    s.window_p90.push_back(Percentile(&w, 0.90) / 1e3);
    s.window_p99.push_back(Percentile(&w, 0.99) / 1e3);
  }
  std::vector<size_t> pick(slices.size());
  for (size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  if (window_steal.size() == static_cast<size_t>(windows)) {
    s.window_steal = window_steal;
    std::vector<double> slice_steal;
    for (const int i : slices) slice_steal.push_back(window_steal[static_cast<size_t>(i)]);
    pick = QuietIndices(slice_steal);
  }
  std::vector<double> p50s, p90s, p99s;
  for (const size_t i : pick) {
    s.used.push_back(slices[i]);
    s.used_samples += static_cast<int64_t>(latency[static_cast<size_t>(slices[i])].size());
    p50s.push_back(s.window_p50[i]);
    p90s.push_back(s.window_p90[i]);
    p99s.push_back(s.window_p99[i]);
  }
  s.p50 = Median(p50s) * 1e3;
  s.p90 = Median(p90s) * 1e3;
  s.p99 = Median(p99s) * 1e3;
  // Lateness growth: the last quarter's median against the first's.
  std::sort(late.begin(), late.end());
  std::vector<int64_t> lateness;
  for (const auto& [due, l] : late) lateness.push_back(l);
  if (lateness.size() >= 8) {
    const size_t q = lateness.size() / 4;
    std::vector<int64_t> head(lateness.begin(), lateness.begin() + q);
    std::vector<int64_t> tail(lateness.end() - q, lateness.end());
    s.late_growing = Percentile(&tail, 0.5) > Percentile(&head, 0.5) + kLateGrowthNs;
  }
  s.late_p99 = Percentile(&lateness, 0.99);
  s.achieved = last_recv > start_ns ? ok / ((last_recv - start_ns) / 1e9) : 0.0;
  s.pass = s.fails == 0 && s.p99 <= kLatencyLimitNs &&
           s.late_p99 <= kLatencyLimitNs && !s.late_growing;
  return s;
}

std::string RungJson(char kind, double steal, const PhaseSummary& s) {
  std::ostringstream out;
  out << "{\"kind\":\"" << kind << "\",\"steal_share\":" << steal
      << ",\"rate\":" << s.rate << ",\"achieved\":" << s.achieved
      << ",\"samples\":" << s.samples << ",\"fails\":" << s.fails
      << ",\"p50_us\":" << s.p50 / 1e3 << ",\"p99_us\":" << s.p99 / 1e3
      << ",\"cpu_us\":" << s.cpu_per_op_ns / 1e3
      << ",\"late_p99_us\":" << s.late_p99 / 1e3
      << ",\"late_growing\":" << (s.late_growing ? "true" : "false")
      << ",\"pass\":" << (s.pass ? "true" : "false");
  if (s.window_p50.size() > 1) {
    out << ",\"window_p50_us\":[";
    for (size_t i = 0; i < s.window_p50.size(); ++i) out << (i ? "," : "") << s.window_p50[i];
    out << "],\"window_p90_us\":[";
    for (size_t i = 0; i < s.window_p90.size(); ++i) out << (i ? "," : "") << s.window_p90[i];
    out << "],\"window_p99_us\":[";
    for (size_t i = 0; i < s.window_p99.size(); ++i) out << (i ? "," : "") << s.window_p99[i];
    out << "],\"window_steal\":[";
    for (size_t i = 0; i < s.window_steal.size(); ++i) out << (i ? "," : "") << s.window_steal[i];
    out << "],\"windows_used\":[";
    for (size_t i = 0; i < s.used.size(); ++i) out << (i ? "," : "") << s.used[i];
    out << "]";
  }
  out << "}";
  return out.str();
}

void AddClientSpans(const std::vector<Done>& done, int32_t parent,
                    SpanLog* spans) {
  if (!spans->enabled()) return;
  std::vector<Span> out;
  out.reserve(done.size());
  for (const Done& d : done) {
    const char* name = d.op->kind == 'T' ? "client/test"
                       : d.op->kind == 'N' ? "client/next"
                                           : "client/update";
    out.push_back(Span{name, d.result.sent_ns, d.result.recv_ns, parent, d.rid});
  }
  spans->AppendAll(out);
}

// --- Pages ------------------------------------------------------------------

struct PageOutcome {
  int64_t answers = 0;
  int64_t pages = 0;
  int64_t fails = 0;
  // One entry per page answered: the call's time, its answers, and the
  // host's CPU steal share during the call.
  std::vector<int64_t> call_ns;
  std::vector<int64_t> got;
  std::vector<double> steal;
  std::vector<PageRecord> checked;
};

// Back-to-back `enumerate` pages on one connection for `phase_ns`.
PageOutcome RunPages(const Plan& plan, Conn* conn, int64_t phase_ns,
                     int32_t parent, SpanLog* spans) {
  PageOutcome out;
  std::vector<Span> page_spans;
  const int64_t start = NowNs();
  const int64_t end = start + phase_ns;
  Reply reply;
  for (size_t i = 0; NowNs() < end && conn->alive(); ++i) {
    const Tuple& from = plan.page_from[i % plan.page_from.size()];
    uint64_t rid = 0;
    const std::string request =
        WithRid("enumerate from=" + TupleText(from) +
                    " limit=" + std::to_string(plan.page_limit),
                &rid);
    const CpuTicks ticks = ReadCpuTicks();
    const int64_t t0 = NowNs();
    const bool ok = conn->Call(request, &reply, end + 10 * kSec) && reply.ok();
    const int64_t t1 = NowNs();
    const double steal = StealShare(ticks, ReadCpuTicks());
    ++out.pages;
    if (!ok) {
      ++out.fails;
      continue;
    }
    const int64_t got = static_cast<int64_t>(reply.answers.size());
    out.answers += got;
    out.call_ns.push_back(t1 - t0);
    out.got.push_back(got);
    out.steal.push_back(steal);
    if (spans->enabled()) page_spans.push_back(Span{"client/enumerate", t0, t1, parent, rid});
    if (i % static_cast<size_t>(plan.page_check_every) == 0) {
      out.checked.push_back(PageRecord{from, plan.page_limit, reply.answers});
    }
  }
  spans->AppendAll(page_spans);
  return out;
}

// --- The resident-size guard and the traced inflight sampler ----------------

class Monitor {
 public:
  Monitor(pid_t pid, Conn* stats_conn) : pid_(pid), stats_conn_(stats_conn) {
    thread_ = std::thread([this] { Body(); });
  }
  ~Monitor() { Stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  bool killed() const { return killed_.load(); }
  int64_t inflight_max() const { return inflight_max_.load(); }

 private:
  void Body() {
    Reply reply;
    while (!stop_.load()) {
      if (ProcStatusKb(pid_, "VmRSS:") > kRssCeilingKb) {
        kill(pid_, SIGKILL);
        killed_.store(true);
        return;
      }
      if (stats_conn_ != nullptr && stats_conn_->alive() &&
          stats_conn_->Call(WithRid("stats"), &reply, NowNs() + kSec)) {
        const auto v = nwd::serve::FindToken(reply.head, "inflight");
        if (v.has_value()) {
          inflight_max_.store(std::max<int64_t>(inflight_max_.load(), std::atoll(v->c_str())));
        }
      }
      usleep(10'000);
    }
  }

  const pid_t pid_;
  Conn* const stats_conn_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::atomic<int64_t> inflight_max_{0};
  std::thread thread_;  // last: starts after the members it reads
};

// Each set-up's time and the host's CPU steal share during it.
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<double> steal;
};

// One set-up: spawns nwdd (stderr to `log_name` in the run's directory)
// and times it to the first `ping` that succeeds on a fresh connection,
// which is left open in *conn.
bool SetUp(const RunContext& ctx, const char* log_name, DaemonProc* daemon,
           std::unique_ptr<Conn>* conn, SetupTimes* times) {
  const std::string log_path = ctx.dir + "/" + log_name;
  std::string error;
  const int32_t setup_span = ctx.spans->Open("setup");
  const CpuTicks ticks = ReadCpuTicks();
  const int64_t t0 = NowNs();
  if (!SpawnDaemon(ctx.nwdd_path, ctx.dir + "/" + ctx.plan.graph_file,
                   log_path, daemon, &error) ||
      !WaitForPort(daemon, log_path, t0 + 60 * kSec, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  *conn = std::make_unique<Conn>();
  Reply reply;
  if (!(*conn)->Connect(daemon->port, &error) ||
      !(*conn)->Call(WithRid("ping"), &reply, t0 + 60 * kSec) || !reply.ok()) {
    std::fprintf(stderr, "nwdd did not answer ping: %s\n", error.c_str());
    StopDaemon(daemon, nullptr);
    return false;
  }
  times->seconds.push_back((NowNs() - t0) / 1e9);
  times->steal.push_back(StealShare(ticks, ReadCpuTicks()));
  ctx.spans->Close(setup_span);
  return true;
}

void CheckProbe(Oracle* oracle, const Done& d, Report* report, const char* what) {
  if (!d.result.ok) return;  // a failure, counted apart from mismatches
  if (d.op->kind == 'T') {
    bool value = false;
    if (!ParseTestReply(d.result.reply, &value)) {
      report->Mismatch(std::string(what) + ": unparseable reply '" + d.result.reply + "'");
      return;
    }
    CheckTest(oracle, d.op->tuple, value, report, what);
  } else {
    std::optional<Tuple> value;
    if (!ParseNextReply(d.result.reply, &value)) {
      report->Mismatch(std::string(what) + ": unparseable reply '" + d.result.reply + "'");
      return;
    }
    CheckNext(oracle, d.op->tuple, value, report, what);
  }
}

}  // namespace

bool RunServe(const RunContext& ctx) {
  const Plan& plan = ctx.plan;
  Report* report = ctx.report;
  SpanLog* spans = ctx.spans;
  const std::string graph_path = ctx.dir + "/" + plan.graph_file;
  std::string error;

  // --- Set-up: spawn to the first successful ping. Half of the
  // kServeSetups set-ups run here (the last one is kept and measured), the
  // rest after the measured daemon has shut down, so the median spans the
  // run instead of one moment of a shared host.
  SetupTimes setups;
  DaemonProc daemon;
  std::vector<std::unique_ptr<Conn>> conns(1);
  for (int k = 0; k < kServeSetups / 2; ++k) {
    if (k > 0) StopDaemon(&daemon, conns[0].get());
    if (!SetUp(ctx, "nwdd.log", &daemon, &conns[0], &setups)) return false;
  }
  for (int i = 1; i < plan.conns; ++i) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Connect(daemon.port, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      StopDaemon(&daemon, conns[0].get());
      return false;
    }
  }
  std::vector<Conn*> lanes;
  for (auto& c : conns) lanes.push_back(c.get());
  Conn stats_conn;
  const bool sample_inflight = ctx.traced && stats_conn.Connect(daemon.port, &error);
  Monitor monitor(daemon.pid, sample_inflight ? &stats_conn : nullptr);

  // --- Open-loop probe phases, in plan order. ----------------------------
  std::vector<std::vector<Done>> kept;  // probe results, in time order
  std::vector<Done> updates_done;
  PageOutcome pages;
  std::string rung_table = "[";
  double max_rate = 0.0;
  bool ladder_done = false;
  double late_p99_max = 0.0;
  for (const Rung& rung : plan.rungs) {
    if (!std::all_of(lanes.begin(), lanes.end(), [](Conn* c) { return c->alive(); })) {
      break;  // a dead connection: nothing later can be attributed
    }
    if (rung.kind == kLadderRung && ladder_done) continue;
    if (rung.kind == kPagesPhase) {
      const int32_t page_span = spans->Open("phase/pages");
      pages = RunPages(plan, lanes[0], rung.duration_ns, page_span, spans);
      spans->Close(page_span);
      report->attempted += pages.pages;
      report->failed += pages.fails;
      // Over the quiet pages (QuietIndices), as for probe windows.
      int64_t answers = 0;
      int64_t call_ns = 0;
      std::vector<int64_t> calls, per_answer_ns;
      for (const size_t i : QuietIndices(pages.steal)) {
        answers += pages.got[i];
        call_ns += pages.call_ns[i];
        calls.push_back(pages.call_ns[i]);
        per_answer_ns.push_back(pages.call_ns[i] / std::max<int64_t>(1, pages.got[i]));
      }
      report->Set("page_answers_per_s", call_ns > 0 ? answers / (call_ns / 1e9) : 0.0,
                  "1/s", answers);
      ReportQuantiles("delay", "ns", 1.0, per_answer_ns, report);
      std::string page_steal = "[";
      for (const double st : pages.steal) {
        page_steal += (page_steal.size() > 1 ? "," : "") + std::to_string(st);
      }
      report->detail["page_steal"] = page_steal + "]";
      report->Set("serve.page_call_ms", Percentile(&calls, 0.5) / 1e6, "ms",
                  static_cast<int64_t>(calls.size()));
      continue;
    }
    std::vector<const PlannedOp*> ops;
    for (const PlannedOp& op : rung.ops) ops.push_back(&op);
    if (rung.kind == kChurnRung) {
      for (const PlannedOp& op : plan.updates) ops.push_back(&op);
    }
    // A reference phase during which the hypervisor stole more than
    // kQuietStealShare of the CPU is run again, up to kReferenceAttempts
    // times, and the attempt with the least steal is reported: on a shared
    // host such a phase measures the neighbours, not the program.
    const int attempts = rung.kind == kReferenceRung ? kReferenceAttempts : 1;
    double least_steal = 2.0;
    PhaseSummary s;
    std::vector<Done> updates;
    int64_t start = 0;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (rung.kind == kReferenceRung) WaitForQuietHost();
      MetricsDoc before;
      if (ctx.traced && rung.kind == kReferenceRung) before = FetchMetrics(lanes[0]);
      const int32_t rung_span = spans->Open(
          rung.kind == kChurnRung ? "phase/churn"
          : rung.kind == kReferenceRung ? "phase/reference" : "phase/ladder");
      const CpuTicks ticks = ReadCpuTicks();
      const int64_t cpu_before = ProcessCpuNs(daemon.pid);
      std::vector<double> window_steal;
      std::vector<Done> done =
          rung.kind == kReferenceRung
              ? RunLanes(ops, lanes, 5 * kSec, &start, rung.duration_ns,
                         rung.windows, &window_steal)
              : RunLanes(ops, lanes, 5 * kSec, &start);
      const int64_t daemon_cpu_ns = ProcessCpuNs(daemon.pid) - cpu_before;
      const double steal = StealShare(ticks, ReadCpuTicks());
      spans->Close(rung_span);
      AddClientSpans(done, rung_span, spans);

      std::vector<Done> probes;
      updates.clear();
      for (Done& d : done) (d.op->kind == 'U' ? updates : probes).push_back(std::move(d));
      PhaseSummary attempt_summary =
          Summarize(probes, rung.rate, start, rung.duration_ns, rung.windows,
                    window_steal);
      attempt_summary.cpu_per_op_ns =
          static_cast<double>(daemon_cpu_ns) / std::max<size_t>(1, probes.size());
      report->attempted += static_cast<int64_t>(done.size());
      report->failed += attempt_summary.fails;
      late_p99_max = std::max(late_p99_max, attempt_summary.late_p99);
      if (rung_table.size() > 1) rung_table += ",";
      rung_table += RungJson(rung.kind, steal, attempt_summary);
      kept.push_back(std::move(probes));
      if (steal >= least_steal) continue;
      least_steal = steal;
      s = std::move(attempt_summary);
      if (rung.kind == kReferenceRung && ctx.traced) {
        const MetricsDoc after = FetchMetrics(lanes[0]);
        const auto server = HistDiff(before.Hist("serve.request_ns"),
                                     after.Hist("serve.request_ns"));
        const double server_p50 = nwd::obs::SnapshotQuantile(server, 0.5);
        report->Set("serve.server_p50_us", server_p50 / 1e3, "us", server.count);
        report->Set("serve.server_p99_us",
                    nwd::obs::SnapshotQuantile(server, 0.99) / 1e3, "us", server.count);
        std::vector<int64_t> client = s.client_ns;
        report->Set("serve.transport_p50_us",
                    (Percentile(&client, 0.5) - server_p50) / 1e3, "us",
                    static_cast<int64_t>(s.client_ns.size()));
      }
      if (steal <= kQuietStealShare) break;
    }
    if (rung.kind == kReferenceRung) {
      // The attempt with the least steal; in it, the median over its
      // quiet windows (see Summarize) of each window's percentile.
      report->Set("probe_p50_us", s.p50 / 1e3, "us", s.used_samples);
      report->Set("probe_p90_us", s.p90 / 1e3, "us", s.used_samples);
      report->Set("probe_p99_us", s.p99 / 1e3, "us", s.used_samples);
      report->Set("probe_cpu_us", s.cpu_per_op_ns / 1e3, "us", s.samples);
      report->Set("gen.late_p99_us.ref", s.late_p99 / 1e3, "us", s.samples);
    } else if (rung.kind == kLadderRung) {
      // The highest rung below the first failing one; the ladder stops at
      // its first failure.
      if (s.pass) {
        max_rate = s.achieved;
      } else {
        ladder_done = true;
      }
    } else {
      report->Set("churn.probe_p50_us", s.p50 / 1e3, "us", s.samples);
      report->Set("churn.probe_p99_us", s.p99 / 1e3, "us", s.samples);
      PhaseSummary u = Summarize(updates, 0.0, start, rung.duration_ns, 1);
      report->failed += u.fails;
      report->Set("update_p50_ms", u.p50 / 1e6, "ms", u.samples);
      report->Set("update_p99_ms", u.p99 / 1e6, "ms", u.samples);
      updates_done = std::move(updates);
    }
  }
  rung_table += "]";
  report->detail["rungs"] = rung_table;
  report->Set("max_rate_rps", max_rate, "1/s");
  report->Set("gen.late_p99_us", late_p99_max / 1e3, "us");

  // --- Daemon-side numbers, then shutdown. ----------------------------
  report->Set("peak_rss_mb", ProcStatusKb(daemon.pid, "VmHWM:") / 1024.0, "MB");
  monitor.Stop();
  if (monitor.killed()) {
    report->detail["rss_ceiling_kill"] = "true";
  }
  if (ctx.traced && lanes[0]->alive()) {
    // nwdd publishes its probe-context pool size and answer counters when
    // an engine is destroyed: retire the epoch with a reload of the same
    // file, then scrape.
    Reply reply;
    lanes[0]->Call(WithRid("reload file:" + graph_path), &reply, NowNs() + 60 * kSec);
    MetricsDoc doc;
    for (int attempt = 0; attempt < 100; ++attempt) {
      doc = FetchMetrics(lanes[0]);
      if (!doc.ok || doc.Get("gauges", "answer.contexts") > 0) break;
      usleep(20'000);
    }
    auto ratio = [](int64_t a, int64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    int64_t next_calls = pages.answers;
    int64_t probes_ok = 0;
    for (const auto& rung : kept) {
      for (const Done& d : rung) {
        if (!d.result.ok) continue;
        ++probes_ok;
        next_calls += d.op->kind == 'N' ? 1 : 0;
      }
    }
    nwd::AnswerCounters c;
    c.descents = doc.Get("counters", "answer.descents");
    c.ball_cache_hits = doc.Get("counters", "answer.ball_cache_hits");
    c.ball_cache_misses = doc.Get("counters", "answer.ball_cache_misses");
    c.compiled_probes = doc.Get("counters", "compile.exec.probes");
    c.compiled_insns = doc.Get("counters", "compile.exec.insns");
    c.contexts = doc.Get("gauges", "answer.contexts");
    ReportAnswerCounters(c, next_calls, report);
    report->Set("serve.rejected_ratio",
                ratio(doc.Get("counters", "serve.rejected"),
                      doc.Get("counters", "serve.requests")), "1");
    report->Set("serve.inflight_max", static_cast<double>(monitor.inflight_max()), "count");
    const auto sync = doc.Hist("dynamic.sync_us");
    report->Set("repair.sync_p50_ms", nwd::obs::SnapshotQuantile(sync, 0.5) / 1e3, "ms", sync.count);
    report->Set("repair.sync_p99_ms", nwd::obs::SnapshotQuantile(sync, 0.99) / 1e3, "ms", sync.count);
    for (const char* stage : {"cover", "skips", "extendable", "compile"}) {
      const auto h = doc.Hist(("repair." + std::string(stage) + "_us").c_str());
      report->Set("repair." + std::string(stage) + "_ms",
                  h.count > 0 ? h.mean() / 1e3 : 0.0, "ms", h.count);
    }
    report->Set("repair.skip_rows_per_batch",
                ratio(doc.Get("counters", "repair.skip_rows_recomputed"),
                      doc.Get("counters", "repair.repairs")), "rows");
    report->Set("repair.decline_ratio",
                ratio(doc.Get("counters", "dynamic.full_rebuilds"),
                      doc.Get("counters", "dynamic.batches")), "1");
    report->Set("dynamic.lazy_probe_ratio",
                ratio(doc.Get("counters", "dynamic.lazy_probes"), probes_ok), "1");
  }
  StopDaemon(&daemon, lanes[0]);
  while (static_cast<int>(setups.seconds.size()) < kServeSetups) {
    std::unique_ptr<Conn> conn;
    if (!SetUp(ctx, "nwdd-setup.log", &daemon, &conn, &setups)) return false;
    StopDaemon(&daemon, conn.get());
  }
  report->Set("setup_s", Median(setups.seconds), "s", kServeSetups);
  std::string setup_list = "[";
  for (size_t i = 0; i < setups.seconds.size(); ++i) {
    setup_list += std::string(i > 0 ? "," : "") + "[" + std::to_string(setups.seconds[i]) +
                  "," + std::to_string(setups.steal[i]) + "]";
  }
  report->detail["setup_s"] = setup_list + "]";

  // --- Correctness gate. ---------------------------------------------------
  const nwd::fo::ParseResult parsed = nwd::fo::ParseQuery(kQuery);
  const int64_t t0 = NowNs();
  nwd::GraphParseResult loaded = nwd::ReadGraphFromFile(graph_path);
  if (!loaded.ok || !parsed.ok) {
    std::fprintf(stderr, "cannot load %s for checking\n", graph_path.c_str());
    return false;
  }
  const int64_t t1 = NowNs();
  const nwd::ColoredGraph& graph = loaded.graph;
  const int64_t n = graph.NumVertices();
  // The in-process engine over the same file: the oracle of serve-probe,
  // and the source of the prepare-stage layer numbers.
  nwd::EnumerationEngine engine(graph, parsed.query);
  SetupSample setup;
  setup.load_ms = (t1 - t0) / 1e6;
  setup.ctor_ms = (NowNs() - t1) / 1e6;
  setup.stats = engine.stats();
  ReportPrepareLayers({setup}, report);

  std::vector<const Done*> samples;
  for (const auto& rung : kept) {
    for (const Done& d : rung) {
      if (d.op->check && d.result.ok) samples.push_back(&d);
    }
  }
  int64_t checked_probes = 0;
  std::unique_ptr<Oracle> oracle;
  nwd::ColoredGraph mirror;
  if (plan.updates.empty()) {
    oracle = std::make_unique<EngineOracle>(engine);
    for (const Done* d : samples) CheckProbe(oracle.get(), *d, report, plan.workload.c_str());
    checked_probes = static_cast<int64_t>(samples.size());
    for (const PageRecord& page : pages.checked) {
      CheckPage(oracle.get(), page, n, report, plan.workload.c_str());
    }
  } else {
    // The mirror graph is edited in step with the acknowledged updates.
    // A probe is checked against the state between update k's `ok` and
    // update k+1's send when it was sent and answered inside that window.
    mirror = nwd::ReadGraphFromFile(graph_path).graph;
    oracle = std::make_unique<NaiveOracle>(mirror, parsed.query);
    // serve-churn pages before its first update: the initial graph.
    for (const PageRecord& page : pages.checked) {
      CheckPage(oracle.get(), page, n, report, plan.workload.c_str());
    }
    size_t next_sample = 0;
    for (size_t k = 0; k <= updates_done.size(); ++k) {
      const int64_t lower = k == 0 ? 0 : updates_done[k - 1].result.recv_ns;
      const int64_t upper = k == updates_done.size()
                                ? INT64_MAX
                                : updates_done[k].result.sent_ns;
      for (; next_sample < samples.size(); ++next_sample) {
        const Done& d = *samples[next_sample];
        if (d.result.sent_ns >= upper) break;
        if (d.result.sent_ns >= lower && d.result.recv_ns <= upper) {
          CheckProbe(oracle.get(), d, report, "serve-churn");
          ++checked_probes;
        }
      }
      if (k == updates_done.size()) break;
      if (!updates_done[k].result.ok) break;  // the state after it is unknown
      nwd::serve::Request request;
      std::string parse_error;
      nwd::serve::ParseRequest("update " + updates_done[k].op->spec, &request,
                               &parse_error);
      for (const nwd::GraphEdit& e : request.edits) mirror.ApplyInPlace(e);
    }
  }
  if (samples.empty() || pages.checked.empty()) {
    report->Mismatch(plan.workload + ": no probe or page was sampled for checking");
  } else {
    SelfTest(oracle.get(), samples.front()->op->tuple, pages.checked.front(), n, report);
  }
  report->detail["checked"] = "{\"probes\":" + std::to_string(checked_probes) +
                              ",\"pages\":" + std::to_string(pages.checked.size()) + "}";
  return true;
}

}  // namespace frontbench
