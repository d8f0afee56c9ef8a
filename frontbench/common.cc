#include "common.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace frontbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<int64_t>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  return static_cast<double>((*values)[rank]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, stat] : metrics) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(name) << "\":{\"value\":" << Number(stat.value)
        << ",\"unit\":\"" << JsonEscape(stat.unit)
        << "\",\"samples\":" << stat.samples << '}';
  }
  out << "},\"detail\":{";
  first = true;
  for (const auto& [name, text] : detail) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(name) << "\":" << text;
  }
  out << "},\"mismatches\":[";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << JsonEscape(mismatches[i]) << '"';
  }
  out << "]}";
  return out.str();
}

int32_t SpanLog::Open(const char* name, int32_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, NowNs(), 0, parent, 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  if (!enabled_ || index < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void SpanLog::Add(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void SpanLog::AppendAll(const std::vector<Span>& spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << "index,name,start_ns,end_ns,parent,rid\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.rid << '\n';
  }
  return static_cast<bool>(out);
}

int64_t ProcStatusKb(int pid, const char* key) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoll(line.c_str() + key_len, nullptr, 10);
    }
  }
  return -1;
}

int64_t ProcessCpuNs(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  int64_t total = 0;
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  while (const dirent* e = readdir(tasks)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    int64_t on_cpu_ns = 0;
    if (in >> on_cpu_ns) total += on_cpu_ns;
  }
  closedir(tasks);
  return total;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  CpuTicks ticks;
  int64_t field = 0;
  for (int i = 0; i < 10 && in >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const int64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0.0;
}

std::string TupleText(const Tuple& t) {
  std::string out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(t[i]);
  }
  return out;
}

// --- Plan file ------------------------------------------------------------
//
// Line format (one record per line, space separated):
//   frontbench-plan 1
//   workload <name> | seed <n> | seconds <n> | graph <file> | conns <n>
//   pages <limit> <phase_ns> <check_every>   then   f <a> <b>  per start
//   rung <R|L|C> <rate> <duration_ns> <windows> then   p <conn> <t_ns> <T|N> <a> <b> <check>
//   updates                                  then   u <conn> <t_ns> <spec>
//   probes <phase_ns>                        then   p 0 0 <T|N> <a> <b> <check>
//   end

namespace {

void WriteOp(std::ostream& out, const PlannedOp& op) {
  out << "p " << op.conn << ' ' << op.t_ns << ' ' << op.kind << ' '
      << op.tuple[0] << ' ' << op.tuple[1] << ' ' << (op.check ? 1 : 0)
      << '\n';
}

}  // namespace

bool WritePlan(const Plan& plan, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << "frontbench-plan 1\n"
      << "workload " << plan.workload << '\n'
      << "seed " << plan.seed << '\n'
      << "seconds " << plan.seconds << '\n'
      << "graph " << plan.graph_file << '\n'
      << "conns " << plan.conns << '\n';
  if (plan.page_limit > 0) {
    out << "pages " << plan.page_limit << ' ' << plan.page_ns << ' '
        << plan.page_check_every << '\n';
    for (const Tuple& t : plan.page_from) out << "f " << t[0] << ' ' << t[1] << '\n';
  }
  for (const Rung& rung : plan.rungs) {
    out << "rung " << rung.kind << ' ' << rung.rate << ' ' << rung.duration_ns
        << ' ' << rung.windows << '\n';
    for (const PlannedOp& op : rung.ops) WriteOp(out, op);
  }
  if (!plan.updates.empty()) {
    out << "updates\n";
    for (const PlannedOp& op : plan.updates) {
      out << "u " << op.conn << ' ' << op.t_ns << ' ' << op.spec << '\n';
    }
  }
  if (plan.probe_ns > 0) {
    out << "probes " << plan.probe_ns << '\n';
    for (const PlannedOp& op : plan.probes) WriteOp(out, op);
  }
  out << "end\n";
  return static_cast<bool>(out);
}

bool ReadPlan(const std::string& path, Plan* plan, std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open plan " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != "frontbench-plan 1") {
    *error = "not a frontbench plan: " + path;
    return false;
  }
  std::vector<PlannedOp>* ops = nullptr;  // where `p` records go
  bool ended = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "p") {
      PlannedOp op;
      int check = 0;
      Vertex a = 0, b = 0;
      fields >> op.conn >> op.t_ns >> op.kind >> a >> b >> check;
      op.tuple = {a, b};
      op.check = check != 0;
      if (!fields || ops == nullptr) {
        *error = "bad probe record: " + line;
        return false;
      }
      ops->push_back(std::move(op));
    } else if (tag == "f") {
      Vertex a = 0, b = 0;
      fields >> a >> b;
      plan->page_from.push_back({a, b});
    } else if (tag == "u") {
      PlannedOp op;
      op.kind = 'U';
      fields >> op.conn >> op.t_ns >> op.spec;
      plan->updates.push_back(std::move(op));
    } else if (tag == "rung") {
      Rung rung;
      fields >> rung.kind >> rung.rate >> rung.duration_ns >> rung.windows;
      plan->rungs.push_back(std::move(rung));
      ops = &plan->rungs.back().ops;
    } else if (tag == "probes") {
      fields >> plan->probe_ns;
      ops = &plan->probes;
    } else if (tag == "pages") {
      fields >> plan->page_limit >> plan->page_ns >> plan->page_check_every;
    } else if (tag == "updates") {
      ops = nullptr;
    } else if (tag == "workload") {
      fields >> plan->workload;
    } else if (tag == "seed") {
      fields >> plan->seed;
    } else if (tag == "seconds") {
      fields >> plan->seconds;
    } else if (tag == "graph") {
      fields >> plan->graph_file;
    } else if (tag == "conns") {
      fields >> plan->conns;
    } else if (tag == "end") {
      ended = true;
      break;
    } else {
      *error = "unknown plan record: " + line;
      return false;
    }
    if (!fields && tag != "updates") {
      *error = "malformed plan record: " + line;
      return false;
    }
  }
  if (!ended) {
    *error = "truncated plan " + path;
    return false;
  }
  return true;
}

}  // namespace frontbench
