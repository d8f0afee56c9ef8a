// frontbench: the generator and the runner of the front-door benchmark.
//
//   frontbench gen --workload <name> --seed <n> --seconds <n> --out <dir>
//       writes <dir>/graph.txt and <dir>/plan.txt from the seed.
//   frontbench run --dir <dir> --nwdd <path> --trace <0|1>
//       replays the plan against the library (enum-paged) or a freshly
//       spawned nwdd (serve-*), checks the replies, and prints one JSON
//       report line. With --trace 1 it also writes <dir>/spans.csv.
//
// run.py builds this binary and runs both steps, each in its own process.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "gen.h"
#include "runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: frontbench gen --workload W --seed N --seconds N --out DIR\n"
               "       frontbench run --dir DIR --nwdd PATH --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (command == "gen") {
    if (!flags.count("workload") || !flags.count("seed") ||
        !flags.count("seconds") || !flags.count("out")) {
      return Usage();
    }
    return frontbench::RunGenerator(
        flags["workload"], std::strtoull(flags["seed"].c_str(), nullptr, 10),
        std::atoi(flags["seconds"].c_str()), flags["out"]);
  }
  if (command != "run" || !flags.count("dir") || !flags.count("trace")) {
    return Usage();
  }
  frontbench::RunContext ctx;
  ctx.dir = flags["dir"];
  ctx.nwdd_path = flags["nwdd"];
  ctx.traced = flags["trace"] == "1";
  std::string error;
  if (!frontbench::ReadPlan(ctx.dir + "/plan.txt", &ctx.plan, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  frontbench::SpanLog spans(ctx.traced);
  frontbench::Report report;
  ctx.spans = &spans;
  ctx.report = &report;
  const bool ran = ctx.plan.workload == "enum-paged"
                       ? frontbench::RunEnumPaged(ctx)
                       : frontbench::RunServe(ctx);
  if (!ran) return 1;
  if (ctx.traced && !spans.WriteCsv(ctx.dir + "/spans.csv")) {
    std::fprintf(stderr, "cannot write %s/spans.csv\n", ctx.dir.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct ? 0 : 3;
}
