// Correctness gate: replies of the program are compared with an oracle.
// A mismatch fails the run (nonzero exit) and is kept apart from the
// failed-operation count.

#ifndef FRONTBENCH_CHECKS_H_
#define FRONTBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "enumerate/engine.h"
#include "fo/ast.h"
#include "fo/naive_eval.h"

namespace frontbench {

// What a reply claims, checked against the oracle's view of the graph.
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual bool Test(const Tuple& t) = 0;
  // Whether `claimed` is the smallest solution >= from (nullopt: none).
  virtual bool IsNext(const Tuple& from, const std::optional<Tuple>& claimed) = 0;
};

// Checks against an in-process engine built from the same file.
class EngineOracle : public Oracle {
 public:
  explicit EngineOracle(const nwd::EnumerationEngine& engine) : engine_(engine) {}
  bool Test(const Tuple& t) override { return engine_.Test(t); }
  bool IsNext(const Tuple& from, const std::optional<Tuple>& claimed) override {
    return engine_.Next(from) == claimed;
  }

 private:
  const nwd::EnumerationEngine& engine_;
};

// Checks against the naive FO semantics: a claimed answer must satisfy the
// query, and every tuple between `from` and it (the skipped gap) must not.
class NaiveOracle : public Oracle {
 public:
  NaiveOracle(const nwd::ColoredGraph& graph, const nwd::fo::Query& query)
      : eval_(graph), query_(query), n_(graph.NumVertices()) {}
  bool Test(const Tuple& t) override { return eval_.TestTuple(query_, t); }
  bool IsNext(const Tuple& from, const std::optional<Tuple>& claimed) override;

 private:
  nwd::fo::NaiveEvaluator eval_;
  const nwd::fo::Query& query_;
  int64_t n_;
};

// One page as received: the answers of `enumerate from=<from> limit=<limit>`.
struct PageRecord {
  Tuple from;
  int64_t limit = 0;
  std::vector<Tuple> answers;
};

// The checks, accumulating into `report`. `what` names the surface.
void CheckTest(Oracle* oracle, const Tuple& t, bool claimed, Report* report,
               const char* what);
void CheckNext(Oracle* oracle, const Tuple& from,
               const std::optional<Tuple>& claimed, Report* report,
               const char* what);
// Each page strictly increasing, each answer the Next of its predecessor's
// successor, and a short page ends the order.
void CheckPage(Oracle* oracle, const PageRecord& page, int64_t n,
               Report* report, const char* what);

// Self-test of the harness: feeds the checker one corrupted test reply
// and one page with a corrupted answer, and confirms both are caught.
// Returns false (and records a mismatch) if the checker let either pass.
bool SelfTest(Oracle* oracle, const Tuple& probe, const PageRecord& page,
              int64_t n, Report* report);

// Parses "ok test <0|1> ..." / "ok next <a,b|none> ..." replies.
bool ParseTestReply(const std::string& head, bool* value);
bool ParseNextReply(const std::string& head, std::optional<Tuple>* value);

}  // namespace frontbench

#endif  // FRONTBENCH_CHECKS_H_
