#include "checks.h"

#include <sstream>

#include "serve/wire.h"
#include "util/lex.h"

namespace frontbench {

bool NaiveOracle::IsNext(const Tuple& from,
                         const std::optional<Tuple>& claimed) {
  if (claimed.has_value() && (*claimed < from || !Test(*claimed))) return false;
  Tuple t = from;
  while (!claimed.has_value() || t < *claimed) {
    if (Test(t)) return false;  // a skipped solution
    if (!nwd::LexIncrement(&t, n_)) return !claimed.has_value();
  }
  return true;
}

void CheckTest(Oracle* oracle, const Tuple& t, bool claimed, Report* report,
               const char* what) {
  if (oracle->Test(t) != claimed) {
    report->Mismatch(std::string(what) + ": test " + TupleText(t) + " replied " +
                     (claimed ? "1" : "0"));
  }
}

void CheckNext(Oracle* oracle, const Tuple& from,
               const std::optional<Tuple>& claimed, Report* report,
               const char* what) {
  if (!oracle->IsNext(from, claimed)) {
    report->Mismatch(std::string(what) + ": next " + TupleText(from) +
                     " replied " + (claimed ? TupleText(*claimed) : "none"));
  }
}

void CheckPage(Oracle* oracle, const PageRecord& page, int64_t n,
               Report* report, const char* what) {
  Tuple cursor = page.from;
  bool exhausted = false;
  for (size_t i = 0; i < page.answers.size(); ++i) {
    const Tuple& a = page.answers[i];
    if (exhausted || (i > 0 && !(page.answers[i - 1] < a))) {
      report->Mismatch(std::string(what) + ": page from " +
                       TupleText(page.from) + " not strictly increasing at " +
                       std::to_string(i));
      return;
    }
    if (!oracle->IsNext(cursor, a)) {
      report->Mismatch(std::string(what) + ": page from " +
                       TupleText(page.from) + " answer " + std::to_string(i) +
                       " = " + TupleText(a));
      return;
    }
    cursor = a;
    exhausted = !nwd::LexIncrement(&cursor, n);
  }
  if (static_cast<int64_t>(page.answers.size()) < page.limit && !exhausted &&
      !oracle->IsNext(cursor, std::nullopt)) {
    report->Mismatch(std::string(what) + ": page from " + TupleText(page.from) +
                     " ended early after " +
                     std::to_string(page.answers.size()));
  }
}

bool SelfTest(Oracle* oracle, const Tuple& probe, const PageRecord& page,
              int64_t n, Report* report) {
  Report scratch;
  CheckTest(oracle, probe, !oracle->Test(probe), &scratch, "selftest");
  const bool caught_test = !scratch.correct;

  bool caught_page = true;
  if (page.answers.size() >= 2) {
    // Replace one answer by its successor: either a non-solution or a
    // skip over the true answer, or a duplicate of the next one.
    PageRecord corrupted = page;
    Tuple& victim = corrupted.answers[corrupted.answers.size() / 2];
    nwd::LexIncrement(&victim, n);
    Report page_scratch;
    CheckPage(oracle, corrupted, n, &page_scratch, "selftest");
    caught_page = !page_scratch.correct;
  }
  if (!caught_test || !caught_page) {
    report->Mismatch(std::string("harness self-test: checker missed a corrupted ") +
                     (caught_test ? "page answer" : "test reply"));
    return false;
  }
  return true;
}

bool ParseTestReply(const std::string& head, bool* value) {
  if (head.rfind("ok test ", 0) != 0 || head.size() < 9) return false;
  if (head[8] != '0' && head[8] != '1') return false;
  *value = head[8] == '1';
  return true;
}

bool ParseNextReply(const std::string& head, std::optional<Tuple>* value) {
  if (head.rfind("ok next ", 0) != 0) return false;
  std::istringstream fields(head.substr(8));
  std::string text;
  fields >> text;
  if (text == "none") {
    *value = std::nullopt;
    return true;
  }
  Tuple t;
  if (!nwd::serve::ParseTupleText(text, &t)) return false;
  *value = std::move(t);
  return true;
}

}  // namespace frontbench
