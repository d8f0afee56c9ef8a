#ifndef FRONTBENCH_GEN_H_
#define FRONTBENCH_GEN_H_

#include <cstdint>
#include <string>

namespace frontbench {

// Writes <dir>/graph.txt and <dir>/plan.txt for `workload` from `seed`.
// Returns a process exit code.
int RunGenerator(const std::string& workload, uint64_t seed, int seconds,
                 const std::string& dir);

}  // namespace frontbench

#endif  // FRONTBENCH_GEN_H_
