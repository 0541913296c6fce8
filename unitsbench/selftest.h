#ifndef UNITSBENCH_SELFTEST_H_
#define UNITSBENCH_SELFTEST_H_

#include <string>
#include <vector>

namespace unitsbench {

/// Runs the benchmark's self-tests; returns one message per failed check.
std::vector<std::string> RunSelfTests();

}  // namespace unitsbench

#endif  // UNITSBENCH_SELFTEST_H_
