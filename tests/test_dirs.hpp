// Shared test scaffolding: per-test scratch directories and fault arming.
//
// gtest_discover_tests runs every test in its own process, and ctest -jN
// runs those processes concurrently and (with --schedule-random) in any
// order.  A directory numbered only by a per-process counter is therefore
// handed to every concurrently running test at once.  fresh_dir keys the
// path by the process id and the running test's name; the counter only
// separates the directories one test asks for.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "util/fault.hpp"

namespace dramstress::test {

/// An empty directory under the gtest temp dir, unique to this process,
/// this test and this call.
inline std::string fresh_dir(const std::string& hint) {
  static int counter = 0;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("none")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : test)
    if (c == '/') c = '_';  // parameterized names
  const std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) /
      (hint + "_" + std::to_string(::getpid()) + "_" + test + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// RAII fault arming (util/fault.hpp), so a failing test never leaks an
/// armed fault into the next one.
struct ArmedFault {
  explicit ArmedFault(const std::string& spec) { util::fault::arm(spec); }
  ~ArmedFault() { util::fault::disarm(); }
  ArmedFault(const ArmedFault&) = delete;
  ArmedFault& operator=(const ArmedFault&) = delete;
};

/// Fault spec that fails the first `attempts` unit computations
/// (`campaign.unit.compute=throw@1,...,throw@attempts`).
inline std::string failing_computes(int attempts) {
  std::string spec;
  for (int n = 1; n <= attempts; ++n) {
    if (!spec.empty()) spec += ',';
    spec += "campaign.unit.compute=throw@" + std::to_string(n);
  }
  return spec;
}

}  // namespace dramstress::test
