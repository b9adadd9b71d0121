// Per-test scratch directories for fixtures that drive the CLI binary.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace owlcl {

/// Creates an empty directory under the gtest temp dir, named after
/// `prefix`, the running test and this process's pid. gtest_discover_tests
/// runs every case as its own process, so cases running in parallel under
/// `ctest -jN` never share, or delete, each other's directories.
inline std::string freshTestDir(const std::string& prefix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (prefix + "-" + info->name() + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace owlcl
