// Per-test scratch file paths.
//
// gtest_discover_tests registers every case as its own ctest test, so
// `ctest -j` runs cases of one suite in parallel processes. A fixed
// TempDir() file name is then written, read and removed by several
// cases at once; naming the file after the running test plus the
// process id gives every case its own file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

/// TempDir()/<Suite>.<Test>.<pid><suffix> for the running test (the
/// '/' of parameterized names is replaced). Valid from fixture
/// construction on.
inline std::string unique_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no-test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + suffix;
}
