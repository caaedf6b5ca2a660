#ifndef CAFC_TESTS_TEST_UTIL_H_
#define CAFC_TESTS_TEST_UTIL_H_

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace cafc::test {

/// A directory private to this test process, under ::testing::TempDir().
///
/// ctest runs every TEST as its own process, often several at once, so a
/// fixed file name shared across processes would let one process's
/// TearDownTestSuite delete another's fixture. Keying the directory by pid
/// keeps each process's files apart. Created on first use; removed at exit
/// when the tests left it empty.
inline const std::string& ProcessTempDir() {
  // Never destroyed, so the exit hook below can still read it.
  static const std::string* const dir = [] {
    auto* path = new std::string(std::string(::testing::TempDir()) +
                                 "/cafc_test." + std::to_string(::getpid()));
    ::mkdir(path->c_str(), 0700);
    std::atexit([] { ::rmdir(ProcessTempDir().c_str()); });
    return path;
  }();
  return *dir;
}

/// Path of `name` inside ProcessTempDir().
inline std::string TempPath(std::string_view name) {
  return ProcessTempDir() + "/" + std::string(name);
}

}  // namespace cafc::test

#endif  // CAFC_TESTS_TEST_UTIL_H_
