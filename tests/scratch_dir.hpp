#pragma once

// Scratch directories for tests that write files. Each lives under one
// per-process root, <testing::TempDir()>/axonn_<pid>, so concurrent runs of
// a suite never share a path; the root is removed when the process exits.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace axonn {

/// A fresh, empty directory `name` under this process's scratch root.
inline std::filesystem::path scratch_dir(const std::string& name) {
  static const struct Root {
    std::filesystem::path path = std::filesystem::path(::testing::TempDir()) /
                                 ("axonn_" + std::to_string(::getpid()));
    Root() = default;
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } root;
  const std::filesystem::path dir = root.path / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace axonn
