// temp_dir.hpp — a private scratch directory for one test.
//
// Every test that writes files gets a fresh directory from mkdtemp(3),
// so no two tests share a path: not two fixtures in one process, and not
// two test processes that `ctest -j` runs at once.  (Naming paths by a
// fixture's address cannot promise that: heap layouts repeat across
// processes, notably under ASan.)  The directory and everything in it
// are removed when the TempDir is destroyed.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace upin::test_support {

class TempDir {
 public:
  /// Creates `<system temp dir>/<prefix>XXXXXX`; throws on failure.
  explicit TempDir(std::string_view prefix) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / prefix).string();
    pattern.append("XXXXXX");
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + pattern);
    }
    path_ = std::move(pattern);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// The path of `name` inside the directory (nothing is created).
  [[nodiscard]] std::string file(std::string_view name) const {
    return (std::filesystem::path(path_) / name).string();
  }

 private:
  std::string path_;
};

}  // namespace upin::test_support
