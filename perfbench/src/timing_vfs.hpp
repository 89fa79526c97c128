// timing_vfs.hpp — a docdb::Vfs decorator that times the journal's I/O.
//
// Every call is forwarded unchanged to the wrapped backend (none is
// skipped, merged or reordered); appends and syncs are counted and timed
// on the way through.  The journal writer thread and the mutating
// threads both reach it, so the counters are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "docdb/vfs.hpp"

namespace perfbench {

struct VfsCounters {
  std::atomic<std::uint64_t> appends{0};
  std::atomic<std::uint64_t> append_bytes{0};
  std::atomic<std::uint64_t> append_ns{0};
  std::atomic<std::uint64_t> syncs{0};
  std::atomic<std::uint64_t> sync_ns{0};
};

class TimingVfs final : public upin::docdb::Vfs {
 public:
  explicit TimingVfs(upin::docdb::Vfs& inner) : inner_(inner) {}

  [[nodiscard]] upin::util::Result<std::unique_ptr<upin::docdb::File>>
  open_append(const std::string& path) override;
  [[nodiscard]] upin::util::Result<std::unique_ptr<upin::docdb::File>>
  open_trunc(const std::string& path) override;
  [[nodiscard]] upin::util::Status rename(const std::string& from,
                                          const std::string& to) override;
  [[nodiscard]] upin::util::Status sync_parent_dir(
      const std::string& path) override;
  [[nodiscard]] upin::util::Status truncate(const std::string& path,
                                            std::uint64_t size) override;
  [[nodiscard]] upin::util::Status remove(const std::string& path) override;

  [[nodiscard]] const VfsCounters& counters() const noexcept {
    return counters_;
  }

 private:
  upin::docdb::Vfs& inner_;
  VfsCounters counters_;
};

/// What a line scan of a closed journal finds.
struct JournalScan {
  std::map<std::string, std::uint64_t> bytes;  ///< per collection
  std::uint64_t total_bytes = 0;
  std::uint64_t records = 0;
};
[[nodiscard]] JournalScan scan_journal(const std::string& path);

}  // namespace perfbench
