#include "timing_vfs.hpp"

#include <chrono>
#include <fstream>

#include "support.hpp"

namespace perfbench {

namespace {

std::uint64_t elapsed_ns(WallClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                           start)
          .count());
}

class TimingFile final : public docdb::File {
 public:
  TimingFile(std::unique_ptr<docdb::File> inner, VfsCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  util::Status append(std::string_view data) override {
    const auto start = WallClock::now();
    util::Status status = inner_->append(data);
    counters_.append_ns += elapsed_ns(start);
    ++counters_.appends;
    counters_.append_bytes += data.size();
    return status;
  }
  util::Status flush() override { return inner_->flush(); }
  util::Status sync() override {
    const auto start = WallClock::now();
    util::Status status = inner_->sync();
    counters_.sync_ns += elapsed_ns(start);
    ++counters_.syncs;
    return status;
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const noexcept override {
    return inner_->is_open();
  }

 private:
  std::unique_ptr<docdb::File> inner_;
  VfsCounters& counters_;
};

}  // namespace

util::Result<std::unique_ptr<docdb::File>> TimingVfs::open_append(
    const std::string& path) {
  util::Result<std::unique_ptr<docdb::File>> file = inner_.open_append(path);
  if (!file.ok()) return file;
  return std::unique_ptr<docdb::File>(
      std::make_unique<TimingFile>(std::move(file).value(), counters_));
}

util::Result<std::unique_ptr<docdb::File>> TimingVfs::open_trunc(
    const std::string& path) {
  util::Result<std::unique_ptr<docdb::File>> file = inner_.open_trunc(path);
  if (!file.ok()) return file;
  return std::unique_ptr<docdb::File>(
      std::make_unique<TimingFile>(std::move(file).value(), counters_));
}

util::Status TimingVfs::rename(const std::string& from, const std::string& to) {
  return inner_.rename(from, to);
}

util::Status TimingVfs::sync_parent_dir(const std::string& path) {
  return inner_.sync_parent_dir(path);
}

util::Status TimingVfs::truncate(const std::string& path, std::uint64_t size) {
  return inner_.truncate(path, size);
}

util::Status TimingVfs::remove(const std::string& path) {
  return inner_.remove(path);
}

JournalScan scan_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot read journal " + path);
  constexpr std::string_view kColl = "\"coll\":\"";
  JournalScan scan;
  std::string line;
  while (std::getline(in, line)) {
    const std::uint64_t size = line.size() + 1;  // the newline
    scan.total_bytes += size;
    ++scan.records;
    // Records are framed "crc32=XXXXXXXX {"op":...,"coll":"<name>",...}";
    // the first "coll" key is the record's own, ahead of any document.
    const std::size_t at = line.find(kColl);
    require(at != std::string::npos, "journal line without a collection");
    const std::size_t name_start = at + kColl.size();
    const std::size_t name_end = line.find('"', name_start);
    require(name_end != std::string::npos, "truncated journal line");
    scan.bytes[line.substr(name_start, name_end - name_start)] += size;
  }
  return scan;
}

}  // namespace perfbench
