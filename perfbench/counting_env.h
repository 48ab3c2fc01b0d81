// A persist::Env that forwards to Env::Default() and counts what the
// durability layer asks of the filesystem: bytes appended, file syncs and
// the time they take, and bytes read back. The engine borrows it through
// DurabilityOptions::env, so the benchmark sees WAL and snapshot traffic
// without any hook inside the library.
#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "persist/env.h"

namespace perfbench {

class CountingEnv : public graphitti::persist::Env {
 public:
  struct Counters {
    uint64_t appended_bytes = 0;
    uint64_t syncs = 0;
    uint64_t sync_ns = 0;
    uint64_t read_bytes = 0;
  };

  Counters Snapshot() const {
    return {appended_bytes_.load(), syncs_.load(), sync_ns_.load(), read_bytes_.load()};
  }

  graphitti::util::Result<std::unique_ptr<graphitti::persist::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  graphitti::util::Result<std::string> ReadFileToString(const std::string& path) const override;
  bool FileExists(const std::string& path) const override { return base_->FileExists(path); }
  graphitti::util::Result<std::vector<std::string>> ListDir(
      const std::string& dir) const override {
    return base_->ListDir(dir);
  }
  graphitti::util::Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  graphitti::util::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  graphitti::util::Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  graphitti::util::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  graphitti::util::Status SyncDir(const std::string& dir) override { return base_->SyncDir(dir); }

 private:
  class File;

  graphitti::persist::Env* base_ = graphitti::persist::Env::Default();
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  mutable std::atomic<uint64_t> read_bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
