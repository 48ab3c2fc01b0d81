#include "counting_env.h"

#include <chrono>

namespace perfbench {

using graphitti::util::Result;
using graphitti::util::Status;

class CountingEnv::File : public graphitti::persist::WritableFile {
 public:
  File(CountingEnv* env, std::unique_ptr<graphitti::persist::WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    env_->appended_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Sync() override {
    auto start = std::chrono::steady_clock::now();
    Status s = base_->Sync();
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    env_->syncs_.fetch_add(1, std::memory_order_relaxed);
    env_->sync_ns_.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<graphitti::persist::WritableFile> base_;
};

Result<std::unique_ptr<graphitti::persist::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  auto file = base_->NewWritableFile(path, truncate);
  if (!file.ok()) return file.status();
  return std::unique_ptr<graphitti::persist::WritableFile>(
      new File(this, std::move(file).ValueUnsafe()));
}

Result<std::string> CountingEnv::ReadFileToString(const std::string& path) const {
  auto data = base_->ReadFileToString(path);
  if (data.ok()) read_bytes_.fetch_add(data->size(), std::memory_order_relaxed);
  return data;
}

}  // namespace perfbench
