// RecordLog: failed appends (a full disk, simulated with RLIMIT_FSIZE) are
// reported, counted and cut back off the file, and the checkpoint manager
// surfaces them instead of failing silently.
#include "robust/record_log.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include "robust/checkpoint.hpp"

namespace owlcl {
namespace {

namespace fs = std::filesystem;

std::string tempDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Caps the size of files this process writes, with SIGXFSZ ignored so an
/// oversized write fails with EFBIG instead of killing the process. The
/// limit and the signal disposition are process-wide: both are restored on
/// scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    oldHandler_ = std::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &old_);
    rlimit lim = old_;
    lim.rlim_cur = bytes;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &lim) == 0;
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, oldHandler_);
  }
  bool ok() const { return ok_; }

 private:
  rlimit old_{};
  void (*oldHandler_)(int) = SIG_DFL;
  bool ok_ = false;
};

std::size_t fourByteBody(const unsigned char*) { return 4; }

constexpr RecordLogFormat kTestFormat{
    "test log",
    {'T', 'E', 'S', 'T', 'L', 'O', 'G', '1'},
    /*version=*/1,
    {"run", nullptr},
    /*headBytes=*/4,
    fourByteBody,
    CrashPoint::kNone,
    CrashPoint::kNone,
};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;
constexpr std::size_t kFrameBytes = 4 + 4;

std::vector<unsigned char> body(unsigned char b) { return {b, b, b, b}; }

TEST(RecordLog, AppendPastFileSizeLimitFailsIsCountedAndCutBack) {
  const std::string path = tempDir("rlog-fsize") + "/test.log";
  RecordLog log(kTestFormat);
  std::string err;
  ASSERT_TRUE(log.open(path, {7}, FsyncPolicy::kNever, /*truncate=*/true,
                       &err))
      << err;
  {
    // Room for two frames and three bytes of a third.
    FileSizeLimit limit(kHeaderBytes + 2 * kFrameBytes + 3);
    ASSERT_TRUE(limit.ok());
    EXPECT_TRUE(log.append(body(1), &err)) << err;
    EXPECT_TRUE(log.append(body(2), &err)) << err;
    EXPECT_FALSE(log.append(body(3), &err));
    EXPECT_NE(err.find("test log append failed"), std::string::npos) << err;
    EXPECT_EQ(log.failedAppends(), 1u);
    EXPECT_EQ(log.appendCount(), 3u);
    // The partial frame is cut back off the file.
    EXPECT_EQ(fs::file_size(path), kHeaderBytes + 2 * kFrameBytes);
  }
  // Once there is room again, appends extend the valid prefix.
  EXPECT_TRUE(log.append(body(4), &err)) << err;
  log.close();

  std::vector<unsigned char> seen;
  ASSERT_TRUE(RecordLog::replay(
      kTestFormat, path, {7},
      [&seen](const unsigned char* b, std::size_t len) {
        ASSERT_EQ(len, 4u);
        seen.push_back(b[0]);
      },
      &err))
      << err;
  EXPECT_EQ(seen, (std::vector<unsigned char>{1, 2, 4}));
}

TEST(RecordLog, HeaderThatCannotBeWrittenFailsOpen) {
  const std::string path = tempDir("rlog-hdr") + "/test.log";
  RecordLog log(kTestFormat);
  std::string err;
  FileSizeLimit limit(kHeaderBytes - 1);
  ASSERT_TRUE(limit.ok());
  EXPECT_FALSE(log.open(path, {7}, FsyncPolicy::kNever, /*truncate=*/true,
                        &err));
  EXPECT_NE(err.find("cannot write test log header"), std::string::npos)
      << err;
  EXPECT_FALSE(log.isOpen());
}

TEST(CheckpointManager, FullDiskIsCountedAndReported) {
  CheckpointConfig conf;
  conf.dir = tempDir("mgr-fsize");
  CheckpointManager mgr(conf, 1, 2);
  std::string err;
  ASSERT_TRUE(mgr.beginFresh(&err)) << err;
  ClassifierCheckpoint ckpt;
  ckpt.store.conceptCount = 1;
  ckpt.store.pWords = ckpt.store.kWords = ckpt.store.testedWords = {0};
  ckpt.store.sat = {0};
  {
    // The journal header already fills the allowance.
    FileSizeLimit limit(ResultJournal::kHeaderBytes);
    ASSERT_TRUE(limit.ok());
    mgr.recordSettled(SettledKind::kSatTrue, 0, 0, 0);
    mgr.recordSettled(SettledKind::kSatTrue, 0, 0, 0);
    mgr.epochBarrier({}, [&ckpt] { return ckpt; });
  }
  EXPECT_EQ(mgr.journalAppends(), 2u);
  EXPECT_EQ(mgr.failedJournalAppends(), 2u);
  EXPECT_EQ(mgr.snapshotsWritten(), 0u);
  EXPECT_NE(mgr.lastError().find("snapshot"), std::string::npos)
      << mgr.lastError();
}

}  // namespace
}  // namespace owlcl
