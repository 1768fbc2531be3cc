#include "hetscale/support/log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace hetscale {
namespace {

/// Swap std::clog's buffer for the test's lifetime.
class ClogCapture {
 public:
  ClogCapture() : old_(std::clog.rdbuf(buffer_.rdbuf())) {}
  ~ClogCapture() { std::clog.rdbuf(old_); }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

TEST(Log, ConcurrentWritersDoNotShearLines) {
  ClogCapture capture;

  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        HETSCALE_WARN("thread " << t << " line " << i << " payload "
                                << "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every emitted line must be whole: correct prefix, correct tail, and
  // exactly kThreads * kLines of them.
  std::istringstream lines(capture.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.rfind("[hetscale WARN] thread ", 0), 0u) << line;
    EXPECT_NE(line.find("payload xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

}  // namespace
}  // namespace hetscale
