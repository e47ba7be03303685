#include "smr/common/log.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "smr/common/thread_pool.hpp"

namespace smr {
namespace {

// The logger is a process-wide singleton; tests save and restore its level.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = Logger::instance().level(); }
  void TearDown() override { Logger::instance().set_level(saved_level_); }
  LogLevel saved_level_ = LogLevel::kWarn;
};

TEST_F(LogTest, DefaultLevelSuppressesDebug) {
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kDebug));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kWarn));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
}

TEST_F(LogTest, LevelOrderingIsTotal) {
  Logger::instance().set_level(LogLevel::kTrace);
  for (auto level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                     LogLevel::kWarn, LogLevel::kError}) {
    EXPECT_TRUE(Logger::instance().enabled(level));
  }
  Logger::instance().set_level(LogLevel::kOff);
  for (auto level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                     LogLevel::kWarn, LogLevel::kError}) {
    EXPECT_FALSE(Logger::instance().enabled(level));
  }
}

TEST_F(LogTest, NamesAreDistinct) {
  EXPECT_STREQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
  EXPECT_STRNE(log_level_name(LogLevel::kInfo), log_level_name(LogLevel::kWarn));
}

TEST_F(LogTest, MacroDoesNotEvaluateStreamWhenDisabled) {
  Logger::instance().set_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  SMR_DEBUG("value " << expensive());
  EXPECT_EQ(evaluations, 0);
  SMR_ERROR("value " << expensive());  // enabled: evaluated once (to stderr)
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, DisabledMacrosEmitNothingUnderConcurrency) {
  // Serialisation of actual emission is exercised by smr_figures (parallel
  // simulations log warnings); here we hammer the disabled path from many
  // threads and assert no stream expression ever runs.
  Logger::instance().set_level(LogLevel::kOff);
  std::atomic<int> evaluations{0};
  parallel_for(0, 64, [&evaluations](std::size_t) {
    for (int i = 0; i < 100; ++i) {
      SMR_WARN("never " << evaluations.fetch_add(1));
    }
  });
  EXPECT_EQ(evaluations.load(), 0);
}

}  // namespace
}  // namespace smr
