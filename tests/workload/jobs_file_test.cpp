#include "smr/workload/jobs_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace smr::workload {
namespace {

TEST(JobsCsv, ParsesRowsWithHeader) {
  std::istringstream in(
      "benchmark,input_gib,submit_at,reduce_tasks\n"
      "terasort,30,0\n"
      "grep,8,15,12\n");
  const auto jobs = parse_jobs_csv(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].spec.name, "terasort");
  EXPECT_EQ(jobs[0].spec.input_size, 30 * kGiB);
  EXPECT_DOUBLE_EQ(jobs[0].submit_at, 0.0);
  EXPECT_EQ(jobs[0].spec.reduce_tasks, 30);  // default kept
  EXPECT_EQ(jobs[1].spec.name, "grep");
  EXPECT_DOUBLE_EQ(jobs[1].submit_at, 15.0);
  EXPECT_EQ(jobs[1].spec.reduce_tasks, 12);  // overridden
}

TEST(JobsCsv, HeaderOptionalCommentsAndBlanksIgnored) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "word-count,4,5\n"
      "  # indented comment\n"
      "self-join,2.5,30\n");
  const auto jobs = parse_jobs_csv(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].spec.name, "word-count");
  EXPECT_EQ(jobs[1].spec.input_size,
            static_cast<Bytes>(2.5 * static_cast<double>(kGiB)));
}

TEST(JobsCsv, WhitespaceAroundFieldsTolerated) {
  std::istringstream in(" grep , 8 , 15 \n");
  const auto jobs = parse_jobs_csv(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].spec.name, "grep");
}

TEST(JobsCsv, RejectsUnknownBenchmark) {
  std::istringstream in("frobnicate,8,0\n");
  EXPECT_THROW(parse_jobs_csv(in), SmrError);
}

TEST(JobsCsv, RejectsMalformedNumbers) {
  std::istringstream bad_input("grep,lots,0\n");
  EXPECT_THROW(parse_jobs_csv(bad_input), SmrError);
  std::istringstream bad_submit("grep,8,soon\n");
  EXPECT_THROW(parse_jobs_csv(bad_submit), SmrError);
  std::istringstream negative("grep,8,-5\n");
  EXPECT_THROW(parse_jobs_csv(negative), SmrError);
  std::istringstream zero_input("grep,0,0\n");
  EXPECT_THROW(parse_jobs_csv(zero_input), SmrError);
}

TEST(JobsCsv, RejectsNonFiniteAndOverflowingNumbers) {
  for (const char* row : {"grep,inf,0\n", "grep,1e400,0\n", "grep,nan,0\n",
                          "grep,8,nan\n", "grep,8,inf\n", "grep,1e12,0\n",
                          "grep,8,0,1e10\n", "grep,8,0,-3\n"}) {
    std::istringstream in(row);
    EXPECT_THROW(parse_jobs_csv(in), SmrError) << row;
  }
}

TEST(JobsCsv, RejectsWrongFieldCount) {
  std::istringstream too_few("grep,8\n");
  EXPECT_THROW(parse_jobs_csv(too_few), SmrError);
  std::istringstream too_many("grep,8,0,12,extra\n");
  EXPECT_THROW(parse_jobs_csv(too_many), SmrError);
}

TEST(JobsCsv, EmptyStreamGivesEmptyList) {
  std::istringstream in("");
  EXPECT_TRUE(parse_jobs_csv(in).empty());
}

TEST(JobsCsv, MissingFileThrows) {
  EXPECT_THROW(load_jobs_csv("/no/such/file.csv"), SmrError);
}

}  // namespace
}  // namespace smr::workload
