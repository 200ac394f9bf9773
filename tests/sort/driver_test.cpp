#include "sort/driver.h"

#include <gtest/gtest.h>

namespace aoft::sort {
namespace {

SortRun make_run(std::vector<Key> out) {
  SortRun r;
  r.output = std::move(out);
  return r;
}

TEST(ClassifyTest, CorrectRun) {
  const std::vector<Key> input{3, 1, 2};
  EXPECT_EQ(classify(make_run({1, 2, 3}), input), Outcome::kCorrect);
}

TEST(ClassifyTest, FailStopWinsOverOutput) {
  const std::vector<Key> input{3, 1, 2};
  auto run = make_run({1, 2, 3});
  run.errors.push_back({0, 1, 0, sim::ErrorSource::kPhiC, "x"});
  EXPECT_EQ(classify(run, input), Outcome::kFailStop);
}

TEST(ClassifyTest, UnsortedOutputIsSilentWrong) {
  const std::vector<Key> input{3, 1, 2};
  EXPECT_EQ(classify(make_run({2, 1, 3}), input), Outcome::kSilentWrong);
}

TEST(ClassifyTest, NonPermutationIsSilentWrong) {
  const std::vector<Key> input{3, 1, 2};
  EXPECT_EQ(classify(make_run({1, 2, 4}), input), Outcome::kSilentWrong);
}

TEST(ClassifyTest, SizeMismatchIsSilentWrong) {
  const std::vector<Key> input{3, 1, 2};
  EXPECT_EQ(classify(make_run({1, 2}), input), Outcome::kSilentWrong);
}

TEST(ClassifyTest, DuplicateAwarePermutationCheck) {
  const std::vector<Key> input{2, 2, 1};
  EXPECT_EQ(classify(make_run({1, 2, 2}), input), Outcome::kCorrect);
  EXPECT_EQ(classify(make_run({1, 1, 2}), input), Outcome::kSilentWrong);
}

TEST(ClassifyTest, SortedOutputOfAnotherMultisetIsSilentWrong) {
  // The output is already non-decreasing, so only the input gets sorted;
  // the comparison must still catch a swapped multiplicity or an equal sum.
  EXPECT_EQ(classify(make_run({1, 1, 2}), std::vector<Key>{1, 2, 2}),
            Outcome::kSilentWrong);
  EXPECT_EQ(classify(make_run({0, 2, 4}), std::vector<Key>{3, 2, 1}),
            Outcome::kSilentWrong);
}

TEST(ClassifyTest, DeathWithoutErrorsIsFailStop) {
  const std::vector<Key> input{3, 1, 2};
  auto run = make_run({1, 2, 3});
  run.deaths.push_back({1, transport::DeathCause::kExit});
  EXPECT_TRUE(run.fail_stop());
  EXPECT_EQ(classify(run, input), Outcome::kFailStop);
}

TEST(OutcomeTest, Names) {
  EXPECT_STREQ(to_string(Outcome::kCorrect), "correct");
  EXPECT_STREQ(to_string(Outcome::kFailStop), "fail-stop");
  EXPECT_STREQ(to_string(Outcome::kSilentWrong), "SILENT-WRONG");
}

}  // namespace
}  // namespace aoft::sort
