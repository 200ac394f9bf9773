// The sort entry points' size contract holds in every build type: an input
// (or resume image) that is not one block per node is rejected with
// std::invalid_argument before any fabric reads or copies it.  Without the
// check, a Release build would read past the caller's span on the simulator
// and copy past the input/llbs region into the next one on shm.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sort/sft.h"
#include "sort/snr.h"
#include "util/rng.h"

namespace aoft::sort {
namespace {

constexpr int kDim = 2;
constexpr std::size_t kBlock = 4;
constexpr std::size_t kKeys = (std::size_t{1} << kDim) * kBlock;

template <class Options>
Options on(transport::Backend backend) {
  Options o;
  o.block = kBlock;
  o.backend = backend;
  o.shm.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = 60.0;
  return o;
}

// Runs fn, which must throw std::invalid_argument naming both sizes.
template <class Fn>
void expect_rejected(Fn&& fn, std::size_t got, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": a " << got << "-key image was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected " + std::to_string(kKeys)), std::string::npos)
        << what << ": " << msg;
    EXPECT_NE(msg.find("got " + std::to_string(got)), std::string::npos)
        << what << ": " << msg;
  }
}

class ShmSortSizeContract
    : public ::testing::TestWithParam<transport::Backend> {};

TEST_P(ShmSortSizeContract, ShortAndLongInputsAreRejected) {
  for (const std::size_t n : {kKeys - 1, kKeys + 1, std::size_t{0}}) {
    const auto input = util::random_keys(7, n);
    expect_rejected([&] { run_sft(kDim, input, on<SftOptions>(GetParam())); },
                    n, "run_sft");
    expect_rejected([&] { run_snr(kDim, input, on<SnrOptions>(GetParam())); },
                    n, "run_snr");
  }
}

TEST_P(ShmSortSizeContract, ResumeWithAMismatchedImageIsRejected) {
  SftOptions first = on<SftOptions>(transport::Backend::kSim);
  first.checkpoint = true;
  const auto input = util::random_keys(31, kKeys);
  const auto rs = make_resume_state(run_sft(kDim, input, first).checkpoints);
  ASSERT_TRUE(rs.has_value());
  const SftOptions opts = on<SftOptions>(GetParam());

  ResumeState short_llbs = *rs;
  short_llbs.llbs.pop_back();
  expect_rejected([&] { resume_sft(kDim, short_llbs, opts); }, kKeys - 1,
                  "resume llbs");
  ResumeState long_blocks = *rs;
  long_blocks.blocks.push_back(0);
  expect_rejected([&] { resume_sft(kDim, long_blocks, opts); }, kKeys + 1,
                  "resume blocks");
  ResumeState bad_stage = *rs;
  bad_stage.stage = kDim;
  EXPECT_THROW(resume_sft(kDim, bad_stage, opts), std::invalid_argument);

  // The well-formed image still resumes to the sorted input.
  EXPECT_EQ(classify(resume_sft(kDim, *rs, opts), input), Outcome::kCorrect);
}

INSTANTIATE_TEST_SUITE_P(Backends, ShmSortSizeContract,
                         ::testing::Values(transport::Backend::kSim,
                                           transport::Backend::kShm),
                         [](const auto& info) {
                           return info.param == transport::Backend::kSim
                                      ? std::string("sim")
                                      : std::string("shm");
                         });

}  // namespace
}  // namespace aoft::sort
