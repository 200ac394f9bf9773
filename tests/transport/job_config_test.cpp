// The job configuration both process fabrics carry (docs/PROTOCOL.md §11.1,
// §13.2): every JobConfig field must survive the shm segment header and the
// tcp CONFIG frame, and every decode point must refuse a job that
// job_config_error() rejects — a segment header or CONFIG frame is outside
// input.  The CONFIG cases run node 0's real TcpNodeEndpoint in a forked
// child against a fake parent: the test's own listener, which answers the
// node's HELLO with a hand-built CONFIG.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "transport/frame.h"
#include "transport/shm_segment.h"
#include "transport/tcp_transport.h"

namespace aoft::transport {
namespace {

// A valid job with every field away from its default.
JobConfig full_job() {
  JobConfig job;
  job.dim = 3;
  job.start_stage = 2;
  job.block = 5;
  job.algo = 1;
  job.checkpoint = 1;
  job.record_events = 1;
  job.with_resume = 1;
  job.check_progress = 0;
  job.check_feasibility = 0;
  job.check_consistency = 0;
  job.check_exchange = 0;
  job.recv_timeout_s = 7.25;
  job.cost = {1.5, 2.5, 0.5, 3.5, 4.5, 0.25, 2.0, 0.75, 0.125, 0.0625};
  return job;
}

bool same_job(const JobConfig& a, const JobConfig& b) {
  return a.dim == b.dim && a.start_stage == b.start_stage &&
         a.block == b.block && a.algo == b.algo &&
         a.checkpoint == b.checkpoint && a.record_events == b.record_events &&
         a.with_resume == b.with_resume &&
         a.check_progress == b.check_progress &&
         a.check_feasibility == b.check_feasibility &&
         a.check_consistency == b.check_consistency &&
         a.check_exchange == b.check_exchange &&
         a.recv_timeout_s == b.recv_timeout_s &&
         std::memcmp(&a.cost, &b.cost, sizeof a.cost) == 0;
}

// A CONFIG head the node accepts: a dim-2, block-3 S_FT job for node 0.
TcpConfigHead valid_head() {
  TcpConfigHead head;
  std::memcpy(head.magic, kTcpMagic, sizeof head.magic);
  head.version = kTcpConfigVersion;
  head.for_node = 0;
  head.dim = 2;
  head.block = 3;
  return head;
}

// Runs node 0's endpoint in a forked child against a fake parent that
// answers its HELLO with `head` and a zeroed tail of the size `head` implies.
// Returns the child's exit code: 0 when the endpoint accepted the CONFIG and
// `check` held, 1 when `check` failed, 2 when the endpoint threw.
int run_against_fake_parent(
    const TcpConfigHead& head,
    const std::function<bool(const TcpNodeEndpoint&)>& check) {
  TcpListener listener("127.0.0.1", 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    int rc = 2;
    try {
      TcpNodeEndpoint ep(0, "127.0.0.1", listener.port(), "127.0.0.1", 0, 5.0);
      rc = check(ep) ? 0 : 1;
    } catch (const std::exception&) {
    }
    ::_exit(rc);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto wait_on = [](int fd, short events) {
    pollfd pf{fd, events, 0};
    ::poll(&pf, 1, 50);
  };
  std::optional<TcpConn> conn;
  while (!conn && std::chrono::steady_clock::now() < deadline) {
    conn = listener.accept_one();
    if (!conn) wait_on(listener.fd(), POLLIN);
  }
  bool hello = false;
  while (conn && !hello && std::chrono::steady_clock::now() < deadline) {
    conn->read_some();
    if (auto f = conn->reader().next())
      hello = f->type == FrameType::kHello;
    else
      wait_on(conn->fd(), POLLIN);
  }
  if (hello) {
    std::vector<unsigned char> payload(config_frame_bytes(
        static_cast<int>(head.dim), head.block, head.with_resume != 0));
    std::memcpy(payload.data(), &head, sizeof head);
    conn->queue_frame(FrameType::kConfig, payload);
    while (!conn->flush() && std::chrono::steady_clock::now() < deadline)
      wait_on(conn->fd(), POLLOUT);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(JobConfig, ValidationRules) {
  const JobConfig ok = full_job();
  EXPECT_EQ(job_config_error(ok), "");
  EXPECT_EQ(job_config_error(JobConfig{}), "") << "a single-node S_FT job";

  JobConfig j = ok;
  j.dim = kMaxProcessDim + 1;
  EXPECT_NE(job_config_error(j), "");
  j = ok;
  j.block = 0;
  EXPECT_NE(job_config_error(j), "");
  j = ok;
  j.algo = 2;
  EXPECT_NE(job_config_error(j), "");
  j = ok;
  j.start_stage = -1;
  EXPECT_NE(job_config_error(j), "");
  j = ok;
  j.start_stage = static_cast<std::int32_t>(j.dim);
  EXPECT_NE(job_config_error(j), "");
  j = ok;
  j.with_resume = 0;  // start_stage 2 needs its resume image
  EXPECT_NE(job_config_error(j), "");
  j = ok;
  j.start_stage = 0;  // an image nobody resumes from
  EXPECT_NE(job_config_error(j), "");
}

TEST(JobConfig, DefaultTcpHeadWithABlockIsAnSftJob) {
  TcpConfigHead head;
  head.block = 64;
  EXPECT_EQ(job_config_error(head), "");
  EXPECT_EQ(head.algo, 0);
}

TEST(JobConfig, RoundTripsThroughTheSegmentHeader) {
  ShmSegment::Config cfg;
  static_cast<JobConfig&>(cfg) = full_job();
  auto seg = ShmSegment::create(cfg);
  EXPECT_TRUE(same_job(seg.header(), full_job()));
  auto other = ShmSegment::attach(seg.name());
  EXPECT_TRUE(same_job(other.header(), full_job()));
}

TEST(JobConfig, RoundTripsThroughTheConfigFrame) {
  TcpConfigHead head = valid_head();
  static_cast<JobConfig&>(head) = full_job();
  const JobConfig want = full_job();
  EXPECT_EQ(run_against_fake_parent(head, [&](const TcpNodeEndpoint& ep) {
              const std::size_t keys =
                  (std::size_t{1} << want.dim) * want.block;
              return same_job(ep.config(), want) &&
                     ep.input().size() == keys && ep.llbs().size() == keys;
            }),
            0);
}

TEST(TcpConfig, NodeAcceptsAValidHead) {
  EXPECT_EQ(run_against_fake_parent(valid_head(),
                                    [](const TcpNodeEndpoint& ep) {
                                      return ep.config().block == 3;
                                    }),
            0);
}

TEST(TcpConfig, NodeRejectsAWrongVersion) {
  TcpConfigHead head = valid_head();
  head.version = kTcpConfigVersion + 1;
  EXPECT_EQ(run_against_fake_parent(head, [](const TcpNodeEndpoint&) {
              return true;
            }),
            2);
}

TEST(TcpConfig, NodeRejectsAResumeWithoutItsImage) {
  TcpConfigHead head = valid_head();
  head.start_stage = 1;
  head.with_resume = 0;
  EXPECT_EQ(run_against_fake_parent(head, [](const TcpNodeEndpoint&) {
              return true;
            }),
            2);
}

TEST(ShmSegment, AttachRejectsAnUnknownAlgorithm) {
  ShmSegment::Config cfg;
  cfg.dim = 2;
  auto seg = ShmSegment::create(cfg);
  EXPECT_NO_THROW(ShmSegment::attach(seg.name()));
  seg.header().algo = 7;
  EXPECT_THROW(ShmSegment::attach(seg.name()), std::runtime_error);
}

TEST(ShmSegment, AttachRejectsAResumeWithoutItsImage) {
  ShmSegment::Config cfg;
  cfg.dim = 2;
  auto seg = ShmSegment::create(cfg);
  seg.header().start_stage = 1;
  seg.header().with_resume = 0;
  EXPECT_THROW(ShmSegment::attach(seg.name()), std::runtime_error);
}

}  // namespace
}  // namespace aoft::transport
