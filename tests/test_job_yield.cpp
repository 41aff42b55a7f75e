// Job slices that end at a candidate boundary when a request is waiting
// (DESIGN.md section 15): jobs::Scheduler::step(should_yield) asks its
// predicate after each evaluated candidate, never ends a slice past a
// checkpoint boundary, and runs a full slice when it had to build the
// search context. None of this may move a byte: a candidate is a pure
// function of (seed, index), so the final subset, the progress records
// and the checkpoint counts equal an unyielded run's.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "jobs/checkpoint.hpp"
#include "jobs/job.hpp"
#include "jobs/scheduler.hpp"
#include "jobs/search.hpp"
#include "serve/backend.hpp"
#include "serve/server.hpp"
#include "stats/rng.hpp"

namespace fs = std::filesystem;
using namespace perspector;
using jobs::JobSpec;
using jobs::JobState;
using jobs::Scheduler;
using jobs::SchedulerOptions;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/perspector_yield_" + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

JobSpec small_spec(std::uint64_t candidates, std::uint64_t seed) {
  JobSpec spec;
  spec.builtin = "nbench";
  spec.instructions = 2000;
  spec.target_size = 4;
  spec.candidates = candidates;
  spec.seed = seed;
  return spec;
}

std::uint64_t evaluated(Scheduler& scheduler, const std::string& id) {
  const auto status = scheduler.status(id);
  EXPECT_TRUE(status.has_value());
  return status ? status->evaluated : 0;
}

/// (state, evaluated) of every record in a job's checkpoint log, oldest
/// first, read straight from the frames the log appends.
std::vector<std::pair<JobState, std::uint64_t>> checkpoint_records(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(file),
                          std::istreambuf_iterator<char>()};
  struct {
    std::uint32_t magic;
    std::uint32_t payload_len;
    std::uint64_t seq;
    std::uint64_t checksum;
  } header;
  static_assert(sizeof header == 24);
  std::vector<std::pair<JobState, std::uint64_t>> records;
  std::size_t offset = 0;
  while (offset + sizeof header <= bytes.size()) {
    std::memcpy(&header, bytes.data() + offset, sizeof header);
    offset += sizeof header;
    const auto checkpoint = jobs::decode_checkpoint(
        std::string_view(bytes).substr(offset, header.payload_len));
    EXPECT_TRUE(checkpoint.has_value()) << path << " @" << offset;
    if (!checkpoint) break;
    records.emplace_back(checkpoint->state, checkpoint->evaluated);
    offset += header.payload_len;
  }
  EXPECT_EQ(offset, bytes.size()) << path;
  return records;
}

/// Drives every job to a terminal state through step(should_yield).
void drain_yielding(Scheduler& scheduler,
                    const std::function<bool()>& should_yield) {
  for (int i = 0; i < 10000 && scheduler.runnable(); ++i) {
    scheduler.step(should_yield);
  }
  EXPECT_FALSE(scheduler.runnable());
}

void expect_same_job(Scheduler& a, Scheduler& b, const std::string& id) {
  const auto status_a = a.status(id);
  const auto status_b = b.status(id);
  ASSERT_TRUE(status_a && status_b);
  EXPECT_EQ(status_a->state, JobState::Done);
  EXPECT_EQ(status_b->state, JobState::Done);
  EXPECT_EQ(status_a->evaluated, status_b->evaluated);
  EXPECT_EQ(status_a->best, status_b->best);
  const auto watch_a = a.watch(id, 1);
  const auto watch_b = b.watch(id, 1);
  ASSERT_TRUE(watch_a && watch_b);
  EXPECT_EQ(watch_a->next, watch_b->next);
  ASSERT_EQ(watch_a->progress.size(), watch_b->progress.size());
  for (std::size_t i = 0; i < watch_a->progress.size(); ++i) {
    const auto& pa = watch_a->progress[i];
    const auto& pb = watch_b->progress[i];
    EXPECT_EQ(pa.seq, pb.seq);
    EXPECT_EQ(pa.evaluated, pb.evaluated);
    EXPECT_EQ(pa.total, pb.total);
    EXPECT_EQ(pa.best, pb.best);
  }
}

}  // namespace

TEST(JobYield, AlwaysYieldingRunsOneCandidatePerStepWithIdenticalBytes) {
  const JobSpec spec = small_spec(21, 5);
  Scheduler plain(SchedulerOptions{});
  const auto plain_submit = plain.submit(spec);
  ASSERT_TRUE(plain_submit.ok);
  plain.drain();

  Scheduler yielding(SchedulerOptions{});
  const auto submit = yielding.submit(spec);
  ASSERT_TRUE(submit.ok);
  ASSERT_EQ(submit.id, plain_submit.id);
  const auto always = [] { return true; };
  yielding.step(always);  // builds the context: a full slice
  std::uint64_t before = evaluated(yielding, submit.id);
  EXPECT_EQ(before, SchedulerOptions{}.slice_candidates);
  while (yielding.runnable()) {
    yielding.step(always);
    const std::uint64_t after = evaluated(yielding, submit.id);
    ASSERT_EQ(after, before + 1);
    before = after;
  }
  expect_same_job(plain, yielding, submit.id);
}

TEST(JobYield, ContextBuildingStepRunsAFullSlice) {
  SchedulerOptions options;
  options.slice_candidates = 6;
  options.checkpoint_every = 0;
  Scheduler scheduler(options);
  const auto submit = scheduler.submit(small_spec(20, 7));
  ASSERT_TRUE(submit.ok);
  int asked = 0;
  const auto always = [&] {
    ++asked;
    return true;
  };
  scheduler.step(always);
  EXPECT_EQ(evaluated(scheduler, submit.id), 6u);
  EXPECT_EQ(asked, 0) << "a context-building step must not ask to yield";
  scheduler.step(always);
  EXPECT_EQ(evaluated(scheduler, submit.id), 7u);
  EXPECT_EQ(asked, 1);

  // A second job on the same suite finds the context built: its first
  // step is an ordinary one and yields after one candidate.
  const auto second = scheduler.submit(small_spec(20, 8));
  ASSERT_TRUE(second.ok);
  const std::uint64_t total_before = evaluated(scheduler, submit.id) +
                                     evaluated(scheduler, second.id);
  scheduler.step(always);
  scheduler.step(always);
  EXPECT_EQ(evaluated(scheduler, submit.id) + evaluated(scheduler, second.id),
            total_before + 2);
}

TEST(JobYield, SeededYieldsKeepCheckpointsAndResume) {
  SchedulerOptions base;
  base.slice_candidates = 4;
  base.checkpoint_every = 8;
  const JobSpec spec = small_spec(30, 11);
  const jobs::BestCandidate reference = jobs::run_search(spec);

  // Uninterrupted, unyielded: the checkpoint counts of record.
  SchedulerOptions plain_options = base;
  plain_options.checkpoint_dir = fresh_dir("plain");
  Scheduler plain(plain_options);
  const auto submit = plain.submit(spec);
  ASSERT_TRUE(submit.ok);
  plain.drain();
  const std::string log_name = "/job-" + submit.id + ".ckpt";
  const auto plain_records =
      checkpoint_records(plain_options.checkpoint_dir + log_name);

  // Uninterrupted, yielding at seeded random candidates.
  stats::Rng rng(2024);
  const auto coin = [&] { return rng.uniform() < 0.5; };
  SchedulerOptions yield_options = base;
  yield_options.checkpoint_dir = fresh_dir("yield");
  Scheduler yielding(yield_options);
  ASSERT_TRUE(yielding.submit(spec).ok);
  drain_yielding(yielding, coin);
  expect_same_job(plain, yielding, submit.id);
  const auto yield_records =
      checkpoint_records(yield_options.checkpoint_dir + log_name);
  EXPECT_EQ(yield_records, plain_records);
  for (const auto& [state, count] : yield_records) {
    if (!jobs::is_terminal(state)) {
      EXPECT_EQ(count % base.checkpoint_every, 0u) << count;
    }
  }

  // Killed after a few yielding steps, resumed from the log.
  SchedulerOptions resume_options = base;
  resume_options.checkpoint_dir = fresh_dir("resume");
  {
    Scheduler interrupted(resume_options);
    ASSERT_TRUE(interrupted.submit(spec).ok);
    for (int i = 0; i < 5; ++i) interrupted.step(coin);
    EXPECT_LT(evaluated(interrupted, submit.id), spec.candidates);
  }
  for (const auto& [state, count] :
       checkpoint_records(resume_options.checkpoint_dir + log_name)) {
    EXPECT_EQ(count % base.checkpoint_every, 0u) << count;
  }
  Scheduler resumed(resume_options);
  const auto recovered = resumed.status(submit.id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->resumed);
  drain_yielding(resumed, coin);
  const auto final_status = resumed.status(submit.id);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->state, JobState::Done);
  EXPECT_EQ(final_status->best, reference);
}

namespace {

/// A backend whose only work is a job that asks the session's yield
/// predicate, writes a request into the session's input, and asks again.
class YieldProbe : public serve::ScoreBackend {
 public:
  explicit YieldProbe(int request_fd) : request_fd_(request_fd) {}

  serve::ScoreResponse score(const serve::ScoreRequest& request) override {
    serve::ScoreResponse response;
    response.id = request.id;
    return response;
  }
  std::vector<serve::ScoreResponse> score_batch(
      const std::vector<serve::ScoreRequest>& requests) override {
    std::vector<serve::ScoreResponse> responses;
    for (const auto& request : requests) responses.push_back(score(request));
    return responses;
  }
  serve::Key128 content_key(const serve::ScoreRequest&) override {
    return {};
  }
  std::string metrics_line(const std::string&) override { return {}; }
  std::string stats_line(const std::string&) override { return {}; }
  std::string shard_stats_line(const std::string&) override { return {}; }

  bool jobs_runnable() override { return steps < 2; }
  void jobs_step(const std::function<bool()>& should_yield) override {
    if (++steps != 1) return;
    EXPECT_TRUE(should_yield);
    if (!should_yield) {
      ::close(request_fd_);  // end the session instead of spinning
      return;
    }
    yield_before_request = should_yield();
    const std::string line = "{\"id\":\"p\",\"op\":\"ping\"}\n";
    ASSERT_EQ(::write(request_fd_, line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
    ::close(request_fd_);
    yield_with_request = should_yield();
  }

  int steps = 0;
  bool yield_before_request = true;
  bool yield_with_request = false;

 private:
  const int request_fd_;
};

}  // namespace

TEST(JobYield, ServeSessionYieldsWhenARequestIsWaiting) {
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  YieldProbe probe(in[1]);
  serve::SessionOptions options;
  run_session(probe, in[0], out[1], options);
  ::close(in[0]);
  ::close(out[1]);
  std::string responses;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(out[0], chunk, sizeof chunk)) > 0) {
    responses.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out[0]);

  EXPECT_EQ(probe.steps, 2);
  EXPECT_FALSE(probe.yield_before_request);
  EXPECT_TRUE(probe.yield_with_request);
  EXPECT_NE(responses.find("\"p\""), std::string::npos) << responses;
}
