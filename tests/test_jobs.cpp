// jobs:: — the async subset-search subsystem: id derivation, checkpoint
// codec, checkpoint-log corruption recovery, scheduler lifecycle,
// fair-share admission, cross-job candidate dedupe, shared search
// contexts, subset-only scoring against a direct joint re-score, and the
// resume invariant (a killed-and-resumed job's final subset is
// byte-identical to an uninterrupted run at any thread count).
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/event_group.hpp"
#include "core/io.hpp"
#include "core/perspector.hpp"
#include "jobs/checkpoint.hpp"
#include "jobs/job.hpp"
#include "jobs/scheduler.hpp"
#include "jobs/search.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "store/checkpoint_log.hpp"
#include "store/fault_injector.hpp"

namespace fs = std::filesystem;
using namespace perspector;
using jobs::BestCandidate;
using jobs::Checkpoint;
using jobs::JobSpec;
using jobs::JobState;
using jobs::Scheduler;
using jobs::SchedulerOptions;
using store::CheckpointLog;
using store::CheckpointLogOptions;
using store::FaultInjector;
using store::FaultOp;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/perspector_jobs_" + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

/// A small built-in spec that finishes in well under a second.
JobSpec small_spec(std::uint64_t candidates = 8, std::uint64_t seed = 1234) {
  JobSpec spec;
  spec.builtin = "nbench";
  spec.instructions = 2000;
  spec.target_size = 4;
  spec.candidates = candidates;
  spec.seed = seed;
  return spec;
}

SchedulerOptions checkpointed_options(const std::string& dir) {
  SchedulerOptions options;
  options.checkpoint_dir = dir;
  options.slice_candidates = 4;
  options.checkpoint_every = 4;
  return options;
}

/// Flips one bit of the file's last byte (for a checkpoint log this is
/// the last byte of the newest record's payload).
void flip_last_byte(const std::string& path) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file) << path;
  file.seekg(0, std::ios::end);
  const auto size = file.tellg();
  ASSERT_GT(size, 0);
  file.seekg(-1, std::ios::end);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(-1, std::ios::end);
  file.write(&byte, 1);
}

Checkpoint sample_checkpoint() {
  Checkpoint checkpoint;
  checkpoint.spec.builtin = "nbench";
  checkpoint.spec.instructions = 5000;
  checkpoint.spec.events = "llc";
  checkpoint.spec.target_size = 5;
  checkpoint.spec.candidates = 32;
  checkpoint.spec.seed = 99;
  checkpoint.spec.client = "alice";
  checkpoint.state = JobState::Running;
  checkpoint.evaluated = 17;
  checkpoint.best.valid = true;
  checkpoint.best.candidate = 12;
  checkpoint.best.deviation_pct = 3.14159265358979;
  checkpoint.best.per_score_deviation_pct = {1.5, 2.25, 0.125, 4.0};
  checkpoint.best.indices = {0, 3, 7, 9, 11};
  checkpoint.best.names = {"a", "b", "c", "d", "e"};
  checkpoint.progress_seq = 6;
  return checkpoint;
}

}  // namespace

// ---- job id ---------------------------------------------------------------

TEST(JobId, IsSixteenLowercaseHexAndDeterministic) {
  const std::string id = jobs::derive_job_id(small_spec());
  ASSERT_EQ(id.size(), 16u);
  for (char ch : id) {
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ch)) ||
                (ch >= 'a' && ch <= 'f'))
        << id;
  }
  EXPECT_EQ(id, jobs::derive_job_id(small_spec()));
}

TEST(JobId, EveryFieldChangesTheId) {
  const std::string base = jobs::derive_job_id(small_spec());
  auto differs = [&](JobSpec spec) {
    EXPECT_NE(jobs::derive_job_id(spec), base);
  };
  JobSpec spec = small_spec();
  spec.seed = 4321;
  differs(spec);
  spec = small_spec();
  spec.candidates = 9;
  differs(spec);
  spec = small_spec();
  spec.target_size = 5;
  differs(spec);
  spec = small_spec();
  spec.events = "llc";
  differs(spec);
  spec = small_spec();
  spec.instructions = 2001;
  differs(spec);
  spec = small_spec();
  spec.client = "alice";
  differs(spec);
  spec = small_spec();
  spec.builtin = "sebs";
  differs(spec);
}

// ---- checkpoint codec -----------------------------------------------------

TEST(CheckpointCodec, RoundTripsEveryField) {
  const Checkpoint original = sample_checkpoint();
  const std::string payload = jobs::encode_checkpoint(original);
  const auto decoded = jobs::decode_checkpoint(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(CheckpointCodec, EncodingIsDeterministic) {
  EXPECT_EQ(jobs::encode_checkpoint(sample_checkpoint()),
            jobs::encode_checkpoint(sample_checkpoint()));
}

TEST(CheckpointCodec, RejectsTruncationAndTrailingGarbage) {
  const std::string payload = jobs::encode_checkpoint(sample_checkpoint());
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_FALSE(jobs::decode_checkpoint(payload.substr(0, cut)).has_value())
        << "cut at " << cut;
  }
  EXPECT_FALSE(jobs::decode_checkpoint(payload + "x").has_value());
}

// ---- checkpoint log -------------------------------------------------------

TEST(CheckpointLogJobs, AppendsSurviveReopen) {
  const std::string dir = fresh_dir("log_reopen");
  const std::string path = dir + "/job.ckpt";
  {
    CheckpointLog log({path, nullptr});
    EXPECT_FALSE(log.last().has_value());
    EXPECT_TRUE(log.append("one"));
    EXPECT_TRUE(log.append("two"));
    EXPECT_EQ(log.last_seq(), 2u);
    ASSERT_TRUE(log.last().has_value());
    EXPECT_EQ(*log.last(), "two");
  }
  CheckpointLog reopened({path, nullptr});
  EXPECT_EQ(reopened.last_seq(), 2u);
  ASSERT_TRUE(reopened.last().has_value());
  EXPECT_EQ(*reopened.last(), "two");
  EXPECT_EQ(reopened.corrupt_skipped(), 0u);
  EXPECT_FALSE(reopened.truncated_tail());
}

TEST(CheckpointLogJobs, BitFlippedNewestRecordFallsBackToPrevious) {
  const std::string dir = fresh_dir("log_bitflip");
  const std::string path = dir + "/job.ckpt";
  {
    CheckpointLog log({path, nullptr});
    EXPECT_TRUE(log.append("good checkpoint"));
    EXPECT_TRUE(log.append("corrupted checkpoint"));
  }
  flip_last_byte(path);
  CheckpointLog recovered({path, nullptr});
  ASSERT_TRUE(recovered.last().has_value());
  EXPECT_EQ(*recovered.last(), "good checkpoint");
  EXPECT_EQ(recovered.last_seq(), 1u);
  EXPECT_EQ(recovered.corrupt_skipped(), 1u);
}

TEST(CheckpointLogJobs, TornTailIsTruncatedAndLogStaysAppendable) {
  const std::string dir = fresh_dir("log_torn");
  const std::string path = dir + "/job.ckpt";
  {
    CheckpointLog log({path, nullptr});
    EXPECT_TRUE(log.append("intact"));
    EXPECT_TRUE(log.append("this record will be torn"));
  }
  // Chop mid-frame: the tail must be trimmed, not parsed.
  fs::resize_file(path, fs::file_size(path) - 5);
  {
    CheckpointLog recovered({path, nullptr});
    ASSERT_TRUE(recovered.last().has_value());
    EXPECT_EQ(*recovered.last(), "intact");
    EXPECT_TRUE(recovered.truncated_tail());
    EXPECT_TRUE(recovered.append("after recovery"));
  }
  CheckpointLog reopened({path, nullptr});
  ASSERT_TRUE(reopened.last().has_value());
  EXPECT_EQ(*reopened.last(), "after recovery");
  EXPECT_FALSE(reopened.truncated_tail());
}

TEST(CheckpointLogJobs, FailedWriteKeepsThePreviousCheckpoint) {
  const std::string dir = fresh_dir("log_fault");
  FaultInjector faults;
  CheckpointLog log({dir + "/job.ckpt", &faults});
  EXPECT_TRUE(log.append("durable"));
  faults.arm(FaultOp::Write, 1);
  EXPECT_FALSE(log.append("lost"));
  ASSERT_TRUE(log.last().has_value());
  EXPECT_EQ(*log.last(), "durable");
  EXPECT_TRUE(log.append("next"));
  EXPECT_EQ(*log.last(), "next");
}

// ---- scheduler lifecycle --------------------------------------------------

TEST(JobScheduler, SubmitDrainCompletes) {
  Scheduler scheduler({});
  const auto outcome = scheduler.submit(small_spec());
  ASSERT_TRUE(outcome.ok) << outcome.message;
  EXPECT_FALSE(outcome.duplicate);
  EXPECT_TRUE(scheduler.runnable());
  scheduler.drain();
  const auto status = scheduler.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::Done);
  EXPECT_EQ(status->evaluated, small_spec().candidates);
  EXPECT_TRUE(status->best.valid);
}

TEST(JobScheduler, FinalSubsetMatchesSynchronousSearch) {
  const JobSpec spec = small_spec(12);
  const BestCandidate reference = jobs::run_search(spec);
  Scheduler scheduler({});
  const auto outcome = scheduler.submit(spec);
  ASSERT_TRUE(outcome.ok);
  scheduler.drain();
  const auto status = scheduler.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->best, reference);
}

TEST(JobScheduler, ResubmitIsIdempotent) {
  Scheduler scheduler({});
  const auto first = scheduler.submit(small_spec());
  const auto second = scheduler.submit(small_spec());
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.duplicate);
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(scheduler.list().size(), 1u);
}

TEST(JobScheduler, RejectsInvalidSpecsAtSubmit) {
  Scheduler scheduler({});
  JobSpec empty;
  empty.builtin.clear();
  EXPECT_EQ(scheduler.submit(empty).error, "bad_request");
  JobSpec events = small_spec();
  events.events = "bogus";
  EXPECT_EQ(scheduler.submit(events).error, "bad_request");
  JobSpec zero = small_spec();
  zero.candidates = 0;
  EXPECT_EQ(scheduler.submit(zero).error, "bad_request");
  JobSpec tiny = small_spec();
  tiny.target_size = 3;
  EXPECT_EQ(scheduler.submit(tiny).error, "bad_request");
}

TEST(JobScheduler, SuiteLevelValidationFailsTheJobNotTheSubmit) {
  // nbench has 10 workloads; a target of 10 only fails once the suite is
  // resolved, which happens on the first slice.
  JobSpec spec = small_spec();
  spec.target_size = 10;
  Scheduler scheduler({});
  const auto outcome = scheduler.submit(spec);
  ASSERT_TRUE(outcome.ok);
  scheduler.drain();
  const auto status = scheduler.status(outcome.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::Failed);
  EXPECT_FALSE(status->error.empty());
}

TEST(JobScheduler, GlobalAdmissionCapRejectsWithOverloaded) {
  SchedulerOptions options;
  options.max_active = 2;
  Scheduler scheduler(options);
  ASSERT_TRUE(scheduler.submit(small_spec(8, 1)).ok);
  ASSERT_TRUE(scheduler.submit(small_spec(8, 2)).ok);
  const auto third = scheduler.submit(small_spec(8, 3));
  EXPECT_FALSE(third.ok);
  EXPECT_EQ(third.error, "overloaded");
  // Draining frees the slots: the same spec is admitted afterwards.
  scheduler.drain();
  EXPECT_TRUE(scheduler.submit(small_spec(8, 3)).ok);
}

TEST(JobScheduler, PerClientCapIsFairShare) {
  SchedulerOptions options;
  options.max_active = 16;
  options.max_active_per_client = 1;
  Scheduler scheduler(options);
  JobSpec greedy = small_spec(8, 1);
  greedy.client = "greedy";
  ASSERT_TRUE(scheduler.submit(greedy).ok);
  JobSpec more = small_spec(8, 2);
  more.client = "greedy";
  const auto rejected = scheduler.submit(more);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "overloaded");
  // Another client's budget is untouched.
  JobSpec other = small_spec(8, 3);
  other.client = "patient";
  EXPECT_TRUE(scheduler.submit(other).ok);
}

TEST(JobScheduler, CancelBeforeAndDuringRun) {
  Scheduler scheduler({});
  const auto queued = scheduler.submit(small_spec(64, 5));
  ASSERT_TRUE(queued.ok);
  const auto cancelled = scheduler.cancel(queued.id);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, JobState::Cancelled);
  EXPECT_FALSE(scheduler.runnable());
  // Cancelling a terminal job is a no-op, not an error.
  const auto again = scheduler.cancel(queued.id);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->state, JobState::Cancelled);
  EXPECT_FALSE(scheduler.status("0123456789abcdef").has_value());
}

TEST(JobScheduler, WatchStreamsMonotonicProgressRecords) {
  Scheduler scheduler({});
  const auto outcome = scheduler.submit(small_spec(12));
  ASSERT_TRUE(outcome.ok);
  scheduler.drain();
  const auto watched = scheduler.watch(outcome.id, 1);
  ASSERT_TRUE(watched.has_value());
  ASSERT_FALSE(watched->progress.empty());
  std::uint64_t previous_seq = 0;
  double previous_best = 1e300;
  for (const auto& record : watched->progress) {
    EXPECT_GT(record.seq, previous_seq);
    EXPECT_LT(record.best.deviation_pct, previous_best);
    previous_seq = record.seq;
    previous_best = record.best.deviation_pct;
  }
  EXPECT_EQ(watched->next, previous_seq + 1);
  // A cursor past the stream returns status only.
  const auto tail = scheduler.watch(outcome.id, watched->next);
  ASSERT_TRUE(tail.has_value());
  EXPECT_TRUE(tail->progress.empty());
}

TEST(JobScheduler, CandidateCacheDedupesAcrossJobs) {
  // Two jobs differing only in the client share every candidate
  // evaluation through the content-addressed outcome cache.
  const std::uint64_t hits_before =
      obs::counter("jobs.candidate_cache_hits").value();
  Scheduler scheduler({});
  JobSpec first = small_spec(8, 77);
  first.client = "alice";
  JobSpec second = first;
  second.client = "bob";
  const auto a = scheduler.submit(first);
  const auto b = scheduler.submit(second);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(a.id, b.id);
  scheduler.drain();
  const auto status_a = scheduler.status(a.id);
  const auto status_b = scheduler.status(b.id);
  ASSERT_TRUE(status_a.has_value());
  ASSERT_TRUE(status_b.has_value());
  EXPECT_EQ(status_a->best, status_b->best);
  EXPECT_GE(obs::counter("jobs.candidate_cache_hits").value(),
            hits_before + first.candidates);
}

// ---- determinism and resume ----------------------------------------------

TEST(JobScheduler, FinalSubsetIsByteIdenticalAcrossThreadCounts) {
  const JobSpec spec = small_spec(12, 31);
  const std::size_t restore = par::thread_count();
  std::vector<BestCandidate> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::set_thread_count(threads);
    Scheduler scheduler({});
    const auto outcome = scheduler.submit(spec);
    ASSERT_TRUE(outcome.ok);
    scheduler.drain();
    const auto status = scheduler.status(outcome.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Done);
    results.push_back(status->best);
  }
  par::set_thread_count(restore);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(JobScheduler, ResumesFromCheckpointAfterDestroy) {
  const std::string dir = fresh_dir("resume");
  const JobSpec spec = small_spec(12, 9);
  const BestCandidate reference = jobs::run_search(spec);

  std::string id;
  {
    Scheduler interrupted(checkpointed_options(dir));
    const auto outcome = interrupted.submit(spec);
    ASSERT_TRUE(outcome.ok);
    id = outcome.id;
    interrupted.step();  // evaluate one 4-candidate slice, checkpoint
    const auto partial = interrupted.status(id);
    ASSERT_TRUE(partial.has_value());
    EXPECT_LT(partial->evaluated, spec.candidates);
  }  // destroyed mid-job: the checkpoint log is the only survivor

  Scheduler resumed(checkpointed_options(dir));
  // The fresh scheduler has never seen this id; status() must recover it
  // from the checkpoint directory.
  const auto recovered = resumed.status(id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->resumed);
  EXPECT_GE(recovered->evaluated, 4u);
  resumed.drain();
  const auto final_status = resumed.status(id);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->state, JobState::Done);
  EXPECT_EQ(final_status->best, reference);
}

TEST(JobScheduler, ResumeIsByteIdenticalAtEveryThreadCount) {
  // The acceptance invariant: interrupt at an arbitrary frontier, resume
  // in a fresh scheduler, and the final subset must equal the
  // uninterrupted run's — at 1, 2 and 8 threads.
  const JobSpec spec = small_spec(12, 58);
  const std::size_t restore = par::thread_count();
  par::set_thread_count(1);
  const BestCandidate reference = jobs::run_search(spec);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::set_thread_count(threads);
    const std::string dir =
        fresh_dir("resume_t" + std::to_string(threads));
    std::string id;
    {
      Scheduler interrupted(checkpointed_options(dir));
      const auto outcome = interrupted.submit(spec);
      ASSERT_TRUE(outcome.ok);
      id = outcome.id;
      interrupted.step();
      interrupted.step();
    }
    Scheduler resumed(checkpointed_options(dir));
    // drain() only advances known jobs; pull the id in first.
    ASSERT_TRUE(resumed.status(id).has_value());
    resumed.drain();
    const auto final_status = resumed.status(id);
    ASSERT_TRUE(final_status.has_value());
    EXPECT_EQ(final_status->state, JobState::Done);
    EXPECT_EQ(final_status->best, reference)
        << "threads=" << threads;
  }
  par::set_thread_count(restore);
}

TEST(JobScheduler, CorruptedNewestCheckpointResumesFromPrevious) {
  const std::string dir = fresh_dir("resume_corrupt");
  const JobSpec spec = small_spec(12, 13);
  const BestCandidate reference = jobs::run_search(spec);

  std::string id;
  {
    Scheduler interrupted(checkpointed_options(dir));
    const auto outcome = interrupted.submit(spec);
    ASSERT_TRUE(outcome.ok);
    id = outcome.id;
    interrupted.step();  // ckpt at evaluated=4
    interrupted.step();  // ckpt at evaluated=8
  }
  // Corrupt the newest record: recovery must skip it (checksum) and
  // restart from the previous checkpoint — re-evaluating at most one
  // cadence, never serving bad state.
  flip_last_byte(dir + "/job-" + id + ".ckpt");

  Scheduler resumed(checkpointed_options(dir));
  const auto recovered = resumed.status(id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->resumed);
  EXPECT_EQ(recovered->evaluated, 4u);  // the seq-2 checkpoint, not seq-3
  resumed.drain();
  const auto final_status = resumed.status(id);
  ASSERT_TRUE(final_status.has_value());
  EXPECT_EQ(final_status->state, JobState::Done);
  EXPECT_EQ(final_status->best, reference);
}

TEST(JobScheduler, FullyCorruptCheckpointIsUnknownNotWrong) {
  const std::string dir = fresh_dir("resume_dead");
  const JobSpec spec = small_spec(8, 21);
  std::string id;
  {
    Scheduler interrupted(checkpointed_options(dir));
    const auto outcome = interrupted.submit(spec);
    ASSERT_TRUE(outcome.ok);
    id = outcome.id;
  }
  // Truncate to a torn sliver of the first frame: no valid record
  // remains, so the id must come back unknown (resubmit restarts it).
  const std::string path = dir + "/job-" + id + ".ckpt";
  fs::resize_file(path, 10);
  Scheduler resumed(checkpointed_options(dir));
  EXPECT_FALSE(resumed.status(id).has_value());
  const auto fresh = resumed.submit(spec);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(fresh.id, id);
}

TEST(JobScheduler, TerminalStateSurvivesRestart) {
  const std::string dir = fresh_dir("resume_done");
  const JobSpec spec = small_spec(8, 34);
  std::string id;
  BestCandidate best;
  {
    Scheduler scheduler(checkpointed_options(dir));
    const auto outcome = scheduler.submit(spec);
    ASSERT_TRUE(outcome.ok);
    id = outcome.id;
    scheduler.drain();
    best = scheduler.status(id)->best;
  }
  Scheduler restarted(checkpointed_options(dir));
  const auto status = restarted.status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::Done);
  EXPECT_TRUE(status->resumed);
  EXPECT_EQ(status->best, best);
  EXPECT_FALSE(restarted.runnable());
}

// ---- subset-only scoring ----------------------------------------------------

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The suite a spec names, resolved without jobs:: code.
core::CounterMatrix direct_suite(const JobSpec& spec) {
  if (!spec.builtin.empty()) {
    return core::simulate_builtin(spec.builtin, spec.instructions);
  }
  if (!spec.series_text.empty()) {
    return core::read_with_series_csv_text(spec.csv_name, spec.csv_text,
                                           spec.series_text);
  }
  return core::read_aggregates_csv_text(spec.csv_name, spec.csv_text);
}

/// Every candidate of `spec` must equal, bit for bit, a direct joint
/// score_suites({full, subset}) of the rows it picked: the four per-score
/// deviations, their mean and the names.
void expect_matches_joint_rescore(const JobSpec& spec) {
  const core::CounterMatrix full = direct_suite(spec);
  core::PerspectorOptions options;
  options.events = core::event_group_by_name(spec.events);
  options.compute_trend = full.has_series();
  const core::Perspector engine(options);

  const jobs::SubsetSearch search(spec);
  for (std::uint64_t i = 0; i < spec.candidates; ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const jobs::CandidateOutcome outcome = search.evaluate(i);
    const std::vector<std::size_t> rows(outcome.indices.begin(),
                                        outcome.indices.end());
    const auto both = engine.score_suites({full, full.select_workloads(rows)});
    const double fulls[] = {both[0].cluster, both[0].trend, both[0].coverage,
                            both[0].spread};
    const double subsets[] = {both[1].cluster, both[1].trend,
                              both[1].coverage, both[1].spread};
    ASSERT_EQ(outcome.per_score_deviation_pct.size(), 4u);
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const double expected =
          fulls[k] == 0.0
              ? 0.0
              : 100.0 * std::abs(subsets[k] - fulls[k]) / std::abs(fulls[k]);
      EXPECT_EQ(bits(outcome.per_score_deviation_pct[k]), bits(expected))
          << "score " << k;
      if (fulls[k] != 0.0) {
        total += expected;
        ++counted;
      }
    }
    const double mean =
        counted == 0 ? 0.0 : total / static_cast<double>(counted);
    EXPECT_EQ(bits(outcome.deviation_pct), bits(mean));
    std::vector<std::string> names;
    for (std::size_t row : rows) names.push_back(full.workload_names()[row]);
    EXPECT_EQ(outcome.names, names);
  }
}

JobSpec spec17_spec(const std::string& events) {
  JobSpec spec;
  spec.builtin = "spec17";
  spec.instructions = 4000;
  spec.events = events;
  spec.target_size = 8;
  spec.candidates = 6;
  spec.seed = 3;
  return spec;
}

JobSpec uploaded_spec(bool with_series) {
  const core::CounterMatrix data = core::simulate_builtin("lmbench", 3000);
  JobSpec spec;
  spec.csv_name = "uploaded.csv";
  spec.csv_text = core::write_aggregates_csv_text(data);
  if (with_series) spec.series_text = core::write_series_csv_text(data);
  spec.target_size = 5;
  spec.candidates = 6;
  spec.seed = 11;
  return spec;
}

}  // namespace

TEST(SubsetSearchOracle, Spec17AllEventsMatchesJointRescore) {
  expect_matches_joint_rescore(spec17_spec("all"));
}

TEST(SubsetSearchOracle, Spec17LlcEventsMatchesJointRescore) {
  expect_matches_joint_rescore(spec17_spec("llc"));
}

TEST(SubsetSearchOracle, UploadedCsvWithSeriesMatchesJointRescore) {
  expect_matches_joint_rescore(uploaded_spec(true));
}

TEST(SubsetSearchOracle, AggregatesOnlyCsvSkipsTrendAndMatches) {
  const JobSpec spec = uploaded_spec(false);
  expect_matches_joint_rescore(spec);
  const jobs::SubsetSearch search(spec);
  EXPECT_EQ(search.evaluate(0).per_score_deviation_pct[1], 0.0);
}

// ---- shared search contexts ------------------------------------------------

TEST(JobContexts, JobsOnOneSuiteSimulatePrimeAndScoreItOnce) {
  // Different seeds and sizes, same suite: one simulation (nbench has 10
  // workloads), one prime, one context between them.
  auto& workloads = obs::counter("sim.workloads");
  auto& primes = obs::counter("cache.primes");
  auto& hits = obs::counter("jobs.context_hits");
  auto& misses = obs::counter("jobs.context_misses");
  const auto workloads_before = workloads.value();
  const auto primes_before = primes.value();
  const auto hits_before = hits.value();
  const auto misses_before = misses.value();

  Scheduler scheduler({});
  JobSpec first = small_spec(8, 101);
  JobSpec second = small_spec(8, 202);
  second.target_size = 6;
  ASSERT_TRUE(scheduler.submit(first).ok);
  ASSERT_TRUE(scheduler.submit(second).ok);
  scheduler.drain();

  EXPECT_EQ(workloads.value() - workloads_before, 10u);
  EXPECT_EQ(primes.value() - primes_before, 1u);
  EXPECT_EQ(misses.value() - misses_before, 1u);
  EXPECT_EQ(hits.value() - hits_before, 1u);
  for (const auto& status : scheduler.list()) {
    EXPECT_EQ(status.state, JobState::Done);
  }
}

TEST(JobContexts, EventsAndInstructionsKeyTheirOwnContexts) {
  auto& misses = obs::counter("jobs.context_misses");
  const auto misses_before = misses.value();
  Scheduler scheduler({});
  JobSpec base = small_spec(4, 5);
  JobSpec llc = base;
  llc.events = "llc";
  JobSpec longer = base;
  longer.instructions = base.instructions + 1000;
  ASSERT_TRUE(scheduler.submit(base).ok);
  ASSERT_TRUE(scheduler.submit(llc).ok);
  ASSERT_TRUE(scheduler.submit(longer).ok);
  scheduler.drain();
  EXPECT_EQ(misses.value() - misses_before, 3u);
  // Each shared result still equals its own synchronous search.
  for (const JobSpec& spec : {base, llc, longer}) {
    const auto status = scheduler.status(jobs::derive_job_id(spec));
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->best, jobs::run_search(spec));
  }
}

TEST(JobContexts, TwoSchedulersShareNothing) {
  auto& workloads = obs::counter("sim.workloads");
  auto& misses = obs::counter("jobs.context_misses");
  const auto workloads_before = workloads.value();
  const auto misses_before = misses.value();
  for (int i = 0; i < 2; ++i) {
    Scheduler scheduler({});
    ASSERT_TRUE(scheduler.submit(small_spec(4, 9)).ok);
    scheduler.drain();
  }
  EXPECT_EQ(misses.value() - misses_before, 2u);
  EXPECT_EQ(workloads.value() - workloads_before, 20u);
}
