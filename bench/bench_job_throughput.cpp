// Async-job subsystem throughput/latency bench: drives 1000 concurrent
// subset-search jobs through serve::Engine's jobs::Scheduler and
// measures the three serving-visible latencies plus end-to-end drain
// throughput.
//
//   bench_job_throughput [instructions_per_workload] [sample_interval]
//                        [--jobs N] [--out <path>]
//
// Phases:
//   submit — N generate_submit ops, one per distinct seed, spread over
//            16 client buckets. Checkpointing is ON (a temp dir), so
//            every submit pays the durable-from-admission append+fsync:
//            submit_p99_us is the real cost of handing out a job id
//            that survives a SIGKILL.
//   drain  — the serving-loop idle path (jobs_step) runs every job to
//            a terminal state, slice by slice, with a job_status poll
//            interleaved every few slices: status_p99_us is what a
//            polling client observes while the tier is saturated.
//   watch  — job_watch (full progress ring, from=1) against a sample
//            of completed jobs: the replay cost of catching up a
//            late-attaching watcher.
//
// Every job is a distinct spec (seed varies), so the cross-job
// candidate cache never hits — jobs_rps measures real evaluation
// throughput, not dedupe. Every job targets the same suite, so they
// share one search context: the suite is simulated, primed and scored
// once, and the drain is subset scoring. Candidate evaluations parallelize on the
// par:: pool inside each slice; the drain loop itself is the same
// single-threaded cooperative stepper the serve loop uses.
//
// Besides the stdout table, writes machine-readable results to
// results/bench_jobs.json (override with --out <path>). CI runs this
// twice at smoke scale and gates run-to-run with tools/perf_check; the
// committed reference is results/bench_jobs_baseline.json.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"

namespace {

using namespace perspector;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDefaultJobs = 1000;
constexpr std::size_t kClientBuckets = 16;
constexpr std::uint64_t kCandidatesPerJob = 4;
constexpr std::uint64_t kTargetSize = 4;
constexpr std::size_t kStatusPollEverySteps = 8;
constexpr std::size_t kWatchSample = 256;

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

double elapsed_us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct LatencyRow {
  std::string name;
  std::size_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyRow summarize(const std::string& name, std::vector<double> us) {
  LatencyRow row;
  row.name = name;
  row.count = us.size();
  std::sort(us.begin(), us.end());
  row.p50_us = percentile(us, 0.50);
  row.p99_us = percentile(us, 0.99);
  return row;
}

jobs::JobSpec spec_for(const bench::BenchConfig& config, std::size_t i) {
  jobs::JobSpec spec;
  spec.builtin = "nbench";
  spec.instructions = config.instructions;
  spec.target_size = kTargetSize;
  spec.candidates = kCandidatesPerJob;
  spec.seed = 1000 + i;  // distinct spec -> distinct id, no dedupe
  spec.client = "bench-" + std::to_string(i % kClientBuckets);
  return spec;
}

serve::JobResponse must_ok(serve::Engine& engine,
                           const serve::JobRequest& request) {
  serve::JobResponse response = engine.job(request);
  if (!response.ok) {
    std::cerr << "job op failed: " << response.error << ": "
              << response.message << "\n";
    std::exit(1);
  }
  return response;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_jobs.json";
  std::size_t num_jobs = kDefaultJobs;
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::string(argv[i]) == "--jobs" && i + 1 < argc) {
      num_jobs = std::strtoull(argv[++i], nullptr, 10);
      if (num_jobs == 0) num_jobs = kDefaultJobs;
    } else {
      positional.push_back(argv[i]);
    }
  }
  auto config = bench::parse_args(static_cast<int>(positional.size()),
                                  positional.data());
  // Job startup simulates the suite per job; the serve-bench default of
  // 2M instructions/workload would dominate every number. Uncapped runs
  // can still ask for more explicitly via argv[1].
  if (positional.size() < 2) {
    config.instructions = 20'000;
    config.sample_interval = 2'000;
  }

  const std::filesystem::path checkpoint_dir =
      std::filesystem::temp_directory_path() /
      ("perspector_bench_jobs_" + std::to_string(::getpid()));
  std::filesystem::create_directories(checkpoint_dir);

  serve::EngineOptions options;
  options.jobs.checkpoint_dir = checkpoint_dir.string();
  options.jobs.max_active = num_jobs + 8;
  options.jobs.max_active_per_client = num_jobs / kClientBuckets + 8;
  serve::Engine engine(options);

  std::cerr << "submitting " << num_jobs << " jobs ("
            << config.instructions << " instructions/workload, "
            << kCandidatesPerJob << " candidates each)...\n";

  // -- submit: durable admission latency --------------------------------
  std::vector<std::string> ids;
  ids.reserve(num_jobs);
  std::vector<double> submit_us;
  submit_us.reserve(num_jobs);
  const auto submit_start = Clock::now();
  for (std::size_t i = 0; i < num_jobs; ++i) {
    serve::JobRequest request;
    request.id = "s" + std::to_string(i);
    request.op = serve::JobOp::Submit;
    request.spec = spec_for(config, i);
    const auto t0 = Clock::now();
    const serve::JobResponse response = must_ok(engine, request);
    submit_us.push_back(elapsed_us(t0, Clock::now()));
    ids.push_back(response.status.id);
  }
  const double submit_wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - submit_start)
          .count();

  // -- drain: the cooperative serving-loop idle path --------------------
  std::cerr << "draining (cooperative jobs_step loop)...\n";
  std::vector<double> status_us;
  std::size_t steps = 0;
  const auto drain_start = Clock::now();
  while (engine.jobs_runnable()) {
    engine.jobs_step();
    if (++steps % kStatusPollEverySteps == 0) {
      serve::JobRequest poll;
      poll.id = "p" + std::to_string(steps);
      poll.op = serve::JobOp::Status;
      poll.job = ids[steps % ids.size()];
      const auto t0 = Clock::now();
      must_ok(engine, poll);
      status_us.push_back(elapsed_us(t0, Clock::now()));
    }
  }
  const double drain_wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - drain_start)
          .count();

  // -- verify + watch replay -------------------------------------------
  std::size_t done = 0;
  std::vector<double> watch_us;
  const std::size_t watch_sample = std::min(kWatchSample, ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    serve::JobRequest watch;
    watch.id = "w" + std::to_string(i);
    watch.op = serve::JobOp::Watch;
    watch.job = ids[i];
    watch.from = 1;
    const auto t0 = Clock::now();
    const serve::JobResponse response = must_ok(engine, watch);
    if (i < watch_sample) watch_us.push_back(elapsed_us(t0, Clock::now()));
    if (response.status.state == jobs::JobState::Done) ++done;
  }
  if (done != ids.size()) {
    std::cerr << "bench error: " << done << "/" << ids.size()
              << " jobs completed\n";
    std::exit(1);
  }

  const double evaluated =
      static_cast<double>(obs::counter("jobs.candidates_evaluated").value());
  const double jobs_rps =
      1000.0 * static_cast<double>(num_jobs) / drain_wall_ms;
  const double candidates_rps = 1000.0 * evaluated / drain_wall_ms;
  const double submit_rps =
      1000.0 * static_cast<double>(num_jobs) / submit_wall_ms;

  std::vector<LatencyRow> rows;
  rows.push_back(summarize("submit", submit_us));
  rows.push_back(summarize("status", status_us));
  rows.push_back(summarize("watch", watch_us));

  core::Table table({"op", "count", "p50 us", "p99 us"});
  for (const auto& r : rows) {
    table.add_row({r.name, std::to_string(r.count),
                   core::format_double(r.p50_us, 1),
                   core::format_double(r.p99_us, 1)});
  }
  std::cout << "Async-job subsystem (" << num_jobs
            << " concurrent jobs, checkpointing on)\n\n"
            << table.to_text() << "\n  submit:     "
            << core::format_double(submit_wall_ms, 1) << " ms ("
            << core::format_double(submit_rps, 1) << " jobs/s durable)\n"
            << "  drain:      " << core::format_double(drain_wall_ms, 1)
            << " ms (" << core::format_double(jobs_rps, 1) << " jobs/s, "
            << core::format_double(candidates_rps, 1) << " candidates/s)\n";

  bench::BenchReport report("job_throughput", config);
  report.add_metric("jobs", static_cast<double>(num_jobs));
  report.add_metric("submit_rps", submit_rps);
  report.add_metric("submit_p50_us", rows[0].p50_us);
  report.add_metric("submit_p99_us", rows[0].p99_us);
  report.add_metric("drain_ms", drain_wall_ms);
  report.add_metric("jobs_rps", jobs_rps);
  report.add_metric("candidates_rps", candidates_rps);
  report.add_metric("status_p99_us", rows[1].p99_us);
  report.add_metric("watch_p99_us", rows[2].p99_us);
  report.write(out_path);

  std::filesystem::remove_all(checkpoint_dir);
  return 0;
}
