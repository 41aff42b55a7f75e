#include "jobs/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "jobs/checkpoint.hpp"
#include "jobs/search.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "store/checkpoint_log.hpp"

namespace perspector::jobs {

namespace {

obs::Counter& submitted_counter() {
  static obs::Counter& c = obs::counter("jobs.submitted");
  return c;
}
obs::Counter& duplicate_counter() {
  static obs::Counter& c = obs::counter("jobs.duplicate_submits");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::counter("jobs.rejected");
  return c;
}
obs::Counter& completed_counter() {
  static obs::Counter& c = obs::counter("jobs.completed");
  return c;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& c = obs::counter("jobs.cancelled");
  return c;
}
obs::Counter& failed_counter() {
  static obs::Counter& c = obs::counter("jobs.failed");
  return c;
}
obs::Counter& resumed_counter() {
  static obs::Counter& c = obs::counter("jobs.resumed");
  return c;
}
obs::Counter& checkpoints_counter() {
  static obs::Counter& c = obs::counter("jobs.checkpoints");
  return c;
}
obs::Counter& candidates_counter() {
  static obs::Counter& c = obs::counter("jobs.candidates_evaluated");
  return c;
}
obs::Counter& cache_hits_counter() {
  static obs::Counter& c = obs::counter("jobs.candidate_cache_hits");
  return c;
}
obs::Counter& context_hits_counter() {
  static obs::Counter& c = obs::counter("jobs.context_hits");
  return c;
}
obs::Counter& context_misses_counter() {
  static obs::Counter& c = obs::counter("jobs.context_misses");
  return c;
}
obs::Histogram& candidate_latency() {
  static obs::Histogram& h = obs::histogram("jobs.candidate.latency");
  return h;
}

bool valid_events(const std::string& name) {
  return name == "all" || name == "llc" || name == "tlb" ||
         name == "branch";
}

}  // namespace

struct Scheduler::Job {
  std::string id;
  JobSpec spec;
  JobState state = JobState::Queued;
  std::uint64_t evaluated = 0;
  BestCandidate best;
  std::uint64_t progress_seq = 0;
  std::deque<JobProgress> progress;  // bounded ring, oldest in front
  bool resumed = false;
  std::string error;
  std::atomic<bool> cancel_requested{false};
  bool stepping = false;  // a stepper owns search/evaluation right now
  std::uint64_t last_checkpoint = 0;  // `evaluated` at the last append
  std::unique_ptr<SubsetSearch> search;          // stepper-built, lazy
  std::unique_ptr<store::CheckpointLog> log;     // lazy; mutex-guarded
};

Scheduler::Scheduler(SchedulerOptions options) : options_(std::move(options)) {
  if (options_.slice_candidates == 0) options_.slice_candidates = 1;
  if (options_.progress_capacity == 0) options_.progress_capacity = 1;
  // checkpoint_every rounded up to whole slices: where full slices put a
  // checkpoint, so slices that end early move none.
  const std::uint64_t every = options_.checkpoint_every;
  const std::uint64_t slice = options_.slice_candidates;
  const std::uint64_t rest = every % slice;
  checkpoint_period_ =
      rest == 0 || every > std::numeric_limits<std::uint64_t>::max() - slice
          ? every
          : every + (slice - rest);
}

Scheduler::~Scheduler() = default;

std::string Scheduler::checkpoint_path(const std::string& id) const {
  return options_.checkpoint_dir + "/job-" + id + ".ckpt";
}

std::size_t Scheduler::active_count_locked() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->state)) ++n;
  }
  return n;
}

std::size_t Scheduler::active_count_locked(const std::string& client) const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->state) && job->spec.client == client) ++n;
  }
  return n;
}

JobStatus Scheduler::status_of_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.client = job.spec.client;
  status.evaluated = job.evaluated;
  status.total = job.spec.candidates;
  status.best = job.best;
  status.resumed = job.resumed;
  status.error = job.error;
  return status;
}

// Appends the job's current state to its checkpoint log (opened lazily).
// Caller holds the mutex. A failed append is not fatal: the job keeps
// running and the previous checkpoint stays the resume point.
void Scheduler::checkpoint_job(Job& job) {
  if (options_.checkpoint_dir.empty()) return;
  if (!job.log) {
    try {
      store::CheckpointLogOptions log_options;
      log_options.path = checkpoint_path(job.id);
      log_options.faults = options_.faults;
      job.log = std::make_unique<store::CheckpointLog>(log_options);
    } catch (const std::exception&) {
      return;  // checkpointing degrades to off for this job
    }
  }
  Checkpoint checkpoint;
  checkpoint.spec = job.spec;
  checkpoint.state = job.state;
  checkpoint.evaluated = job.evaluated;
  checkpoint.best = job.best;
  checkpoint.progress_seq = job.progress_seq;
  checkpoint.error = job.error;
  if (job.log->append(encode_checkpoint(checkpoint))) {
    job.last_checkpoint = job.evaluated;
    checkpoints_counter().increment();
  }
}

std::shared_ptr<const SearchContext> Scheduler::context_for(
    const JobSpec& spec, bool& built) {
  const CandidateKey key = context_key(spec);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
      if (it->first == key) {
        contexts_.splice(contexts_.begin(), contexts_, it);
        context_hits_counter().increment();
        return it->second;
      }
    }
  }
  // Built unlocked: only the single stepper gets here, so no two builds
  // of one key race.
  context_misses_counter().increment();
  auto context = std::make_shared<const SearchContext>(spec);
  built = true;
  std::unique_lock<std::mutex> lock(mutex_);
  contexts_.emplace_front(key, context);
  if (contexts_.size() > kContextSlots) contexts_.pop_back();
  return context;
}

std::shared_ptr<Scheduler::Job> Scheduler::try_resume_locked(
    const std::string& id) {
  if (options_.checkpoint_dir.empty()) return nullptr;
  const std::string path = checkpoint_path(id);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return nullptr;

  std::unique_ptr<store::CheckpointLog> log;
  try {
    store::CheckpointLogOptions log_options;
    log_options.path = path;
    log_options.faults = options_.faults;
    log = std::make_unique<store::CheckpointLog>(log_options);
  } catch (const std::exception&) {
    return nullptr;
  }
  if (!log->last()) return nullptr;
  auto checkpoint = decode_checkpoint(*log->last());
  if (!checkpoint) return nullptr;
  // The file name is authoritative: a payload whose spec derives a
  // different id is cross-wired or corrupt, never resume it.
  if (derive_job_id(checkpoint->spec) != id) return nullptr;

  auto job = std::make_shared<Job>();
  job->id = id;
  job->spec = checkpoint->spec;
  // An interrupted run resumes from its frontier; Running collapses to
  // Queued so the step loop picks it up again.
  job->state =
      is_terminal(checkpoint->state) ? checkpoint->state : JobState::Queued;
  job->evaluated = checkpoint->evaluated;
  job->best = checkpoint->best;
  job->progress_seq = checkpoint->progress_seq;
  job->error = checkpoint->error;
  job->resumed = true;
  job->last_checkpoint = checkpoint->evaluated;
  job->log = std::move(log);
  jobs_.emplace(id, job);
  resumed_counter().increment();
  return job;
}

std::shared_ptr<Scheduler::Job> Scheduler::find_or_resume_locked(
    const std::string& id, std::unique_lock<std::mutex>&) {
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) return it->second;
  return try_resume_locked(id);
}

SubmitOutcome Scheduler::submit(const JobSpec& spec) {
  SubmitOutcome outcome;
  const auto reject = [&](std::string error, std::string message) {
    rejected_counter().increment();
    outcome.ok = false;
    outcome.error = std::move(error);
    outcome.message = std::move(message);
    return outcome;
  };
  // Cheap validation before touching the registry; anything that needs
  // the resolved suite (target vs suite size, CSV shape) is validated at
  // first step and surfaces as a Failed job.
  if (spec.builtin.empty() && spec.csv_text.empty()) {
    return reject("bad_request",
                  "submit carries neither a suite name nor CSV data");
  }
  if (!valid_events(spec.events)) {
    return reject("bad_request", "unknown event group '" + spec.events + "'");
  }
  if (spec.candidates == 0) {
    return reject("bad_request", "candidates must be > 0");
  }
  if (spec.target_size < 4) {
    return reject("bad_request",
                  "target size must be >= 4 (ClusterScore needs it)");
  }

  const std::string id = derive_job_id(spec);
  std::unique_lock<std::mutex> lock(mutex_);
  if (auto existing = find_or_resume_locked(id, lock)) {
    duplicate_counter().increment();
    outcome.ok = true;
    outcome.duplicate = true;
    outcome.id = id;
    return outcome;
  }
  if (active_count_locked() >= options_.max_active) {
    return reject("overloaded", "job queue is full (" +
                                    std::to_string(options_.max_active) +
                                    " active jobs)");
  }
  if (active_count_locked(spec.client) >= options_.max_active_per_client) {
    return reject("overloaded",
                  "client '" + spec.client + "' is at its active-job cap (" +
                      std::to_string(options_.max_active_per_client) + ")");
  }

  auto job = std::make_shared<Job>();
  job->id = id;
  job->spec = spec;
  jobs_.emplace(id, job);
  submitted_counter().increment();
  // Durable from the moment the id is handed out: a worker killed before
  // the first slice must still resume this job, not "unknown job" it.
  checkpoint_job(*job);
  outcome.ok = true;
  outcome.id = id;
  return outcome;
}

std::optional<JobStatus> Scheduler::status(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto job = find_or_resume_locked(id, lock);
  if (!job) return std::nullopt;
  return status_of_locked(*job);
}

std::optional<WatchOutcome> Scheduler::watch(const std::string& id,
                                             std::uint64_t from) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto job = find_or_resume_locked(id, lock);
  if (!job) return std::nullopt;
  WatchOutcome outcome;
  outcome.status = status_of_locked(*job);
  for (const auto& record : job->progress) {
    if (record.seq >= from) outcome.progress.push_back(record);
  }
  outcome.next = job->progress_seq + 1;
  return outcome;
}

std::optional<JobStatus> Scheduler::cancel(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto job = find_or_resume_locked(id, lock);
  if (!job) return std::nullopt;
  if (!is_terminal(job->state)) {
    if (job->stepping) {
      // The stepper owns the job mid-slice; it honors the flag at the
      // end of the slice and writes the terminal checkpoint itself.
      job->cancel_requested.store(true, std::memory_order_relaxed);
    } else {
      job->state = JobState::Cancelled;
      cancelled_counter().increment();
      checkpoint_job(*job);
      job->search.reset();
    }
  }
  return status_of_locked(*job);
}

std::vector<JobStatus> Scheduler::list() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::vector<JobStatus> all;
  all.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) all.push_back(status_of_locked(*job));
  return all;
}

bool Scheduler::runnable() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->state)) return true;
  }
  return false;
}

void Scheduler::step(const std::function<bool()>& should_yield) {
  std::shared_ptr<Job> job;
  std::uint64_t done = 0;
  BestCandidate best;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stepping_) return;  // one slice at a time, whoever got here first
    // Round-robin: the first non-terminal job strictly after the cursor,
    // wrapping, so no job starves behind a long-running neighbor.
    auto it = jobs_.upper_bound(cursor_);
    for (std::size_t seen = 0; seen < jobs_.size(); ++seen, ++it) {
      if (it == jobs_.end()) it = jobs_.begin();
      if (!is_terminal(it->second->state) && !it->second->stepping) {
        job = it->second;
        break;
      }
    }
    if (!job) return;
    cursor_ = job->id;
    job->state = JobState::Running;
    job->stepping = true;
    stepping_ = true;
    done = job->evaluated;
    best = job->best;
  }

  // ---- unlocked: only this thread touches the job's search state ----
  std::string failure;
  // A step that built the search context has already spent the part of
  // its latency no yield can cut; it runs a full slice, so the caller is
  // not asked to come back for one more candidate.
  bool built = false;
  if (!job->search) {
    try {
      job->search = std::make_unique<SubsetSearch>(
          job->spec, context_for(job->spec, built));
    } catch (const std::exception& e) {
      failure = e.what();
    }
  }
  const bool may_yield = should_yield && !built;

  struct Improvement {
    std::uint64_t evaluated;
    BestCandidate best;
  };
  std::vector<Improvement> improvements;
  const std::uint64_t total = job->spec.candidates;
  std::uint64_t end = std::min(total, done + options_.slice_candidates);
  if (checkpoint_period_ != 0) {
    end = std::min(end, done - done % checkpoint_period_ + checkpoint_period_);
  }
  if (failure.empty()) {
    while (done < end) {
      if (job->cancel_requested.load(std::memory_order_relaxed)) break;
      const std::uint64_t index = done;
      const CandidateKey key = job->search->candidate_key(index);
      CandidateOutcome outcome;
      bool cached = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto hit = candidate_cache_.find(key);
        if (hit != candidate_cache_.end()) {
          outcome = hit->second;
          cached = true;
          cache_hits_counter().increment();
        }
      }
      if (!cached) {
        try {
          obs::LatencyTimer timer(candidate_latency());
          outcome = job->search->evaluate(index);
        } catch (const std::exception& e) {
          failure = e.what();
          break;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        if (candidate_cache_.size() >= options_.candidate_cache_slots &&
            !candidate_fifo_.empty()) {
          candidate_cache_.erase(candidate_fifo_.front());
          candidate_fifo_.erase(candidate_fifo_.begin());
        }
        if (candidate_cache_.emplace(key, outcome).second) {
          candidate_fifo_.push_back(key);
        }
      }
      candidates_counter().increment();
      ++done;
      if (!best.valid || outcome.deviation_pct < best.deviation_pct) {
        best.valid = true;
        best.candidate = index;
        best.deviation_pct = outcome.deviation_pct;
        best.per_score_deviation_pct = outcome.per_score_deviation_pct;
        best.indices = outcome.indices;
        best.names = outcome.names;
        improvements.push_back({done, best});
      }
      if (may_yield && done < end && should_yield()) break;
    }
  }

  // ---- publish + checkpoint under the lock ----
  std::unique_lock<std::mutex> lock(mutex_);
  job->evaluated = done;
  job->best = std::move(best);
  for (auto& improvement : improvements) {
    JobProgress record;
    record.seq = ++job->progress_seq;
    record.evaluated = improvement.evaluated;
    record.total = total;
    record.best = std::move(improvement.best);
    job->progress.push_back(std::move(record));
    while (job->progress.size() > options_.progress_capacity) {
      job->progress.pop_front();
    }
  }
  if (!failure.empty()) {
    job->state = JobState::Failed;
    job->error = failure;
    failed_counter().increment();
  } else if (job->cancel_requested.load(std::memory_order_relaxed)) {
    job->state = JobState::Cancelled;
    cancelled_counter().increment();
  } else if (done >= total) {
    job->state = JobState::Done;
    completed_counter().increment();
  }
  const bool cadence_due =
      checkpoint_period_ != 0 &&
      job->evaluated - job->last_checkpoint >= checkpoint_period_;
  if (is_terminal(job->state) || cadence_due) checkpoint_job(*job);
  // A finished job keeps its result, not its share of a context.
  if (is_terminal(job->state)) job->search.reset();
  job->stepping = false;
  stepping_ = false;
}

void Scheduler::drain() {
  while (runnable()) step();
}

}  // namespace perspector::jobs
