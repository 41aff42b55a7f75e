#include "serve/router.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perspector::serve {

namespace {

constexpr std::size_t kVnodesPerWorker = 64;
constexpr int kHelloTimeoutMs = 10'000;

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::counter("router.requests");
  return c;
}
obs::Counter& forwarded_counter() {
  static obs::Counter& c = obs::counter("router.forwarded");
  return c;
}
obs::Counter& cache_hit_counter() {
  static obs::Counter& c = obs::counter("router.cache_hit");
  return c;
}
obs::Counter& durable_hit_counter() {
  static obs::Counter& c = obs::counter("router.durable_hit");
  return c;
}
obs::Counter& unavailable_counter() {
  static obs::Counter& c = obs::counter("router.unavailable");
  return c;
}
obs::Counter& crashes_counter() {
  static obs::Counter& c = obs::counter("router.crashes");
  return c;
}
obs::Counter& restarts_counter() {
  static obs::Counter& c = obs::counter("router.restarts");
  return c;
}
obs::Histogram& forward_histogram() {
  static obs::Histogram& h = obs::histogram("router.forward.latency");
  return h;
}

/// The point on the hash ring for (worker, vnode): a full content digest
/// folded to 64 bits, so points are uniform and stable across runs.
std::uint64_t ring_point(std::size_t worker, std::size_t vnode) {
  ContentHasher hasher;
  hasher.str("ring").u64(worker).u64(vnode);
  return Key128Hash{}(hasher.digest());
}

/// Writes the whole buffer; false when the peer is gone (any write
/// error — a partial write can only be cut short by peer death, and a
/// dead peer processed nothing, so the caller may safely re-shard).
bool write_all(int fd, const std::string& buffer) {
  std::size_t done = 0;
  while (done < buffer.size()) {
    const ssize_t n = ::send(fd, buffer.data() + done, buffer.size() - done,
                             MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Reads one '\n'-terminated line (newline stripped) through `buffer`,
/// blocking until the worker answers. False on EOF or error — the
/// worker died.
// The socketpair wait for a worker's answer IS the forwarding protocol;
// workers answer every request, and a dead worker closes the pair.
// lint:seam(block-serve-loop): transport — worker response protocol
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line.assign(buffer, 0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// Reads one line with a deadline (hello handshake only — a worker that
/// cannot say hello within the timeout is broken, not busy).
// lint:seam(block-serve-loop): transport — bounded by the poll deadline
bool read_line_timeout(int fd, std::string& buffer, std::string& line,
                       int timeout_ms) {
  for (;;) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line.assign(buffer, 0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;  // timeout or error
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

// The reply decoder of each op, by reply type, for Router::forward.
bool decode_reply(const std::string& line, ScoreResponse& out) {
  return parse_score_response(line, out);
}
bool decode_reply(const std::string& line, MutateResponse& out) {
  return parse_mutate_response(line, out);
}
bool decode_reply(const std::string& line, JobResponse& out) {
  return parse_job_response(line, out);
}

/// The shard key of a resident suite: its *name*, not its content — a
/// suite's mutations and scores must all meet the worker that holds it.
Key128 resident_name_key(const std::string& suite) {
  return ContentHasher{}.str("resident-suite").str(suite).digest();
}

/// True for a score request that names a resident live suite rather than
/// a built-in model.
bool is_resident_score(const ScoreRequest& request) {
  return !request.builtin.empty() && !is_builtin_suite(request.builtin);
}

/// The shard key of an async job: its id — every op on a job must meet
/// the worker whose scheduler (and checkpoint log) owns it.
Key128 job_affinity_key(const std::string& job_id) {
  return ContentHasher{}.str("job").str(job_id).digest();
}

}  // namespace

void Router::worker_main(int fd, std::size_t index,
                         const EngineOptions& engine_options) {
  // Die with the router; cover the window where the parent exited
  // between fork and prctl (reparented to init).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(0);
  ::signal(SIGINT, SIG_IGN);   // the router decides shutdown, not ^C
  ::signal(SIGTERM, SIG_DFL);
  // No threads may be created in a fork child of a possibly-threaded
  // parent; N single-threaded workers *are* the parallelism.
  par::set_thread_count(1);
  EngineOptions options = engine_options;
  options.cache_dir.clear();  // the router owns the store; workers are
  options.store_faults = nullptr;  // memory-only
  options.jobs.faults = nullptr;  // parent-owned test seam
  // options.jobs.checkpoint_dir is deliberately KEPT: job affinity gives
  // each job one owning worker, and a respawned worker resumes its jobs
  // from the shared directory.
  int exit_code = 0;
  try {
    Engine engine(options);
    if (!write_all(fd, serialize_worker_hello(
                           index, static_cast<std::int64_t>(::getpid())))) {
      ::_exit(1);
    }
    SessionOptions session;
    run_session(engine, fd, fd, session);  // EOF on the pipe drains + returns
  } catch (...) {
    exit_code = 1;
  }
  ::_exit(exit_code);
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      worker_engine_options_(options_.engine) {
  if (options_.workers == 0) options_.workers = 1;
  worker_engine_options_.cache_dir.clear();
  worker_engine_options_.store_faults = nullptr;

  // Fork every worker before the store opens so children never inherit
  // the store's file descriptors or its index mapping.
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < options_.workers; ++i) {
    if (!spawn_locked(i)) {
      throw std::runtime_error("router: failed to spawn worker " +
                               std::to_string(i));
    }
  }

  // Static ring: 64 vnodes per worker, sorted by point. Built once —
  // worker death is an alive-flag skip at lookup, never a rebuild, so
  // surviving shards keep their assignments (and their warm workspaces).
  ring_.reserve(options_.workers * kVnodesPerWorker);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    for (std::size_t v = 0; v < kVnodesPerWorker; ++v) {
      ring_.emplace_back(ring_point(w, v), static_cast<std::uint32_t>(w));
    }
  }
  std::sort(ring_.begin(), ring_.end());

  // Only now open the router-owned result cache + segment store.
  cache_ = std::make_unique<DurableCache>(
      options_.router_cache_bytes, options_.cache_dir, options_.store_bytes,
      options_.store_faults);
}

Router::~Router() {
  // Closing a worker's pipe is its shutdown signal: the session loop
  // sees EOF, drains, and the child _exits.
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->channel);
    worker->alive.store(false, std::memory_order_relaxed);
    if (worker->fd >= 0) {
      ::close(worker->fd);
      worker->fd = -1;
    }
  }
  for (auto& worker : workers_) {
    const std::int64_t pid = worker->pid.load(std::memory_order_relaxed);
    if (pid > 0) {
      int status = 0;
      ::waitpid(static_cast<pid_t>(pid), &status, 0);
    }
  }
  if (cache_) cache_->flush();
}

bool Router::spawn_locked(std::size_t index) {
  Worker& worker = *workers_[index];
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drop every other worker's router-side descriptor so a
    // sibling's death is visible to the router as EOF (a pipe held open
    // here would mask it), then become the worker.
    ::close(fds[0]);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const int sibling = workers_[i]->fd;
      if (sibling >= 0) ::close(sibling);
    }
    worker_main(fds[1], index, worker_engine_options_);
  }
  ::close(fds[1]);
  worker.fd = fds[0];
  worker.pid.store(static_cast<std::int64_t>(pid), std::memory_order_relaxed);
  worker.rx.clear();

  // Handshake: the worker's first line proves the Engine constructed and
  // the channel is live before anything routes to it.
  std::string line;
  std::size_t hello_worker = 0;
  std::int64_t hello_pid = -1;
  if (!read_line_timeout(worker.fd, worker.rx, line, kHelloTimeoutMs) ||
      !parse_worker_hello(line, hello_worker, hello_pid) ||
      hello_worker != index) {
    ::close(worker.fd);
    worker.fd = -1;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    worker.pid.store(-1, std::memory_order_relaxed);
    return false;
  }
  worker.alive.store(true, std::memory_order_release);
  return true;
}

void Router::handle_death_locked(std::size_t index) {
  Worker& worker = *workers_[index];
  if (!worker.alive.load(std::memory_order_relaxed)) return;
  worker.alive.store(false, std::memory_order_relaxed);
  crashes_counter().increment();
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  worker.rx.clear();
  const std::int64_t pid = worker.pid.load(std::memory_order_relaxed);
  if (pid > 0) {
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid), &status, 0);
    worker.pid.store(-1, std::memory_order_relaxed);
  }
  if (options_.restart_on_crash &&
      restarts_.load(std::memory_order_relaxed) < options_.max_restarts) {
    if (spawn_locked(index)) {
      worker.restarts.fetch_add(1, std::memory_order_relaxed);
      restarts_.fetch_add(1, std::memory_order_relaxed);
      restarts_counter().increment();
    }
  }
}

bool Router::exchange(std::size_t index, const std::string& line,
                      std::string& response_line, bool& sent) {
  Worker& worker = *workers_[index];
  std::lock_guard<std::mutex> lock(worker.channel);
  sent = false;
  if (!worker.alive.load(std::memory_order_acquire)) return false;
  if (!write_all(worker.fd, line)) {
    // A send failure means the worker died before reading the request —
    // nothing was processed, the caller may re-shard safely.
    handle_death_locked(index);
    return false;
  }
  sent = true;
  if (!read_line(worker.fd, worker.rx, response_line)) {
    handle_death_locked(index);
    return false;
  }
  return true;
}

int Router::shard_of(const Key128& result_key) const {
  if (ring_.empty()) return -1;
  const std::uint64_t point = Key128Hash{}(result_key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, std::uint32_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t start =
      static_cast<std::size_t>(it - ring_.begin()) % ring_.size();
  // Walk clockwise skipping dead owners; a dead worker's shards slide to
  // the next alive worker while every other assignment stays put.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::uint32_t owner = ring_[(start + i) % ring_.size()].second;
    if (workers_[owner]->alive.load(std::memory_order_acquire)) {
      return static_cast<int>(owner);
    }
  }
  return -1;
}

template <class Reply>
Reply Router::forward(const RequestHeader& request, const std::string& line,
                      const Key128& key, bool retry_sent) {
  obs::LatencyTimer timer(forward_histogram());
  // Bounded re-shard loop: each failed attempt either respawned the
  // worker or moved on to the next alive one, so workers+1 attempts
  // cover every possible owner.
  for (std::size_t attempt = 0; attempt <= workers_.size(); ++attempt) {
    const int shard = shard_of(key);
    if (shard < 0) break;
    std::string reply_line;
    bool sent = false;
    if (exchange(static_cast<std::size_t>(shard), line, reply_line, sent)) {
      forwarded_counter().increment();
      workers_[static_cast<std::size_t>(shard)]->forwarded.fetch_add(
          1, std::memory_order_relaxed);
      Reply reply;
      if (!decode_reply(reply_line, reply)) {
        return error_reply<Reply>(
            request, "internal",
            "malformed response from worker " + std::to_string(shard));
      }
      if constexpr (std::is_same_v<Reply, JobResponse>) reply.worker = shard;
      return reply;
    }
    if (sent && !retry_sent) {
      // The request reached the worker and the worker died before
      // answering: the outcome is unknown, so answer honestly instead
      // of retrying into a double execution.
      unavailable_counter().increment();
      return error_reply<Reply>(request, "unavailable",
                                "worker " + std::to_string(shard) +
                                    " crashed while serving the request");
    }
    // Not sent (or safe to repeat): route again.
  }
  unavailable_counter().increment();
  return error_reply<Reply>(request, "unavailable", "no worker available");
}

ScoreResponse Router::forward_score(const ScoreRequest& request,
                                    const Key128& result_key) {
  std::string line;
  try {
    line = forwarded_line(request);
  } catch (const std::exception& error) {
    return error_reply<ScoreResponse>(request, "bad_request", error.what());
  }
  return forward<ScoreResponse>(request, line, result_key, false);
}

ScoreResponse Router::score(const ScoreRequest& request) {
  requests_counter().increment();
  ScoreRequest req = request;
  if (is_resident_score(req)) {
    // The name-derived wire key never changes across mutations, so the
    // router's cache tiers must not serve (or store) resident results;
    // the owning worker keys them by live content digest instead.
    return forward_score(req, resident_name_key(req.builtin));
  }
  if (req.content_key == Key128{}) req.content_key = content_key(req);
  const Key128 key = result_cache_key(req.content_key, req.events);
  if (auto hit = cache_->get_memory(key)) {
    cache_hit_counter().increment();
    return cache_hit_reply(req, std::move(*hit));
  }
  if (auto hit = cache_->get_durable(key)) {
    durable_hit_counter().increment();
    cache_hit_counter().increment();
    return cache_hit_reply(req, std::move(*hit));
  }
  ScoreResponse response = forward_score(req, key);
  if (response.ok) cache_->put(key, response.report);
  return response;
}

std::vector<ScoreResponse> Router::score_batch(
    const std::vector<ScoreRequest>& requests) {
  std::vector<ScoreResponse> responses(requests.size());

  // Resolve keys and serve cache hits locally; group the misses by
  // shard so each worker channel is locked once per batch and the
  // requests pipeline over it (write all, then read all, in order).
  struct Pending {
    std::size_t index = 0;
    ScoreRequest request;
    Key128 key;
  };
  std::vector<std::vector<Pending>> by_shard(workers_.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests_counter().increment();
    ScoreRequest req = requests[i];
    if (is_resident_score(req)) {
      // Same cache bypass as Router::score: shard by suite name, never
      // consult or fill the router tiers.
      const Key128 name_key = resident_name_key(req.builtin);
      const int shard = shard_of(name_key);
      if (shard < 0) {
        unavailable_counter().increment();
        responses[i] = error_reply<ScoreResponse>(req, "unavailable",
                                                  "no worker available");
        continue;
      }
      by_shard[static_cast<std::size_t>(shard)].push_back(
          Pending{i, std::move(req), name_key});
      continue;
    }
    if (req.content_key == Key128{}) req.content_key = content_key(req);
    const Key128 key = result_cache_key(req.content_key, req.events);
    if (auto hit = cache_->get_memory(key)) {
      cache_hit_counter().increment();
      responses[i] = cache_hit_reply(req, std::move(*hit));
      continue;
    }
    if (auto hit = cache_->get_durable(key)) {
      durable_hit_counter().increment();
      cache_hit_counter().increment();
      responses[i] = cache_hit_reply(req, std::move(*hit));
      continue;
    }
    const int shard = shard_of(key);
    if (shard < 0) {
      unavailable_counter().increment();
      responses[i] = error_reply<ScoreResponse>(req, "unavailable",
                                                "no worker available");
      continue;
    }
    by_shard[static_cast<std::size_t>(shard)].push_back(
        Pending{i, std::move(req), key});
  }

  for (std::size_t shard = 0; shard < by_shard.size(); ++shard) {
    auto& group = by_shard[shard];
    if (group.empty()) continue;
    Worker& worker = *workers_[shard];
    std::size_t answered = 0;  // group entries with a response line read
    std::size_t written = 0;   // group entries fully sent
    bool worker_lost_inflight = false;
    // Reads and decodes the reply to the oldest unanswered entry; false
    // when the worker died instead.
    const auto read_reply = [&] {
      std::string reply_line;
      if (!read_line(worker.fd, worker.rx, reply_line)) {
        worker_lost_inflight = true;
        handle_death_locked(shard);
        return false;
      }
      forwarded_counter().increment();
      worker.forwarded.fetch_add(1, std::memory_order_relaxed);
      const Pending& entry = group[answered++];
      ScoreResponse& response = responses[entry.index];
      if (!parse_score_response(reply_line, response)) {
        response = error_reply<ScoreResponse>(
            entry.request, "internal",
            "malformed response from worker " + std::to_string(shard));
      }
      return true;
    };
    {
      std::lock_guard<std::mutex> lock(worker.channel);
      if (worker.alive.load(std::memory_order_acquire)) {
        obs::LatencyTimer timer(forward_histogram());
        // Sliding pipeline window: stay a few requests ahead of the
        // responses instead of writing the whole group up front, so the
        // two directions of the pipe can never both fill and deadlock.
        constexpr std::size_t kWindow = 8;
        bool channel_ok = true;
        while (channel_ok && (answered < written || written < group.size())) {
          while (channel_ok && written < group.size() &&
                 written - answered < kWindow) {
            std::string line;
            try {
              line = forwarded_line(group[written].request);
            } catch (const std::exception&) {
              // Unserializable requests never reach the wire; stop the
              // pipeline here and answer the rest individually below.
              channel_ok = false;
              break;
            }
            if (!write_all(worker.fd, line)) {
              channel_ok = false;
              break;
            }
            ++written;
          }
          if (answered == written || !read_reply()) break;
        }
        // A write failure with responses still in flight: drain them if
        // the worker survives long enough, otherwise the read loop above
        // already recorded the death.
        while (!worker_lost_inflight && answered < written && read_reply()) {
        }
      }
    }
    if (worker_lost_inflight) {
      // Requests already on the wire when the worker died have unknown
      // outcomes — structured unavailable, never a silent retry.
      for (std::size_t i = answered; i < written; ++i) {
        unavailable_counter().increment();
        responses[group[i].index] = error_reply<ScoreResponse>(
            group[i].request, "unavailable",
            "worker " + std::to_string(shard) +
                " crashed while serving the request");
      }
    }
    // Entries never sent (dead worker, serialization failure, write
    // failure) are safe to route again — possibly to the respawned
    // worker or the next alive one.
    for (std::size_t i = written; i < group.size(); ++i) {
      responses[group[i].index] =
          forward_score(group[i].request, group[i].key);
    }
  }

  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok || responses[i].cache_hit) continue;
    if (is_resident_score(requests[i])) continue;  // cache bypass
    ScoreRequest req = requests[i];
    if (req.content_key == Key128{}) req.content_key = content_key(req);
    cache_->put(result_cache_key(req.content_key, req.events),
                responses[i].report);
  }
  return responses;
}

MutateResponse Router::mutate(const MutateRequest& request) {
  requests_counter().increment();
  // A mutation is not idempotent, so a worker death after it was sent is
  // answered unavailable. Note a respawn loses resident state — the fresh
  // worker answers later mutations with an honest "unknown resident
  // suite" rather than a silently empty one.
  return forward<MutateResponse>(request, forwarded_line(request),
                                 resident_name_key(request.suite), false);
}

JobResponse Router::job(const JobRequest& request) {
  requests_counter().increment();
  const std::string line = serialize_job_request(request);
  if (request.op == JobOp::List) {
    // Fan out to every worker and merge the tier-wide job table, id
    // ordered. A job that moved across a death/respawn cycle can appear
    // on two workers; the first (lowest-index alive worker) wins.
    obs::LatencyTimer timer(forward_histogram());
    JobResponse merged;
    merged.id = request.id;
    merged.op = JobOp::List;
    merged.ok = true;
    merged.trace_id = request.trace_id;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      std::string response_line;
      bool sent = false;
      if (!exchange(i, line, response_line, sent)) continue;
      JobResponse partial;
      if (!parse_job_response(response_line, partial) || !partial.ok) {
        continue;
      }
      forwarded_counter().increment();
      workers_[i]->forwarded.fetch_add(1, std::memory_order_relaxed);
      merged.jobs.insert(merged.jobs.end(),
                         std::make_move_iterator(partial.jobs.begin()),
                         std::make_move_iterator(partial.jobs.end()));
    }
    std::stable_sort(merged.jobs.begin(), merged.jobs.end(),
                     [](const jobs::JobStatus& a, const jobs::JobStatus& b) {
                       return a.id < b.id;
                     });
    merged.jobs.erase(
        std::unique(merged.jobs.begin(), merged.jobs.end(),
                    [](const jobs::JobStatus& a, const jobs::JobStatus& b) {
                      return a.id == b.id;
                    }),
        merged.jobs.end());
    return merged;
  }

  const std::string job_id = request.op == JobOp::Submit
                                 ? jobs::derive_job_id(request.spec)
                                 : request.job;
  // Unlike scores, a death observed *after* the request was sent is also
  // retried: every job op is idempotent (submission re-derives the same
  // id, status/watch are reads, cancel is an at-least-once flag), and the
  // respawned owner resumes the job from its checkpoint log before
  // answering.
  JobResponse response = forward<JobResponse>(
      request, line, job_affinity_key(job_id), true);
  response.op = request.op;
  return response;
}

Key128 Router::content_key(const ScoreRequest& request) {
  if (!(request.content_key == Key128{})) return request.content_key;
  return compute_content_key(request, &digests_);
}

std::string Router::metrics_line(const std::string& id) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& snapshot : obs::counters_snapshot()) {
    counters[snapshot.name] += snapshot.value;
  }
  // Fold in every worker's counters: they sum. Histogram sketches do not
  // merge, so the histograms section stays router-local: request latency
  // behind a router is its own router.forward.latency.
  const std::string request_line = serialize_control_request(Op::Metrics);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    std::string response_line;
    bool sent = false;
    if (!exchange(i, request_line, response_line, sent)) continue;
    json::Value reply;
    try {
      reply = json::parse(response_line);
    } catch (const std::exception&) {
      continue;
    }
    if (const json::Value* object = reply.find("counters");
        object && object->is_object()) {
      for (const auto& [name, value] : object->members) {
        if (value.is_number()) {
          counters[name] += static_cast<std::uint64_t>(value.number);
        }
      }
    }
  }
  return serialize_metrics_merged(id, counters);
}

std::string Router::stats_line(const std::string& id) {
  return serialize_stats(id);
}

std::string Router::shard_stats_line(const std::string& id) {
  std::vector<WorkerStat> stats;
  stats.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& worker = *workers_[i];
    WorkerStat stat;
    stat.worker = i;
    stat.pid = worker.pid.load(std::memory_order_relaxed);
    stat.alive = worker.alive.load(std::memory_order_relaxed);
    stat.restarts = worker.restarts.load(std::memory_order_relaxed);
    stat.forwarded = worker.forwarded.load(std::memory_order_relaxed);
    stats.push_back(stat);
  }
  return serialize_shard_stats(id, "router", stats);
}

std::int64_t Router::worker_pid(std::size_t index) const {
  return workers_[index]->pid.load(std::memory_order_relaxed);
}

bool Router::worker_alive(std::size_t index) const {
  return workers_[index]->alive.load(std::memory_order_acquire);
}

bool Router::kill_worker(std::size_t index) {
  if (index >= workers_.size()) return false;
  // Deliberately lock-free: the channel mutex may be held for the whole
  // duration of an in-flight request, and killing a busy worker is
  // exactly what the crash tests need to do.
  Worker& worker = *workers_[index];
  if (!worker.alive.load(std::memory_order_acquire)) return false;
  const std::int64_t pid = worker.pid.load(std::memory_order_relaxed);
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), SIGKILL) == 0;
}

}  // namespace perspector::serve
