#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/content_hash.hpp"
#include "serve/protocol.hpp"

namespace perspector::serve {

namespace {

obs::Counter& admitted_counter() {
  static obs::Counter& c = obs::counter("serve.admitted");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::counter("serve.rejected");
  return c;
}
obs::Counter& timeouts_counter() {
  static obs::Counter& c = obs::counter("serve.timeouts");
  return c;
}
obs::Counter& connections_counter() {
  static obs::Counter& c = obs::counter("serve.connections");
  return c;
}
obs::Counter& responses_counter() {
  static obs::Counter& c = obs::counter("serve.responses");
  return c;
}

/// One queued request in arrival order. Entries whose response is already
/// determined (parse errors, rejections, ping/metrics placeholders) carry
/// it in `response`; score entries carry the request until executed.
struct QueueEntry {
  enum class Kind {
    Ready,
    Score,
    Mutate,
    Job,
    Metrics,
    Stats,
    ShardStats,
    Ping,
    Shutdown
  };
  Kind kind = Kind::Ready;
  std::string id;
  std::string response;   // serialized line (Kind::Ready)
  ScoreRequest request;   // Kind::Score
  MutateRequest mutate;   // Kind::Mutate
  JobRequest job;         // Kind::Job
  std::chrono::steady_clock::time_point enqueued;
  std::uint64_t deadline_ms = 0;
};

/// Deterministic 64-bit trace id: the request's content key folded with
/// the event filter and the session's admission sequence number. Same
/// session replay => same ids; identical requests at different queue
/// positions differ. Never returns 0 (0 means "unassigned" on the wire).
std::uint64_t derive_trace_id(const Key128& content_key,
                              const std::string& events,
                              std::uint64_t sequence) {
  const Key128 key = ContentHasher{}
                         .str("trace-v2")
                         .u64(content_key.hi)
                         .u64(content_key.lo)
                         .str(events)
                         .u64(sequence)
                         .digest();
  const std::uint64_t id = key.hi ^ key.lo;
  return id != 0 ? id : 1;
}

class Session {
 public:
  Session(ScoreBackend& engine, int in_fd, int out_fd,
          const SessionOptions& options)
      : engine_(engine), in_fd_(in_fd), out_fd_(out_fd), options_(options) {
    now_ = options_.now ? options_.now
                        : [] { return std::chrono::steady_clock::now(); };
  }

  SessionResult run() {
    while (true) {
      if (pending_.empty()) {
        if (eof_ || terminated() || result_.shutdown_requested) break;
        wait_for_input();
      }
      drain_input();
      execute_pending();
      // Guaranteed job progress: at least one candidate per protocol
      // pass, so a client saturating the input cannot starve running
      // jobs. Idle time advances them much faster (see wait_for_input).
      if (engine_.jobs_runnable()) {
        engine_.jobs_step([this] { return input_ready(); });
      }
      if ((eof_ || terminated() || result_.shutdown_requested) &&
          pending_.empty()) {
        break;
      }
    }
    return result_;
  }

 private:
  bool terminated() const {
    return options_.terminate != nullptr && *options_.terminate != 0;
  }

  /// Blocks (in 200 ms slices, so SIGTERM is noticed) until the input
  /// has data or is at EOF. While async jobs are runnable the wait
  /// degrades to a zero-timeout poll and idle time drives job slices
  /// instead of sleeping — the cooperative scheduling loop of
  /// DESIGN.md section 15. A slice ends at the first candidate boundary
  /// after input arrives.
  void wait_for_input() {
    while (!eof_ && !terminated()) {
      struct pollfd pfd {};
      pfd.fd = in_fd_;
      pfd.events = POLLIN;
      const bool jobs_waiting = engine_.jobs_runnable();
      const int rc = ::poll(&pfd, 1, jobs_waiting ? 0 : 200);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll failed: " + errno_message(errno));
      }
      if (rc > 0) return;
      if (jobs_waiting) engine_.jobs_step([this] { return input_ready(); });
    }
  }

  /// True when the input has data available right now.
  bool input_ready() {
    struct pollfd pfd {};
    pfd.fd = in_fd_;
    pfd.events = POLLIN;
    int rc;
    while ((rc = ::poll(&pfd, 1, 0)) < 0 && errno == EINTR) {
      if (terminated()) return false;
    }
    return rc > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0;
  }

  /// Reads every complete line currently available and enqueues it.
  // lint:seam(block-serve-loop): transport — ::read after poll readiness
  void drain_input() {
    while (!eof_ && input_ready()) {
      char chunk[65536];
      const ssize_t n = ::read(in_fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("read failed: " + errno_message(errno));
      }
      if (n == 0) {
        eof_ = true;
        break;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = buffer_.find('\n', start);
      if (nl == std::string::npos) break;
      enqueue_line(buffer_.substr(start, nl - start));
      start = nl + 1;
    }
    buffer_.erase(0, start);
    // A final unterminated line is still a request once the input ends.
    if (eof_ && !buffer_.empty()) {
      enqueue_line(buffer_);
      buffer_.clear();
    }
  }

  void enqueue_line(std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) return;

    QueueEntry entry;
    entry.enqueued = now_();
    ParsedRequest parsed = parse_request_line(line);
    if (!parsed.ok) {
      entry.kind = QueueEntry::Kind::Ready;
      entry.response =
          serialize_error(parsed.id, parsed.error, parsed.message);
      pending_.push_back(std::move(entry));
      return;
    }
    entry.id = parsed.id;
    if (parsed.op == Op::Score || parsed.op == Op::Mutate) {
      // Scores and mutations share one admission budget: they occupy the
      // same queue and are answered in the same arrival order.
      if (pending_scores_ >= options_.max_queue) {
        rejected_counter().increment();
        entry.kind = QueueEntry::Kind::Ready;
        entry.response = serialize_error(
            parsed.id, "overloaded",
            "admission queue full (max-queue=" +
                std::to_string(options_.max_queue) + ")");
        pending_.push_back(std::move(entry));
        return;
      }
      admitted_counter().increment();
      ++pending_scores_;
    }
    switch (parsed.op) {
      case Op::Ping:
        entry.kind = QueueEntry::Kind::Ping;
        break;
      case Op::Metrics:
        entry.kind = QueueEntry::Kind::Metrics;
        break;
      case Op::Stats:
        entry.kind = QueueEntry::Kind::Stats;
        break;
      case Op::ShardStats:
        entry.kind = QueueEntry::Kind::ShardStats;
        break;
      case Op::Shutdown:
        entry.kind = QueueEntry::Kind::Shutdown;
        break;
      case Op::Job: {
        // Job ops are constant-time control-plane requests (the search
        // itself runs in jobs_step slices); they ride the queue without
        // touching the scores' admission budget — fair-share admission
        // happens in the scheduler, per client.
        entry.kind = QueueEntry::Kind::Job;
        entry.job = std::move(parsed.job);
        ++sequence_;
        if (entry.job.trace_id == 0) {
          const Key128 key = ContentHasher{}
                                 .str("job")
                                 .str(std::string(job_op_name(entry.job.op)))
                                 .str(entry.job.job)
                                 .str(entry.job.spec.builtin)
                                 .str(entry.job.spec.csv_text)
                                 .str(entry.job.spec.client)
                                 .u64(entry.job.spec.seed)
                                 .digest();
          entry.job.trace_id =
              derive_trace_id(key, entry.job.spec.events, sequence_);
        }
        break;
      }
      case Op::Mutate: {
        entry.kind = QueueEntry::Kind::Mutate;
        entry.mutate = std::move(parsed.mutate);
        ++sequence_;
        if (entry.mutate.trace_id == 0) {
          // A mutation has no content key; its trace id digests the full
          // mutation payload instead — still deterministic per replay.
          const Key128 key = ContentHasher{}
                                 .str("mutate")
                                 .str(mutate_op_name(entry.mutate.op))
                                 .str(entry.mutate.suite)
                                 .str(entry.mutate.csv_text)
                                 .str(entry.mutate.series_text)
                                 .str(entry.mutate.workload)
                                 .digest();
          entry.mutate.trace_id =
              derive_trace_id(key, entry.mutate.events, sequence_);
        }
        entry.deadline_ms = entry.mutate.deadline_ms != 0
                                ? entry.mutate.deadline_ms
                                : options_.default_deadline_ms;
        break;
      }
      case Op::Score: {
        entry.kind = QueueEntry::Kind::Score;
        entry.request = std::move(parsed.score);
        // The content key is computed once here and reused everywhere
        // downstream (trace id, result cache, shard assignment). A
        // forwarded request arrives with both already on the wire.
        if (entry.request.content_key == Key128{}) {
          entry.request.content_key = engine_.content_key(entry.request);
        }
        ++sequence_;
        if (entry.request.trace_id == 0) {
          entry.request.trace_id = derive_trace_id(
              entry.request.content_key, entry.request.events, sequence_);
        }
        entry.deadline_ms = entry.request.deadline_ms != 0
                                ? entry.request.deadline_ms
                                : options_.default_deadline_ms;
        break;
      }
    }
    pending_.push_back(std::move(entry));
  }

  bool expired(const QueueEntry& entry) const {
    if (entry.deadline_ms == 0) return false;
    const auto waited = now_() - entry.enqueued;
    return waited > std::chrono::milliseconds(entry.deadline_ms);
  }

  /// Serves the front of the queue: one batch of score requests (bounded
  /// by max_batch) plus any non-score requests up to and including the
  /// first entry after the batch boundary. Writes responses in order.
  void execute_pending() {
    if (pending_.empty()) return;
    obs::Span span("serve.pass");

    // Collect the prefix to serve this pass: stop after max_batch score
    // entries so later arrivals can still be drained between passes.
    std::size_t take = 0;
    std::size_t batch_scores = 0;
    for (; take < pending_.size(); ++take) {
      if (pending_[take].kind == QueueEntry::Kind::Mutate) {
        // A mutation is a write barrier: it executes alone, so every
        // earlier score in the pipeline observes the pre-mutation suite
        // and every later one the post-mutation suite — deterministic
        // responses regardless of batching boundaries.
        if (take == 0) take = 1;
        break;
      }
      if (pending_[take].kind == QueueEntry::Kind::Score) {
        if (batch_scores == options_.max_batch) break;
        ++batch_scores;
      }
    }

    // Deadline check happens at execution time: a request that waited
    // out its budget in the queue is answered `timeout`, not scored.
    std::vector<ScoreRequest> batch;
    std::vector<std::size_t> batch_slots;
    for (std::size_t i = 0; i < take; ++i) {
      QueueEntry& entry = pending_[i];
      const bool mutate = entry.kind == QueueEntry::Kind::Mutate;
      if (!mutate && entry.kind != QueueEntry::Kind::Score) continue;
      --pending_scores_;
      if (expired(entry)) {
        timeouts_counter().increment();
        entry.kind = QueueEntry::Kind::Ready;
        entry.response = serialize_error(
            entry.id, "timeout",
            "request waited past its deadline of " +
                std::to_string(entry.deadline_ms) + " ms",
            mutate ? entry.mutate.trace_id : entry.request.trace_id);
        continue;
      }
      if (mutate) {
        const MutateResponse mutated = engine_.mutate(entry.mutate);
        entry.kind = QueueEntry::Kind::Ready;
        entry.response = serialize_mutate_response(mutated);
        maybe_log_slow(entry, mutated, mutated.cache_hit);
        continue;
      }
      batch.push_back(entry.request);
      batch_slots.push_back(i);
    }

    const std::vector<ScoreResponse> responses = engine_.score_batch(batch);
    for (std::size_t b = 0; b < batch_slots.size(); ++b) {
      QueueEntry& entry = pending_[batch_slots[b]];
      entry.kind = QueueEntry::Kind::Ready;
      entry.response = serialize_response(responses[b]);
      maybe_log_slow(entry, responses[b], responses[b].cache_hit);
    }

    for (std::size_t i = 0; i < take; ++i) {
      QueueEntry& entry = pending_[i];
      switch (entry.kind) {
        case QueueEntry::Kind::Ready:
          write_line(entry.response);
          break;
        case QueueEntry::Kind::Job:
          // Executed at serve time like metrics: every earlier request
          // in the pipeline has already been answered, so `submit,
          // status` observes the submission.
          write_line(serialize_job_response(engine_.job(entry.job)));
          break;
        case QueueEntry::Kind::Ping:
          write_line(serialize_ping(entry.id));
          break;
        case QueueEntry::Kind::Metrics:
          // Snapshot at serve time, after every earlier request in the
          // pipeline has been executed — so `score, score, metrics`
          // observes both scores. The backend decides what a snapshot
          // is: the Engine reads the process registry, the Router merges
          // its workers' registries.
          write_line(engine_.metrics_line(entry.id));
          break;
        case QueueEntry::Kind::Stats:
          // Same snapshot-at-serve-time rule as metrics.
          write_line(engine_.stats_line(entry.id));
          break;
        case QueueEntry::Kind::ShardStats:
          write_line(engine_.shard_stats_line(entry.id));
          break;
        case QueueEntry::Kind::Shutdown:
          write_line(serialize_shutdown(entry.id));
          result_.shutdown_requested = true;
          break;
        case QueueEntry::Kind::Score:
        case QueueEntry::Kind::Mutate:
          break;  // unreachable: all scores/mutations resolved above
      }
      ++result_.responses;
      responses_counter().increment();
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
  }

  /// Emits the slow-request warn line when the request's full
  /// enqueue-to-response latency (queue wait + scoring, measured with the
  /// session clock so tests can fake it) exceeds the configured
  /// threshold and the logger is on.
  void maybe_log_slow(const QueueEntry& entry, const ReplyHeader& response,
                      bool cache_hit) {
    if (options_.slow_request_ms == 0) return;
    if (!obs::Logger::instance().enabled(obs::LogLevel::kWarn)) return;
    const double latency_ms =
        std::chrono::duration<double, std::milli>(now_() - entry.enqueued)
            .count();
    if (latency_ms <= static_cast<double>(options_.slow_request_ms)) return;
    char trace[17];
    std::snprintf(trace, sizeof trace, "%016" PRIx64, response.trace_id);
    obs::log_warn(
        "slow_request",
        {obs::field("trace", trace), obs::field("id", response.id),
         obs::field_f64("latency_ms", latency_ms),
         obs::field_u64("threshold_ms", options_.slow_request_ms),
         obs::field_bool("cache_hit", cache_hit),
         obs::field_bool("ok", response.ok)});
  }

  void write_line(const std::string& line) {
    if (peer_gone_) return;
    std::size_t written = 0;
    while (written < line.size()) {
      const ssize_t n =
          ::write(out_fd_, line.data() + written, line.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) {
          // The client vanished; keep draining so admitted work is
          // accounted, but stop writing.
          peer_gone_ = true;
          return;
        }
        throw std::runtime_error("write failed: " + errno_message(errno));
      }
      written += static_cast<std::size_t>(n);
    }
  }

  ScoreBackend& engine_;
  const int in_fd_;
  const int out_fd_;
  const SessionOptions& options_;
  std::function<std::chrono::steady_clock::time_point()> now_;

  std::string buffer_;
  std::deque<QueueEntry> pending_;
  std::size_t pending_scores_ = 0;
  std::uint64_t sequence_ = 0;  // admitted score requests, for trace ids
  bool eof_ = false;
  bool peer_gone_ = false;
  SessionResult result_;
};

}  // namespace

SessionResult run_session(ScoreBackend& backend, int in_fd, int out_fd,
                          const SessionOptions& options) {
  return Session(backend, in_fd, out_fd, options).run();
}

SessionResult run_stdio_server(ScoreBackend& backend,
                               const SessionOptions& options) {
  connections_counter().increment();
  return run_session(backend, STDIN_FILENO, STDOUT_FILENO, options);
}

std::size_t run_tcp_server(ScoreBackend& backend,
                           const ServerOptions& options) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw std::runtime_error("socket failed: " +
                             errno_message(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    const std::string what = errno_message(errno);
    ::close(listen_fd);
    throw std::runtime_error("bind failed: " + what);
  }
  if (::listen(listen_fd, 16) < 0) {
    const std::string what = errno_message(errno);
    ::close(listen_fd);
    throw std::runtime_error("listen failed: " + what);
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);

  // Scripts parse this line to learn the kernel-assigned port.
  std::printf("serve: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(ntohs(addr.sin_port)));
  std::fflush(stdout);

  std::size_t connections = 0;
  bool shutdown_requested = false;
  const volatile std::sig_atomic_t* terminate = options.session.terminate;
  while (!shutdown_requested &&
         (terminate == nullptr || *terminate == 0)) {
    struct pollfd pfd {};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    // Between connections, idle time drives job slices (zero-timeout
    // poll while the scheduler has work; see Session::wait_for_input).
    const bool jobs_waiting = backend.jobs_runnable();
    const int rc = ::poll(&pfd, 1, jobs_waiting ? 0 : 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const std::string what = errno_message(errno);
      ::close(listen_fd);
      throw std::runtime_error("poll failed: " + what);
    }
    if (rc == 0) {
      if (jobs_waiting) backend.jobs_step();
      continue;
    }

    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      const std::string what = errno_message(errno);
      ::close(listen_fd);
      throw std::runtime_error("accept failed: " + what);
    }
    connections_counter().increment();
    ++connections;
    try {
      const SessionResult result =
          run_session(backend, conn_fd, conn_fd, options.session);
      shutdown_requested = result.shutdown_requested;
    } catch (...) {
      ::close(conn_fd);
      ::close(listen_fd);
      throw;
    }
    ::close(conn_fd);
  }
  ::close(listen_fd);
  return connections;
}

}  // namespace perspector::serve
