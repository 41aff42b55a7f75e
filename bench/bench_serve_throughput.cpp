// Serving-tier throughput/latency bench: requests per second and
// p50/p99 request latency through serve::Engine and serve::Router,
// cold cache vs warm cache, at 1/4/8 concurrent client threads.
//
//   bench_serve_throughput [instructions_per_workload] [sample_interval]
//
// Cold mode runs with a zero-byte result cache and round-robins the
// clients over several distinct suite contents, so nearly every request
// pays the full scoring pipeline; warm mode repeats one request against
// the default cache — primed *before* the timed window, so the window
// measures the steady-state hit path (content hash + LRU lookup), not
// the one-off compute. The gap between the two is the value of the
// result cache; the thread sweep shows how the tier's locking behaves
// under client concurrency. The w2warm/w8warm rows send the same warm
// load through a multi-process Router (2 and 8 workers) — warm requests
// are answered from the router-level cache without touching a worker,
// so these rows must track the Engine warm rows, not the pipe latency.
//
// The delta section at the bottom measures the live-suite mutation
// path: with a 50-workload resident suite, how long does add_workload
// (one incremental DTW strip through the warm ScoringWorkspace) take
// versus scoring the same 51-workload content cold (full re-prime)?
// delta_speedup = full_reprime_us / delta_rescore_us is the headline
// the incremental re-scorer exists for.
//
// Besides the stdout table, writes machine-readable results to
// results/bench_serve.json (override with --out <path>).
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/io.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"

namespace {

using namespace perspector;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kColdRequestsPerClient = 24;
// Warm requests are sub-microsecond each; a multi-millisecond window
// keeps the rps numbers out of timer/thread-spawn noise (CI diffs two
// runs of this bench with perf_check at 1.5x).
constexpr std::size_t kWarmRequestsPerClient = 4096;
constexpr std::size_t kClientCounts[] = {1, 4, 8};

struct ModeResult {
  std::string mode;
  std::size_t clients = 0;
  std::size_t requests = 0;
  double wall_ms = 0.0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

/// Fires `clients` threads, each scoring `per_client` requests produced
/// by `request_for(client, i)`, and aggregates latency. When `prewarm`
/// is set, request (0, 0) is scored once before the clock starts so the
/// timed window never includes the initial compute.
ModeResult run_mode(const std::string& mode, serve::ScoreBackend& backend,
                    std::size_t clients, std::size_t per_client, bool prewarm,
                    const std::function<serve::ScoreRequest(
                        std::size_t, std::size_t)>& request_for) {
  if (prewarm) {
    const serve::ScoreResponse primed = backend.score(request_for(0, 0));
    if (!primed.ok) {
      std::cerr << "prewarm failed: " << primed.message << "\n";
      std::exit(1);
    }
  }
  std::vector<std::vector<double>> latencies_us(clients);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies_us[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const serve::ScoreRequest request = request_for(c, i);
        const auto t0 = Clock::now();
        const serve::ScoreResponse response = backend.score(request);
        const auto t1 = Clock::now();
        if (!response.ok) {
          std::cerr << "request failed: " << response.message << "\n";
          std::exit(1);
        }
        latencies_us[c].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (auto& t : threads) t.join();

  ModeResult result;
  result.mode = mode;
  result.clients = clients;
  result.requests = clients * per_client;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  result.rps = 1000.0 * static_cast<double>(result.requests) / result.wall_ms;
  std::vector<double> all;
  for (const auto& per_client : latencies_us) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  result.p50_us = percentile(all, 0.50);
  result.p99_us = percentile(all, 0.99);
  return result;
}

// Warm windows are a handful of milliseconds; a single descheduling
// stall can halve the measured rps. Each mode runs kRepeats times and
// reports the best run — CI gates run-to-run ratios at 1.5x, so the
// committed number must be the repeatable one, not the noisy one.
constexpr std::size_t kRepeats = 3;

template <typename... Args>
ModeResult run_mode_best(Args&&... args) {
  ModeResult best;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    ModeResult attempt = run_mode(args...);
    if (r == 0 || attempt.rps > best.rps) best = std::move(attempt);
  }
  return best;
}

struct DeltaResult {
  double delta_us = 0.0;  // add_workload against the warm resident
  double full_us = 0.0;   // cold one-shot score of the same content
};

constexpr std::size_t kDeltaRepeats = 5;

/// Times the incremental mutation path against a cold full re-prime on
/// a 50-workload live suite. Both engines run with a zero-byte result
/// cache so every pass is real compute; both passes produce the same
/// 51-workload content, so the comparison is strip-vs-full-DTW plus the
/// shared report pipeline.
DeltaResult run_delta(const bench::BenchConfig& config) {
  // 50-workload resident content: spec17 (43) padded with the first 7
  // nbench workloads; the 8th nbench workload is the add payload.
  const core::CounterMatrix spec =
      serve::simulate_builtin("spec17", config.instructions);
  const core::CounterMatrix nb =
      serve::simulate_builtin("nbench", config.instructions);
  const core::CounterMatrix pad = nb.select_workloads({0, 1, 2, 3, 4, 5, 6});
  const core::CounterMatrix base = core::append_workloads_csv_text(
      spec, core::write_aggregates_csv_text(pad),
      core::write_series_csv_text(pad));
  const core::CounterMatrix extra = nb.select_workloads({7});
  const std::string add_agg = core::write_aggregates_csv_text(extra);
  const std::string add_ser = core::write_series_csv_text(extra);
  const std::string added = extra.workload_names()[0];

  serve::EngineOptions no_cache;
  no_cache.cache_bytes = 0;

  serve::Engine engine(no_cache);
  serve::MutateRequest load;
  load.id = "load";
  load.op = serve::MutateOp::LoadSuite;
  load.suite = "live50";
  load.csv_text = core::write_aggregates_csv_text(base);
  load.series_text = core::write_series_csv_text(base);
  if (!engine.mutate(load).ok) {
    std::cerr << "delta bench: load_suite failed\n";
    std::exit(1);
  }
  serve::MutateRequest add;
  add.op = serve::MutateOp::AddWorkload;
  add.suite = "live50";
  add.csv_text = add_agg;
  add.series_text = add_ser;
  serve::MutateRequest drop;
  drop.op = serve::MutateOp::DropWorkload;
  drop.suite = "live50";
  drop.workload = added;

  DeltaResult result;
  for (std::size_t r = 0; r < kDeltaRepeats; ++r) {
    add.id = std::string("a").append(std::to_string(r));
    const auto t0 = Clock::now();
    const serve::MutateResponse response = engine.mutate(add);
    const auto t1 = Clock::now();
    if (!response.ok) {
      std::cerr << "delta bench: add_workload failed: " << response.message
                << "\n";
      std::exit(1);
    }
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (r == 0 || us < result.delta_us) result.delta_us = us;
    drop.id = std::string("d").append(std::to_string(r));
    if (!engine.mutate(drop).ok) {
      std::cerr << "delta bench: drop_workload failed\n";
      std::exit(1);
    }
  }

  const auto full_content = std::make_shared<const core::CounterMatrix>(
      core::append_workloads_csv_text(base, add_agg, add_ser));
  for (std::size_t r = 0; r < kDeltaRepeats; ++r) {
    serve::Engine cold(no_cache);  // fresh workspace: a true full prime
    serve::ScoreRequest request;
    request.id = std::string("f").append(std::to_string(r));
    request.data = full_content;
    const auto t0 = Clock::now();
    const serve::ScoreResponse response = cold.score(request);
    const auto t1 = Clock::now();
    if (!response.ok) {
      std::cerr << "delta bench: full re-prime failed: " << response.message
                << "\n";
      std::exit(1);
    }
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (r == 0 || us < result.full_us) result.full_us = us;
  }
  return result;
}

/// Emits the uniform BenchReport record (see bench_common.hpp). Metric
/// names are "<mode><clients>c_<stat>", e.g. warm4c_rps / cold1c_p99_us,
/// so perf_check picks up direction from the suffix (rps higher-better,
/// _us lower-better).
void write_json(const std::string& path, const std::vector<ModeResult>& rows,
                const DeltaResult& delta, const bench::BenchConfig& config) {
  bench::BenchReport report("serve_throughput", config);
  for (const auto& r : rows) {
    const std::string prefix = r.mode + std::to_string(r.clients) + "c_";
    report.add_metric(prefix + "rps", r.rps);
    report.add_metric(prefix + "p50_us", r.p50_us);
    report.add_metric(prefix + "p99_us", r.p99_us);
  }
  report.add_metric("delta_rescore_us", delta.delta_us);
  report.add_metric("full_reprime_us", delta.full_us);
  report.add_metric("delta_speedup", delta.full_us / delta.delta_us);
  report.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/bench_serve.json";
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const auto config = bench::parse_args(static_cast<int>(positional.size()),
                                        positional.data());

  // Routers fork their worker processes at construction, so they must
  // be built before anything in this process spins up threads (the
  // simulation pool, client threads). Workers idle until their rows run.
  std::cerr << "forking router tiers (2 and 8 workers)...\n";
  serve::RouterOptions w2_options;
  w2_options.workers = 2;
  serve::Router w2_router(w2_options);
  serve::RouterOptions w8_options;
  w8_options.workers = 8;
  serve::Router w8_router(w8_options);

  // Distinct suite contents for the cold sweep: different instruction
  // budgets produce different counter matrices for the same model.
  // Simulated once up front so the measurements below are scoring only.
  std::cerr << "preparing suite data (" << config.instructions
            << " instructions/workload)...\n";
  std::vector<std::shared_ptr<const core::CounterMatrix>> contents;
  for (std::size_t v = 0; v < 8; ++v) {
    contents.push_back(std::make_shared<const core::CounterMatrix>(
        serve::simulate_builtin("nbench", config.instructions + v * 1000)));
  }

  const auto warm_request = [&](std::size_t c, std::size_t i) {
    serve::ScoreRequest request;
    request.id = std::to_string(c) + ":" + std::to_string(i);
    request.data = contents[0];
    return request;
  };

  std::vector<ModeResult> rows;
  for (const std::size_t clients : kClientCounts) {
    // Cold: no result cache, clients stride over distinct contents so
    // nearly every request is a full pipeline pass.
    serve::EngineOptions cold_options;
    cold_options.cache_bytes = 0;
    serve::Engine cold_engine(cold_options);
    rows.push_back(run_mode_best(
        "cold", cold_engine, clients, kColdRequestsPerClient, false,
        [&](std::size_t c, std::size_t i) {
          serve::ScoreRequest request;
          request.id = std::to_string(c) + ":" + std::to_string(i);
          request.data =
              contents[(c * kColdRequestsPerClient + i) % contents.size()];
          return request;
        }));

    // Warm: default cache, one request repeated and primed up front —
    // the timed window is pure result-cache hits.
    serve::Engine warm_engine;
    rows.push_back(run_mode_best("warm", warm_engine, clients,
                            kWarmRequestsPerClient, true, warm_request));
  }

  // Router warm rows at the 8-client point: the same hit-path load
  // through the multi-process tier. The first (prewarm) request crosses
  // a worker pipe; everything timed is a router-cache hit.
  rows.push_back(run_mode_best("w2warm", w2_router, 8, kWarmRequestsPerClient,
                          true, warm_request));
  rows.push_back(run_mode_best("w8warm", w8_router, 8, kWarmRequestsPerClient,
                          true, warm_request));

  std::cerr << "measuring delta re-score vs full re-prime "
               "(50-workload live suite)...\n";
  const DeltaResult delta = run_delta(config);

  core::Table table(
      {"mode", "clients", "requests", "wall ms", "req/s", "p50 us", "p99 us"});
  for (const auto& r : rows) {
    table.add_row({r.mode, std::to_string(r.clients),
                   std::to_string(r.requests), core::format_double(r.wall_ms, 1),
                   core::format_double(r.rps, 1),
                   core::format_double(r.p50_us, 1),
                   core::format_double(r.p99_us, 1)});
  }
  std::cout << "Serving engine throughput (cold vs warm result cache)\n\n"
            << table.to_text()
            << "\nLive-suite delta re-score (50-workload resident, "
               "add_workload, best of "
            << kDeltaRepeats << ")\n"
            << "  delta re-score: " << core::format_double(delta.delta_us, 1)
            << " us\n  full re-prime:  "
            << core::format_double(delta.full_us, 1) << " us\n  speedup:        "
            << core::format_double(delta.full_us / delta.delta_us, 2) << "x\n";

  write_json(out_path, rows, delta, config);
  return 0;
}
