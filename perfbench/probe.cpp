// perfbench_probe: the in-process half of the benchmark.
//
//   perfbench_probe reference
//       Reads "suite instructions events" lines on stdin and prints, for
//       each, "<byte count>\n<report>": the one-shot report of a built-in
//       suite from core::Perspector + core::suite_report. run.py
//       compares served reports against these bytes.
//
//   perfbench_probe replay --workload W --stream FILE --threads N
//                          --tmp DIR --trace-out FILE
//       Replays a seeded request stream in-process, the way the server
//       runs it: serve::parse_request_line -> serve::Engine ->
//       serialize_*. The stream is replayed three times on fresh engines:
//       untraced, traced, untraced (the overhead baseline). The traced pass
//       enables the program's own obs::Tracer, so the layer times are the
//       spans the engine records inside its own calls (serve.simulate,
//       cache.prime_trend, cluster_score, ...); this file adds one span per
//       request and one around each of the decode, engine and encode calls.
//       The Chrome trace is written at the end. stdout gets one JSON object
//       of per-layer self times; stderr gets the self-time table.
//
// Nothing is added to the program.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_group.hpp"
#include "core/perspector.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace perspector;
using Clock = std::chrono::steady_clock;

// ---- layers ------------------------------------------------------------------

// The layer each span belongs to, by name or name prefix. A span that is
// not listed (par.task, dtw.pairwise_matrix, ...) belongs to the layer of
// the span it runs in. "serve.engine" and "jobs.step" are this file's spans
// around the Engine calls; their self time, and that of the engine's own
// request spans, is engine work no layer span covers (CSV payload ingest,
// report rendering, LHS sampling, job bookkeeping, checkpoint appends).
const std::vector<std::pair<std::string_view, std::string_view>> kLayers = {
    {"request", "request"},
    {"serve.decode", "serve.decode"},
    {"serve.encode", "serve.encode"},
    {"serve.engine", "serve.other"},
    {"serve.request", "serve.other"},
    {"serve.mutate", "serve.other"},
    {"serve.batch", "serve.other"},
    {"serve.score", "serve.other"},
    {"jobs.step", "jobs"},
    {"serve.simulate", "sim"},
    {"simulate_suite", "sim"},
    {"sim/", "sim"},
    {"collect_counters/", "sim"},
    {"score_suites", "core.score"},
    {"joint_normalize", "core.score"},
    {"cache.prime_trend", "dtw.prime"},
    {"cache.delta_upsert", "core.upsert"},
    {"cluster_score", "cluster"},
    {"trend_score", "trend"},
    {"trend/", "trend"},
    {"coverage_score", "coverage"},
    {"spread_score", "spread"},
};

std::string_view layer_of(std::string_view name, std::string_view parent) {
  for (const auto& [key, layer] : kLayers) {
    const bool prefix = key.back() == '/';
    if (prefix ? name.substr(0, key.size()) == key : name == key) return layer;
  }
  return parent.empty() ? "other" : parent;
}

/// Self time per layer over the spans of `thread`: each span's duration
/// minus its children's, summed by layer. A span's parent is the latest
/// earlier span one level up on the same thread. Spans of the pool's
/// worker threads run while the replay thread waits inside a layer span,
/// so they are left out rather than counted twice.
std::map<std::string, double> layer_self_us(
    std::vector<obs::TraceEvent> events, std::uint32_t thread) {
  std::erase_if(events, [&](const auto& e) { return e.thread != thread; });
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us
                                    : a.depth < b.depth;
  });
  std::vector<double> self(events.size());
  std::vector<std::string_view> layer(events.size());
  std::vector<std::size_t> open;  // open[d]: latest span at depth d
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    open.resize(std::min<std::size_t>(open.size(), e.depth));
    self[i] = e.duration_us;
    std::string_view parent;
    if (!open.empty() && open.size() == e.depth) {
      self[open.back()] -= e.duration_us;
      parent = layer[open.back()];
    }
    layer[i] = layer_of(e.name, parent);
    open.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out[std::string(layer[i])] += self[i];
  }
  return out;
}

// ---- replay ------------------------------------------------------------------

struct Pass {
  std::uint64_t units = 0;
  std::uint64_t failed = 0;
  double engine_us = 0.0;
  std::vector<std::string> outputs;  // every reply, in order
};

/// One pass over the stream on a fresh engine, with the tracer in
/// whatever state the caller left it.
Pass replay(const std::string& workload, const std::vector<std::string>& lines,
            const std::string& jobs_dir) {
  serve::EngineOptions options;
  if (workload == "subset_jobs") options.jobs.checkpoint_dir = jobs_dir;
  serve::Engine engine(options);
  Pass pass;
  std::vector<std::string> job_ids;

  const auto timed = [&](const char* span, auto&& fn) {
    const auto t0 = Clock::now();
    {
      obs::Span s(span);
      fn();
    }
    pass.engine_us +=
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  const auto decode = [](const std::string& line) {
    obs::Span s("serve.decode");
    return serve::parse_request_line(line);
  };
  const auto encode = [&](auto serialize, const auto& response) {
    obs::Span s("serve.encode");
    pass.outputs.push_back(serialize(response));
  };

  for (const auto& line : lines) {
    obs::Span root("request");
    const auto parsed = decode(line);
    if (!parsed.ok) {
      ++pass.failed;
      continue;
    }
    if (parsed.op == serve::Op::Score) {
      serve::ScoreResponse r;
      timed("serve.engine", [&] { r = engine.score(parsed.score); });
      encode(serve::serialize_response, r);
      ++pass.units;
      pass.failed += !r.ok;
    } else if (parsed.op == serve::Op::Mutate) {
      serve::MutateResponse r;
      timed("serve.engine", [&] { r = engine.mutate(parsed.mutate); });
      encode(serve::serialize_mutate_response, r);
      pass.units += parsed.mutate.op != serve::MutateOp::LoadSuite;
      pass.failed += !r.ok;
    } else if (parsed.op == serve::Op::Job) {
      serve::JobResponse r;
      timed("serve.engine", [&] { r = engine.job(parsed.job); });
      encode(serve::serialize_job_response, r);
      pass.failed += !r.ok;
      job_ids.push_back(r.status.id);
    }
  }

  // Drain the jobs the way the serve loop does: one scheduler step while
  // idle, then the client's next job_status poll, round-robin over jobs.
  std::size_t poll = 0;
  while (!job_ids.empty() && engine.jobs_runnable()) {
    obs::Span root("request");
    timed("jobs.step", [&] { engine.jobs_step(); });
    const auto parsed = decode("{\"op\":\"job_status\",\"job\":\"" +
                               job_ids[poll++ % job_ids.size()] + "\"}");
    serve::JobResponse r;
    timed("serve.engine", [&] { r = engine.job(parsed.job); });
    obs::Span s("serve.encode");
    serve::serialize_job_response(r);
  }
  for (const auto& id : job_ids) {
    serve::JobRequest status;
    status.op = serve::JobOp::Status;
    status.job = id;
    const auto r = engine.job(status);
    pass.outputs.push_back(serve::serialize_job_response(r));
    ++pass.units;
    pass.failed += !r.ok || r.status.state != jobs::JobState::Done;
  }
  return pass;
}

std::string arg(int argc, char** argv, const std::string& name,
                const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  return fallback;
}

core::EventGroup group_of(const std::string& name) {
  if (name == "llc") return core::EventGroup::llc();
  if (name == "tlb") return core::EventGroup::tlb();
  if (name == "branch") return core::EventGroup::branch();
  return core::EventGroup::all();
}

int cmd_reference() {
  std::string suite, events;
  std::uint64_t instructions = 0;
  while (std::cin >> suite >> instructions >> events) {
    core::PerspectorOptions options;
    options.events = group_of(events);
    const auto data = serve::simulate_builtin(suite, instructions);
    const auto scores = core::Perspector(options).score_suites({data}).front();
    const std::string report = core::suite_report(data, scores);
    std::cout << report.size() << "\n" << report;
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  const std::string workload = arg(argc, argv, "workload");
  const std::string tmp = arg(argc, argv, "tmp");
  par::set_thread_count(std::stoul(arg(argc, argv, "threads", "1")));
  std::vector<std::string> lines;
  {
    std::ifstream in(arg(argc, argv, "stream"));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  std::filesystem::create_directories(tmp);
  auto& tracer = obs::Tracer::instance();
  if (tracer.force_disabled()) {
    throw std::runtime_error("tracing is force-disabled (PERSPECTOR_TRACE=0)");
  }

  // Untraced, traced, untraced again: the overhead compares the traced
  // pass with the mean of the two untraced ones, so a drift across the
  // passes (a cold first pass, a slower host) cancels out.
  const auto first = replay(workload, lines, tmp + "/jobs-untraced-1");
  auto& instructions = obs::counter("sim.instructions");
  const auto instructions_before = instructions.value();
  tracer.clear();
  tracer.enable();
  const auto traced = replay(workload, lines, tmp + "/jobs-traced");
  tracer.disable();
  const auto sim_instructions = instructions.value() - instructions_before;
  const auto again = replay(workload, lines, tmp + "/jobs-untraced-2");
  tracer.write_chrome_trace(arg(argc, argv, "trace-out"));

  // The replay thread is the one that recorded the request spans.
  const auto events = tracer.events();
  const auto root = std::find_if(events.begin(), events.end(),
                                 [](const auto& e) { return e.name == "request"; });
  const auto self =
      root == events.end() ? std::map<std::string, double>{}
                           : layer_self_us(events, root->thread);
  double total = 0.0;
  for (const auto& [name, us] : self) total += us;
  std::fprintf(stderr, "%-14s %12s %8s %12s\n", "layer", "self_ms", "share",
               "ms/unit");
  for (const auto& [name, us] : self) {
    std::fprintf(stderr, "%-14s %12.2f %7.1f%% %12.3f\n", name.c_str(),
                 us / 1e3, total > 0 ? 100.0 * us / total : 0.0,
                 us / 1e3 / std::max<std::uint64_t>(traced.units, 1));
  }

  // Tracing must not change a single reply, and every pass must drain the
  // same units.
  const bool same = first.outputs == traced.outputs &&
                    first.outputs == again.outputs &&
                    first.units == traced.units && first.units == again.units;
  const auto failed = first.failed + traced.failed + again.failed;
  std::cout << "{\"units\":" << traced.units << ",\"failed\":" << failed
            << ",\"spans\":" << events.size()
            << ",\"sim_instructions\":" << sim_instructions
            << ",\"engine_ms\":" << traced.engine_us / 1e3
            << ",\"untraced_engine_ms\":"
            << (first.engine_us + again.engine_us) / 2e3 << ",\"self_ms\":{";
  bool comma = false;
  for (const auto& [name, us] : self) {
    std::cout << (comma ? "," : "") << serve::json::quoted(name) << ":"
              << us / 1e3;
    comma = true;
  }
  std::cout << "}}\n";
  return same && failed == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "reference") return cmd_reference();
    if (mode == "replay") return cmd_replay(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: perfbench_probe reference | replay --workload W "
               "--stream FILE --threads N --tmp DIR --trace-out FILE\n");
  return 1;
}
