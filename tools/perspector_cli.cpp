// perspector — command-line front end.
//
//   perspector suites
//       List the built-in suite models.
//   perspector demo [--suite <name>] [--instructions N]
//       Simulate a built-in suite and print the full report.
//   perspector score --csv <aggregates.csv> [--series <series.csv>]
//       Score one suite from CSV counter data (see core/io.hpp formats).
//   perspector compare --csv <a.csv> --csv <b.csv> ... [--events all|llc|tlb|branch]
//       Score several suites together (joint normalization) and rank them.
//   perspector subset --csv <file.csv> --size K [--method lhs|random|prior]
//       Select a representative subset and report the score deviation.
//   perspector serve [--port N | --stdio]
//       Run the resident scoring service (NDJSON protocol, see README).
//   perspector client --port N (--suite <name> | --csv <file>)
//       Scripted client for the scoring service.
//
// `perspector help` and `perspector <command> --help` print usage and
// exit 0; genuine usage errors print usage and exit 1. An option the
// command does not take, or a stray argument, is a usage error.
//
// Observability (any command): --trace <file.json> writes a Chrome
// trace-event JSON of the run and prints a per-phase timing table;
// --metrics prints the obs counter/distribution tables.
//
// Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 (client
// only) server answered at least one request with an error.
#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/counter_matrix.hpp"
#include "core/event_group.hpp"
#include "core/io.hpp"
#include "core/perspector.hpp"
#include "core/ranking.hpp"
#include "core/report.hpp"
#include "core/subset.hpp"
#include "jobs/job.hpp"
#include "jobs/search.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace {

using namespace perspector;

/// Bad command-line input: reported as a usage message with exit code 1,
/// unlike runtime failures (exit 2).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::pair<std::string, std::string>> options;  // --key value

  std::optional<std::string> get(const std::string& key) const {
    for (const auto& [k, v] : options) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  bool has(const std::string& key) const { return get(key).has_value(); }
  std::vector<std::string> get_all(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : options) {
      if (k == key) out.push_back(v);
    }
    return out;
  }
};

// Flags that take no value; everything else is --key <value>.
const std::set<std::string>& boolean_flags() {
  static const std::set<std::string> flags = {
      "metrics", "stdio", "ping", "stats", "shutdown",
      "submit", "follow", "job-list", "shard-stats"};
  return flags;
}

// Options every command accepts (observability and parallelism).
const std::set<std::string>& global_options() {
  static const std::set<std::string> options = {
      "trace", "metrics", "metrics-json", "log-level", "log-file", "threads"};
  return options;
}

/// One command: its usage text, the options it accepts besides the
/// global ones (any other option is a usage error) and its body.
struct Command {
  std::string name;
  std::string usage;
  std::set<std::string> options;
  int (*run)(const Args&) = nullptr;  // null for help, run from main
};

const std::vector<Command>& commands();

const Command* find_command(const std::string& name) {
  for (const Command& command : commands()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

Args parse_args(int argc, char** argv, const Command& command) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + token + "'");
    }
    const std::string key = token.substr(2);
    if (!command.options.count(key) && !global_options().count(key)) {
      throw UsageError("unknown option '" + token + "'");
    }
    if (boolean_flags().count(key)) {
      args.options.emplace_back(key, "1");
      continue;
    }
    if (i + 1 >= argc) {
      throw UsageError("option '" + token + "' needs a value");
    }
    args.options.emplace_back(key, argv[++i]);
  }
  return args;
}

/// Strict non-negative integer parse for --size/--instructions/--seed:
/// rejects signs, whitespace, and trailing junk (std::stoull would accept
/// "-1" by wrapping, and "12abc" by truncating).
std::uint64_t parse_u64(const std::string& text, const std::string& flag) {
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(),
                   [](unsigned char ch) { return std::isdigit(ch); })) {
    throw UsageError("option '--" + flag +
                     "' expects a non-negative integer, got '" + text + "'");
  }
  try {
    return std::stoull(text);
  } catch (const std::out_of_range&) {
    throw UsageError("option '--" + flag + "' value '" + text +
                     "' is out of range");
  }
}

const char* general_usage_text() {
  return
      "usage: perspector <command> [options]\n"
      "  suites                                   list built-in suite models\n"
      "  demo    [--suite <name>] [--instructions N]\n"
      "  score   --csv <agg.csv> [--series <ser.csv>] [--events all|llc|tlb|branch]\n"
      "  compare --csv <a.csv> --csv <b.csv> ... [--events all|llc|tlb|branch]\n"
      "  subset  --csv <agg.csv> --size K [--method lhs|random|prior] [--seed S]\n"
      "          [--search scored [--suite <name>] [--candidates N]]\n"
      "  ingest  --csv <agg.csv>                  parse a CSV, print shape, MiB/s\n"
      "  serve   [--port N | --stdio] [--workers N] [--cache-dir PATH] ...\n"
      "  client  --port N (--suite <name> | --csv <file> | --input <file>)\n"
      "          [--load-suite NAME | --add-workload NAME |\n"
      "           --drop-workload NAME --workload W | --append-samples NAME]\n"
      "          [--submit [--follow] | --watch JOB | --job-status JOB |\n"
      "           --job-cancel JOB | --job-list]\n"
      "          [--repeat K] ...\n"
      "  help    [<command>]                      this message, or per-command usage\n"
      "observability (any command):\n"
      "  --trace <file.json>   write Chrome trace JSON + per-phase timing table\n"
      "  --metrics             print pipeline counters/distributions/histograms\n"
      "  --metrics-json <path> write the full metrics snapshot as JSON (same\n"
      "                        object the serve 'metrics' op returns)\n"
      "  --log-level <level>   off|error|warn|info|debug structured NDJSON\n"
      "                        logging to stderr (default off; PERSPECTOR_LOG\n"
      "                        env sets the same)\n"
      "  --log-file <path>     append log lines to a file instead of stderr\n"
      "parallelism (any command):\n"
      "  --threads N           worker threads (default: hardware concurrency,\n"
      "                        or PERSPECTOR_THREADS; 1 = fully serial).\n"
      "                        Output is bit-identical for every N.\n";
}

int usage() {
  std::cerr << general_usage_text();
  return 1;
}

int cmd_help(int argc, char** argv) {
  if (argc >= 3) {
    if (const Command* command = find_command(argv[2])) {
      std::cout << command->usage;
      return 0;
    }
    std::cerr << "unknown command '" << argv[2] << "'\n";
    std::cerr << general_usage_text();
    return 1;
  }
  std::cout << general_usage_text();
  return 0;
}

int cmd_suites(const Args&) {
  std::cout << "built-in suite models:\n"
            << "  parsec     13 multi-phase parallel applications\n"
            << "  spec17     43 CPU/memory workloads (rate + speed)\n"
            << "  ligra      12 graph algorithms on a shared framework\n"
            << "  lmbench    14 OS/memory micro-probes\n"
            << "  nbench     10 steady-state CPU kernels\n"
            << "  sgxgauge   10 real-world applications\n"
            << "  riotbench   8 IoT stream-processing operators\n"
            << "  sebs        8 serverless functions (cold starts)\n"
            << "  comb        6 edge media/inference pipelines\n"
            << "  splash2    12 1995-era HPC kernels (PARSEC's predecessor)\n";
  return 0;
}

int cmd_demo(const Args& args) {
  std::uint64_t instructions = 500'000;
  if (const auto n = args.get("instructions")) {
    instructions = parse_u64(*n, "instructions");
  }
  const std::string name = args.get("suite").value_or("nbench");
  std::cerr << "simulating " << name << " (" << instructions
            << " instructions per workload)...\n";
  // The same helper the serving engine and jobs use, so `demo` and a
  // served built-in request are byte-identical by construction.
  const auto data = core::simulate_builtin(name, instructions);
  const auto scores = core::Perspector().score_suite(data);
  std::cout << core::suite_report(data, scores);
  return 0;
}

core::CounterMatrix load_csv(const Args& args, const std::string& csv) {
  if (const auto series = args.get("series")) {
    return core::read_with_series_csv(csv, csv, *series);
  }
  return core::read_aggregates_csv(csv, csv);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

core::EventGroup event_group(const std::string& name) {
  try {
    return core::event_group_by_name(name);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

int cmd_score(const Args& args) {
  const auto csv = args.get("csv");
  if (!csv) return usage();
  // Focused scoring works the same as in `compare`: restrict every metric
  // to the selected event group before scoring. Parsed before any I/O so
  // flag mistakes fail fast as usage errors.
  core::PerspectorOptions options;
  options.events = event_group(args.get("events").value_or("all"));
  const auto data = load_csv(args, *csv);
  const auto scores = core::Perspector(options).score_suite(data);
  std::cout << core::suite_report(data, scores);
  return 0;
}

int cmd_compare(const Args& args) {
  const auto csvs = args.get_all("csv");
  if (csvs.size() < 2) {
    std::cerr << "compare needs at least two --csv files\n";
    return 1;
  }
  std::vector<core::CounterMatrix> data;
  for (const auto& csv : csvs) {
    data.push_back(core::read_aggregates_csv(csv, csv));
  }
  core::PerspectorOptions options;
  options.events = event_group(args.get("events").value_or("all"));
  const auto scores = core::Perspector(options).score_suites(data);
  std::cout << core::scores_table(scores).to_text() << core::score_legend()
            << "\n\n";

  const auto ranked = core::rank_suites(scores);
  core::Table table({"rank", "suite", "grade"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    table.add_row({std::to_string(i + 1), ranked[i].suite,
                   core::format_double(ranked[i].grade, 3)});
  }
  std::cout << table.to_text();
  return 0;
}

/// `subset --search scored`: the one-shot reference for the async-job
/// search. Builds the same JobSpec a served generate_submit would carry,
/// runs jobs::run_search synchronously, and prints exactly the two lines
/// the job client prints for a finished job — so the serve smoke test
/// can diff a kill-and-resume served search against this output.
int cmd_subset_search(const Args& args) {
  const std::string mode = args.get("search").value_or("scored");
  if (mode != "scored") {
    throw UsageError("unknown --search mode '" + mode + "' (only: scored)");
  }
  jobs::JobSpec spec;
  const auto suite = args.get("suite");
  const auto csv = args.get("csv");
  if ((suite ? 1 : 0) + (csv ? 1 : 0) != 1) {
    throw UsageError(
        "subset --search scored needs exactly one of --suite or --csv");
  }
  if (suite) {
    spec.builtin = *suite;
    if (const auto n = args.get("instructions")) {
      spec.instructions = parse_u64(*n, "instructions");
    }
  } else {
    spec.csv_name = *csv;
    spec.csv_text = read_file(*csv);
    if (const auto series = args.get("series")) {
      spec.series_text = read_file(*series);
    }
  }
  spec.events = args.get("events").value_or("all");
  spec.target_size = parse_u64(args.get("size").value_or("8"), "size");
  spec.candidates =
      parse_u64(args.get("candidates").value_or("64"), "candidates");
  if (spec.candidates == 0) {
    throw UsageError("option '--candidates' must be >= 1");
  }
  if (const auto seed = args.get("seed")) {
    spec.seed = parse_u64(*seed, "seed");
  }
  const auto best = jobs::run_search(spec);
  if (!best.valid) throw std::runtime_error("search produced no candidate");
  std::cout << "subset:";
  for (const std::string& name : best.names) std::cout << ' ' << name;
  std::cout << "\n";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", best.deviation_pct);
  std::cout << "deviation_pct: " << buf << "\n";
  return 0;
}

int cmd_subset(const Args& args) {
  if (args.has("search")) return cmd_subset_search(args);
  const auto csv = args.get("csv");
  if (!csv) return usage();

  core::SubsetOptions options;
  options.target_size = parse_u64(args.get("size").value_or("8"), "size");
  if (const auto seed = args.get("seed")) {
    options.seed = parse_u64(*seed, "seed");
  }
  const std::string method = args.get("method").value_or("lhs");
  if (method == "lhs") {
    options.method = core::SubsetMethod::Lhs;
  } else if (method == "random") {
    options.method = core::SubsetMethod::Random;
  } else if (method == "prior") {
    options.method = core::SubsetMethod::HierarchicalPrior;
  } else {
    throw UsageError("unknown subset method '" + method + "'");
  }
  const auto data = load_csv(args, *csv);

  core::PerspectorOptions scoring;
  scoring.compute_trend = data.has_series();
  const auto result = core::generate_subset(data, options, scoring);
  std::cout << "selected " << result.names.size() << " of "
            << data.num_workloads() << " workloads ("
            << core::to_string(options.method) << "):\n";
  for (const auto& name : result.names) std::cout << "  " << name << "\n";
  std::cout << "mean score deviation vs full suite: "
            << core::format_double(result.mean_deviation_pct, 2) << "%\n";
  return 0;
}

int cmd_ingest(const Args& args) {
  const auto csv = args.get("csv");
  if (!csv) return usage();
  const auto started = std::chrono::steady_clock::now();
  const auto data = core::read_aggregates_csv(*csv, *csv);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  std::cout << "parsed " << data.num_workloads() << " workloads x "
            << data.num_counters() << " counters from " << *csv << "\n";
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(*csv, ec);
  if (!ec && elapsed > 0.0) {
    char line[96];
    std::snprintf(line, sizeof line, "%.1f MiB in %.3f s (%.1f MiB/s)\n",
                  static_cast<double>(bytes) / 1048576.0, elapsed,
                  static_cast<double>(bytes) / 1048576.0 / elapsed);
    std::cout << line;
  }
  return 0;
}

// ---- serve / client -------------------------------------------------------

volatile std::sig_atomic_t g_terminate = 0;

void handle_terminate(int) { g_terminate = 1; }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_terminate;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking calls must wake up
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

int cmd_serve(const Args& args) {
  serve::EngineOptions engine_options;
  if (const auto mb = args.get("cache-mb")) {
    engine_options.cache_bytes = parse_u64(*mb, "cache-mb") << 20;
  }
  serve::SessionOptions session;
  if (const auto n = args.get("max-queue")) {
    session.max_queue = parse_u64(*n, "max-queue");
    if (session.max_queue == 0) {
      throw UsageError("option '--max-queue' must be >= 1");
    }
  }
  if (const auto n = args.get("max-batch")) {
    session.max_batch = parse_u64(*n, "max-batch");
    if (session.max_batch == 0) {
      throw UsageError("option '--max-batch' must be >= 1");
    }
  }
  if (const auto n = args.get("deadline-ms")) {
    session.default_deadline_ms = parse_u64(*n, "deadline-ms");
  }
  if (const auto n = args.get("slow-ms")) {
    session.slow_request_ms = parse_u64(*n, "slow-ms");
  }
  // Async-job scheduler knobs. These ride inside EngineOptions, so the
  // router path below inherits them (every worker checkpoints into the
  // shared --jobs-dir and resumes from it after a respawn).
  if (const auto dir = args.get("jobs-dir")) {
    engine_options.jobs.checkpoint_dir = *dir;
  }
  if (const auto n = args.get("job-queue")) {
    engine_options.jobs.max_active = parse_u64(*n, "job-queue");
    if (engine_options.jobs.max_active == 0) {
      throw UsageError("option '--job-queue' must be >= 1");
    }
  }
  if (const auto n = args.get("jobs-per-client")) {
    engine_options.jobs.max_active_per_client =
        parse_u64(*n, "jobs-per-client");
    if (engine_options.jobs.max_active_per_client == 0) {
      throw UsageError("option '--jobs-per-client' must be >= 1");
    }
  }
  if (const auto n = args.get("checkpoint-every")) {
    // 0 is meaningful: checkpoint only at terminal transitions.
    engine_options.jobs.checkpoint_every = parse_u64(*n, "checkpoint-every");
  }
  if (args.has("stdio") && args.has("port")) {
    throw UsageError("--stdio and --port are mutually exclusive");
  }

  std::size_t workers = 0;  // 0 = in-process Engine, no router tier
  if (const auto n = args.get("workers")) {
    workers = parse_u64(*n, "workers");
    if (workers > 64) throw UsageError("option '--workers' must be <= 64");
  }
  std::string cache_dir;
  if (const auto dir = args.get("cache-dir")) cache_dir = *dir;
  std::uint64_t store_bytes = 256ull << 20;
  if (const auto mb = args.get("store-mb")) {
    store_bytes = parse_u64(*mb, "store-mb") << 20;
  }

  install_signal_handlers();
  session.terminate = &g_terminate;

  // Workers must fork before the serving threads/caches warm up, so the
  // backend is constructed before any transport work begins.
  std::unique_ptr<serve::ScoreBackend> backend;
  if (workers > 0) {
    serve::RouterOptions router_options;
    router_options.workers = workers;
    router_options.engine = engine_options;
    router_options.router_cache_bytes = engine_options.cache_bytes;
    router_options.cache_dir = cache_dir;
    router_options.store_bytes = store_bytes;
    backend = std::make_unique<serve::Router>(router_options);
  } else {
    engine_options.cache_dir = cache_dir;
    engine_options.store_bytes = store_bytes;
    backend = std::make_unique<serve::Engine>(engine_options);
  }

  if (args.has("stdio")) {
    serve::run_stdio_server(*backend, session);
    return 0;
  }
  serve::ServerOptions server;
  server.session = session;
  if (const auto port = args.get("port")) {
    const std::uint64_t value = parse_u64(*port, "port");
    if (value > 65535) throw UsageError("option '--port' must be <= 65535");
    server.port = static_cast<std::uint16_t>(value);
  }
  serve::run_tcp_server(*backend, server);
  return 0;
}

int cmd_client(const Args& args) {
  serve::ClientRun run;
  run.host = args.get("host").value_or("127.0.0.1");
  const auto port = args.get("port");
  if (!port) throw UsageError("client needs --port (see: perspector serve)");
  const std::uint64_t port_value = parse_u64(*port, "port");
  if (port_value == 0 || port_value > 65535) {
    throw UsageError("option '--port' must be in 1..65535");
  }
  run.port = static_cast<std::uint16_t>(port_value);

  // Async-job flags put the client in job mode: a lockstep conversation
  // (serve/client.hpp) instead of the pipelined score burst. --csv and
  // --suite then describe the submit payload, not a score request.
  const auto watch_id = args.get("watch");
  const auto status_id = args.get("job-status");
  const auto cancel_id = args.get("job-cancel");
  const int job_flags = (args.has("submit") ? 1 : 0) + (watch_id ? 1 : 0) +
                        (status_id ? 1 : 0) + (cancel_id ? 1 : 0) +
                        (args.has("job-list") ? 1 : 0);
  if (job_flags > 1) {
    throw UsageError(
        "--submit, --watch, --job-status, --job-cancel and --job-list are "
        "mutually exclusive");
  }
  if (job_flags == 1) {
    // Job mode sends the one job request and nothing else, so a flag that
    // asks for another request (or a score option, which only --submit
    // reads as its payload) is a usage error rather than dropped.
    std::vector<std::string> other = {
        "ping", "metrics", "stats", "shard-stats", "load-suite",
        "add-workload", "drop-workload", "append-samples", "workload",
        "input", "repeat", "deadline-ms"};
    if (!args.has("submit")) {
      other.insert(other.end(), {"suite", "csv", "series", "instructions",
                                 "events", "size", "candidates", "seed",
                                 "client"});
    }
    for (const std::string& flag : other) {
      if (args.has(flag)) {
        throw UsageError("'--" + flag + "' cannot be combined with a job flag");
      }
    }
    serve::ClientJob job;
    serve::JobRequest& request = job.request;
    job.follow = args.has("follow");
    if (job.follow && !args.has("submit")) {
      throw UsageError("'--follow' needs --submit (use --watch JOB instead)");
    }
    if (args.has("submit")) {
      request.op = serve::JobOp::Submit;
      jobs::JobSpec& spec = request.spec;
      const auto suite = args.get("suite");
      const auto csv = args.get("csv");
      if ((suite ? 1 : 0) + (csv ? 1 : 0) != 1) {
        throw UsageError("'--submit' needs exactly one of --suite or --csv");
      }
      if (suite) {
        spec.builtin = *suite;
        if (const auto n = args.get("instructions")) {
          spec.instructions = parse_u64(*n, "instructions");
        }
      } else {
        spec.csv_name = *csv;
        spec.csv_text = read_file(*csv);
        if (const auto series = args.get("series")) {
          spec.series_text = read_file(*series);
        }
      }
      spec.events = args.get("events").value_or("all");
      spec.target_size = parse_u64(args.get("size").value_or("8"), "size");
      spec.candidates =
          parse_u64(args.get("candidates").value_or("64"), "candidates");
      if (spec.candidates == 0) {
        throw UsageError("option '--candidates' must be >= 1");
      }
      if (const auto seed = args.get("seed")) {
        spec.seed = parse_u64(*seed, "seed");
      }
      spec.client = args.get("client").value_or("");
    } else if (watch_id) {
      request.op = serve::JobOp::Watch;
      request.job = *watch_id;
    } else if (status_id) {
      request.op = serve::JobOp::Status;
      request.job = *status_id;
    } else if (cancel_id) {
      request.op = serve::JobOp::Cancel;
      request.job = *cancel_id;
    } else {
      request.op = serve::JobOp::List;
    }
    if (const auto n = args.get("watch-interval-ms")) {
      job.watch_interval_ms = parse_u64(*n, "watch-interval-ms");
    }
    run.job = std::move(job);
    run.shutdown = args.has("shutdown");
    std::signal(SIGPIPE, SIG_IGN);
    return serve::run_client(run, std::cout, std::cerr);
  }

  // The mirror of the check above: an option only a job request reads is
  // a usage error without a job flag, rather than dropped.
  for (const char* flag : {"follow", "size", "candidates", "seed", "client",
                           "watch-interval-ms"}) {
    if (args.has(flag)) {
      throw UsageError("'--" + std::string(flag) +
                       "' needs a job flag (--submit, --watch, "
                       "--job-status, --job-cancel or --job-list)");
    }
  }

  // Live-suite mutation flags (at most one per invocation); the payload
  // rides on --csv/--series, which then belong to the mutation rather
  // than the score request.
  const auto load_suite = args.get("load-suite");
  const auto add_workload = args.get("add-workload");
  const auto drop_workload = args.get("drop-workload");
  const auto append_samples = args.get("append-samples");
  const int mutate_flags = (load_suite ? 1 : 0) + (add_workload ? 1 : 0) +
                           (drop_workload ? 1 : 0) + (append_samples ? 1 : 0);
  if (mutate_flags > 1) {
    throw UsageError(
        "--load-suite, --add-workload, --drop-workload and --append-samples "
        "are mutually exclusive");
  }
  const auto suite = args.get("suite");
  const auto csv = args.get("csv");
  const auto input = args.get("input");
  const auto series = args.get("series");
  std::uint64_t deadline_ms = 0;
  if (const auto n = args.get("deadline-ms")) {
    deadline_ms = parse_u64(*n, "deadline-ms");
  }
  if (mutate_flags == 1) {
    serve::MutateRequest mutate;
    mutate.events = args.get("events").value_or("all");
    mutate.deadline_ms = deadline_ms;
    if (load_suite || add_workload) {
      mutate.op = load_suite ? serve::MutateOp::LoadSuite
                             : serve::MutateOp::AddWorkload;
      mutate.suite = load_suite ? *load_suite : *add_workload;
      if (!csv) {
        throw UsageError("'--" + std::string(load_suite ? "load-suite"
                                                        : "add-workload") +
                         "' needs --csv <payload>");
      }
      mutate.csv_text = read_file(*csv);
      if (series) mutate.series_text = read_file(*series);
    } else if (drop_workload) {
      mutate.op = serve::MutateOp::DropWorkload;
      mutate.suite = *drop_workload;
      const auto victim = args.get("workload");
      if (!victim) {
        throw UsageError("'--drop-workload' needs --workload <name>");
      }
      mutate.workload = *victim;
    } else {
      mutate.op = serve::MutateOp::AppendSamples;
      mutate.suite = *append_samples;
      if (!series) {
        throw UsageError("'--append-samples' needs --series <payload>");
      }
      mutate.series_text = read_file(*series);
    }
    run.mutations.push_back(std::move(mutate));
  }

  // Score request: --suite names a built-in (or a resident suite loaded
  // above), --csv ships raw CSV text, --input parses a CSV client-side and
  // ships the parsed matrix losslessly.
  const bool csv_is_payload = mutate_flags == 1 && !drop_workload;
  const bool csv_scores = csv && !csv_is_payload;
  if ((suite ? 1 : 0) + (csv_scores ? 1 : 0) + (input ? 1 : 0) > 1) {
    throw UsageError("--suite, --csv and --input are mutually exclusive");
  }
  if (suite || csv_scores || input) {
    serve::ScoreRequest score;
    if (suite) {
      score.builtin = *suite;
      if (const auto n = args.get("instructions")) {
        score.instructions = parse_u64(*n, "instructions");
      }
    } else if (input) {
      // Parse the file client-side, then forward the parsed matrix as
      // lossless (%.17g) CSV — byte-identical scoring to --csv, without
      // the server re-validating a giant raw payload.
      score.csv_name = *input;
      score.csv_text = core::write_aggregates_csv_text(
          core::read_aggregates_csv(*input, *input));
    } else {
      score.csv_name = *csv;
      score.csv_text = read_file(*csv);
      if (series) score.series_text = read_file(*series);
    }
    score.events = args.get("events").value_or("all");
    score.deadline_ms = deadline_ms;
    run.score = std::move(score);
    run.repeat = parse_u64(args.get("repeat").value_or("1"), "repeat");
    if (run.repeat == 0) throw UsageError("option '--repeat' must be >= 1");
  }
  run.ping = args.has("ping");
  run.metrics = args.has("metrics");
  run.stats = args.has("stats");
  run.shard_stats = args.has("shard-stats");
  run.shutdown = args.has("shutdown");
  if (run.mutations.empty() && !run.score && !run.ping && !run.metrics &&
      !run.stats && !run.shard_stats && !run.shutdown) {
    throw UsageError(
        "client needs something to send: --suite/--csv/--input, a mutation "
        "flag, --ping, --metrics, --stats, --shard-stats, or --shutdown");
  }

  std::signal(SIGPIPE, SIG_IGN);
  return serve::run_client(run, std::cout, std::cerr);
}

// After a successful command: per-phase timings (either flag), the trace
// file (--trace), the metrics tables (--metrics), and the machine-readable
// snapshot (--metrics-json).
void emit_observability(const Args& args) {
  const auto trace_path = args.get("trace");
  const auto metrics_json = args.get("metrics-json");
  const bool metrics = args.has("metrics");
  if (!trace_path && !metrics && !metrics_json) return;

  const auto& tracer = obs::Tracer::instance();
  const auto summary = tracer.phase_summary();
  if (!summary.empty() && (trace_path || metrics)) {
    std::cout << "\n--- per-phase timing (nested spans overlap) ---\n"
              << core::phase_timing_table(summary).to_text();
  }
  if (metrics) {
    std::cout << "\n--- pipeline metrics ---\n"
              << core::counters_table(obs::counters_snapshot()).to_text();
    const auto histograms = obs::histograms_snapshot();
    if (!histograms.empty()) {
      std::cout << "\n" << core::histograms_table(histograms).to_text();
    }
  }
  if (metrics_json) {
    // Byte-for-byte the serve `metrics` op's response (without an id), so
    // one-shot runs and served runs can be diffed with the same tooling.
    std::ofstream out(*metrics_json);
    if (!out) {
      throw std::runtime_error("cannot open '" + *metrics_json +
                               "' for writing");
    }
    out << serve::serialize_metrics("");
    std::cerr << "metrics snapshot written to " << *metrics_json << "\n";
  }
  if (trace_path) {
    tracer.write_chrome_trace(*trace_path);
    std::cerr << "trace written to " << *trace_path
              << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
  }
}

/// Every command: its usage text next to the options it accepts.
const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"suites",
       "usage: perspector suites\n"
       "  List the built-in suite models available to demo/serve.\n",
       {},
       cmd_suites},
      {"demo",
       "usage: perspector demo [--suite <name>] [--instructions N]\n"
       "  Simulate a built-in suite (default: nbench, 500000 instructions\n"
       "  per workload) and print its full scoring report.\n",
       {"suite", "instructions"},
       cmd_demo},
      {"score",
       "usage: perspector score --csv <agg.csv> [--series <ser.csv>]\n"
       "                        [--events all|llc|tlb|branch]\n"
       "  Score one suite from CSV counter data. The aggregate file is\n"
       "  'workload,<counter>,...'; the optional series file is the long\n"
       "  'workload,counter,sample,value' format (enables TrendScore).\n",
       {"csv", "series", "events"},
       cmd_score},
      {"compare",
       "usage: perspector compare --csv <a.csv> --csv <b.csv> ...\n"
       "                          [--events all|llc|tlb|branch]\n"
       "  Score several suites together (joint normalization) and rank\n"
       "  them by overall grade.\n",
       {"csv", "events"},
       cmd_compare},
      {"subset",
       "usage: perspector subset --csv <agg.csv> --size K\n"
       "                         [--method lhs|random|prior] [--seed S]\n"
       "       perspector subset --search scored --size K\n"
       "                         (--suite <name> [--instructions N]\n"
       "                          | --csv <agg.csv> [--series <ser.csv>])\n"
       "                         [--candidates N] [--seed S]\n"
       "                         [--events all|llc|tlb|branch]\n"
       "  Select a representative K-workload subset and report the mean\n"
       "  score deviation against the full suite.\n"
       "  --search scored runs the async-job candidate search (the same\n"
       "  code path 'serve' jobs execute) synchronously and prints the\n"
       "  reference result:\n"
       "      subset: <name> <name> ...\n"
       "      deviation_pct: <value>\n"
       "  byte-identical to what 'client --submit --follow' prints for\n"
       "  the same spec, so scripts can diff served against one-shot.\n"
       "  --candidates N   LHS candidates to evaluate (default 64)\n",
       {"csv", "series", "size", "method", "seed", "search", "suite",
        "instructions", "candidates", "events"},
       cmd_subset},
      {"ingest",
       "usage: perspector ingest --csv <agg.csv>\n"
       "  Parse an aggregates CSV through the CSV reader and print the\n"
       "  parsed shape and throughput. Files longer than one 1 MiB chunk\n"
       "  are read on an IO thread overlapped with parsing.\n",
       {"csv"},
       cmd_ingest},
      {"serve",
       "usage: perspector serve [--port N | --stdio] [--threads N]\n"
       "                        [--cache-mb N] [--max-queue N]\n"
       "                        [--max-batch N] [--deadline-ms N]\n"
       "                        [--workers N] [--cache-dir PATH]\n"
       "  Run the resident scoring service. Default transport is loopback\n"
       "  TCP (--port 0 picks a free port and prints it); --stdio speaks\n"
       "  the same newline-delimited-JSON protocol over stdin/stdout.\n"
       "  --cache-mb N      result-cache budget in MiB (default 64; 0 off)\n"
       "  --max-queue N     admission queue depth (default 64); overflow\n"
       "                    is answered with a structured 'overloaded' error\n"
       "  --max-batch N     max score requests per engine pass (default 16)\n"
       "  --deadline-ms N   default queue-wait deadline (default 0 = none)\n"
       "  --slow-ms N       warn-log requests slower than N ms (default 0\n"
       "                    = off; needs --log-level warn or higher)\n"
       "  --workers N       fork N single-threaded worker processes and\n"
       "                    shard requests across them by content digest\n"
       "                    (default 0 = score in-process); crashed\n"
       "                    workers are restarted, responses are\n"
       "                    byte-identical at any worker count\n"
       "  --cache-dir PATH  disk-backed result store (survives restarts;\n"
       "                    one live process per directory)\n"
       "  --store-mb N      on-disk budget for --cache-dir (default 256)\n"
       "  Async jobs (generate_submit/job_status/job_watch/job_cancel/\n"
       "  job_list ops; see README 'Async jobs'):\n"
       "  --jobs-dir PATH   per-job checkpoint logs; a restarted worker\n"
       "                    resumes its jobs from here (empty = jobs run\n"
       "                    without checkpoints and cannot resume)\n"
       "  --job-queue N     max active (queued+running) jobs before\n"
       "                    submits get a structured 'overloaded' error\n"
       "                    (default 256)\n"
       "  --jobs-per-client N  fair-share cap on active jobs per client\n"
       "                    bucket (default 64)\n"
       "  --checkpoint-every N  candidates between checkpoints (default\n"
       "                    16; 0 = checkpoint only at terminal states)\n"
       "  SIGTERM (or EOF in --stdio mode) drains admitted requests and\n"
       "  exits 0. Add --metrics to print the serve.* counters on exit.\n",
       {"port", "stdio", "cache-mb", "max-queue", "max-batch", "deadline-ms",
        "slow-ms", "workers", "cache-dir", "store-mb", "jobs-dir",
        "job-queue", "jobs-per-client", "checkpoint-every"},
       cmd_serve},
      {"client",
       "usage: perspector client --port N [--host H]\n"
       "                         (--suite <name> [--instructions N]\n"
       "                          | --csv <file> [--series <file>]\n"
       "                          | --input <file>)\n"
       "                         [--load-suite NAME | --add-workload NAME\n"
       "                          | --drop-workload NAME --workload W\n"
       "                          | --append-samples NAME]\n"
       "                         [--events all|llc|tlb|branch]\n"
       "                         [--repeat K] [--deadline-ms N]\n"
       "                         [--submit [--follow] [--size K]\n"
       "                          [--candidates N] [--seed S]\n"
       "                          [--client NAME]\n"
       "                          | --watch JOB | --job-status JOB\n"
       "                          | --job-cancel JOB | --job-list]\n"
       "                         [--watch-interval-ms N]\n"
       "                         [--ping] [--metrics] [--stats]\n"
       "                         [--shard-stats] [--shutdown]\n"
       "  Scripted client for 'perspector serve'. Pipelines K copies of\n"
       "  the score request (default 1), prints each report to stdout\n"
       "  (byte-identical to the one-shot command), and cache/error\n"
       "  status (with each response's trace id) to stderr.\n"
       "  --input <file> parses the CSV client-side and sends the\n"
       "  parsed matrix as a lossless inline request (large files\n"
       "  never buffer twice as raw text).\n"
       "  Live-suite mutation flags send one mutate request before any\n"
       "  scores: --load-suite/--add-workload take their payload from\n"
       "  --csv/--series, --append-samples from --series, and\n"
       "  --drop-workload names the victim via --workload. A later\n"
       "  '--suite NAME' score resolves the resident suite by name.\n"
       "  --metrics appends a server-counter request, --stats a\n"
       "  latency-histogram request (p50/p90/p99/p99.9), --shard-stats\n"
       "  a worker-topology request ('worker.N.pid P' lines; router\n"
       "  tier), --shutdown asks the server to exit after responding.\n"
       "  Async-job flags switch to a lockstep conversation (one request,\n"
       "  one response): --submit sends a generate_submit built from\n"
       "  --suite/--csv plus --size/--candidates/--seed/--client and\n"
       "  prints 'job: <id>'; --follow then polls job_watch every\n"
       "  --watch-interval-ms (default 100) until the job finishes,\n"
       "  streaming progress to stderr and printing the final\n"
       "  'subset:'/'deviation_pct:' lines (byte-identical to\n"
       "  'subset --search scored'). --watch JOB resumes watching an\n"
       "  existing job; --job-status/--job-cancel/--job-list print one\n"
       "  status line per job.\n"
       "  Exits 0 when every response was ok, 3 otherwise.\n",
       {"host", "port", "suite", "instructions", "csv", "series", "input",
        "load-suite", "add-workload", "drop-workload", "workload",
        "append-samples", "events", "repeat", "deadline-ms", "submit",
        "follow", "size", "candidates", "seed", "client", "watch",
        "job-status", "job-cancel", "job-list", "watch-interval-ms", "ping",
        "stats", "shard-stats", "shutdown"},
       cmd_client},
      {"help",
       "usage: perspector help [<command>]\n",
       {},
       nullptr},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return cmd_help(argc, argv);
  }
  // `<command> --help` prints that command's usage and exits 0, before
  // flag parsing can mistake "--help" for an option missing its value.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      const Command* known = find_command(command);
      std::cout << (known ? known->usage.c_str() : general_usage_text());
      return 0;
    }
  }
  const Command* known = find_command(command);
  if (known == nullptr) {
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  }
  try {
    const Args args = parse_args(argc, argv, *known);
    if (args.has("trace") || args.has("metrics")) {
      obs::Tracer::instance().enable();
    }
    // --log-level beats PERSPECTOR_LOG (which Logger::instance() already
    // consumed); --log-file redirects the NDJSON stream away from stderr.
    if (const auto level = args.get("log-level")) {
      const auto parsed = obs::parse_log_level(*level);
      if (!parsed) {
        throw UsageError(
            "option '--log-level' expects off|error|warn|info|debug, got '" +
            *level + "'");
      }
      obs::Logger::instance().set_level(*parsed);
    }
    if (const auto path = args.get("log-file")) {
      if (!obs::Logger::instance().set_path(*path)) {
        throw std::runtime_error("cannot open log file '" + *path + "'");
      }
    }
    // --threads beats PERSPECTOR_THREADS beats hardware concurrency; the
    // strict parse keeps "--threads 1x" a usage error, and 0 is rejected
    // because "--threads 1" is the documented serial escape hatch.
    if (const auto threads = args.get("threads")) {
      const std::uint64_t n = parse_u64(*threads, "threads");
      if (n == 0) {
        throw UsageError("option '--threads' must be >= 1 (1 = serial)");
      }
      par::set_thread_count(static_cast<std::size_t>(n));
    }

    const int rc = known->run(args);
    if (rc == 0 || command == "client") emit_observability(args);
    return rc;
  } catch (const UsageError& e) {
    std::cerr << "perspector: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "perspector: " << e.what() << "\n";
    return 2;
  }
}
