// Wire golden: FNV-1a digests of the exact bytes the serving protocol
// produces.
//
//   * ServeWireGolden.SessionReplies runs a fixed NDJSON script through
//     serve::Session over an Engine and digests every reply line. The
//     script covers every op in its ok form and in each error form a
//     client can meet: a line that is not JSON, an unknown op, a missing
//     field, an overloaded queue, a queue-wait timeout, an unknown
//     resident suite and an unknown job.
//   * ServeWireGolden.ForwardedRequestLines digests the line every op is
//     forwarded as by serialize_{score,mutate,job}_request.
//
// Any change to the protocol code that moves a byte of either fails here,
// so a refactor of the request and reply plumbing can be checked against
// the bytes of the code before it. The metrics, stats and shard_stats
// replies carry timings and a pid; only their fixed opening is digested.
#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/counter_matrix.hpp"
#include "core/io.hpp"
#include "jobs/job.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perspector::serve {
namespace {

constexpr std::uint64_t kInstructions = 20'000;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char ch : bytes) {
    hash ^= ch;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

/// Runs one session with `input` in a temporary file (so the whole
/// script is ready before the first pass, at any size) and returns the
/// reply bytes, also collected in a temporary file.
std::string run_script(Engine& engine, const std::string& input,
                       const SessionOptions& options) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  if (in == nullptr || out == nullptr) {
    throw std::runtime_error("tmpfile failed");
  }
  std::fwrite(input.data(), 1, input.size(), in);
  std::fflush(in);
  std::rewind(in);
  run_session(engine, ::fileno(in), ::fileno(out), options);
  std::rewind(out);
  std::string bytes;
  char chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, out)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(in);
  std::fclose(out);
  return bytes;
}

/// Keeps each reply line up to the first key whose value depends on the
/// host (timings, pids); every other line is kept whole.
std::string stable_lines(const std::string& bytes) {
  std::string out;
  std::size_t start = 0;
  while (start < bytes.size()) {
    std::size_t end = bytes.find('\n', start);
    if (end == std::string::npos) end = bytes.size();
    std::string line = bytes.substr(start, end - start);
    for (const char* key : {"\"counters\":", "\"histograms\":", "\"pid\":"}) {
      const std::size_t at = line.find(key);
      if (at != std::string::npos) line.resize(at + std::string(key).size());
    }
    out += line;
    out += '\n';
    start = end + 1;
  }
  return out;
}

struct Payloads {
  std::string base_agg, base_ser, add_agg, add_ser, append_ser;
  std::string nbench_agg, nbench_ser;
  std::string added;  // the workload add_workload brings in

  Payloads() {
    const core::CounterMatrix nbench =
        core::simulate_builtin("nbench", kInstructions);
    nbench_agg = core::write_aggregates_csv_text(nbench);
    nbench_ser = core::write_series_csv_text(nbench);
    const core::CounterMatrix lmbench =
        core::simulate_builtin("lmbench", kInstructions);
    const core::CounterMatrix base = lmbench.select_workloads({0, 1, 2, 3, 4});
    base_agg = core::write_aggregates_csv_text(base);
    base_ser = core::write_series_csv_text(base);
    const core::CounterMatrix extra = lmbench.select_workloads({5});
    add_agg = core::write_aggregates_csv_text(extra);
    add_ser = core::write_series_csv_text(extra);
    added = extra.workload_names()[0];
    // One more sample for the first base workload: the series rows of
    // workload 0 re-stamped one sample past its last.
    const std::string name = base.workload_names()[0];
    const std::size_t samples = base.series(0, 0).size();
    append_ser = "workload,counter,sample,value\n";
    for (std::size_t c = 0; c < base.num_counters(); ++c) {
      append_ser += name + "," + base.counter_names()[c] + "," +
                    std::to_string(samples) + ",1.5\n";
    }
  }
};

std::string quoted(const std::string& text) { return json::quoted(text); }

TEST(ServeWireGolden, SessionReplies) {
  const Payloads p;
  Engine engine;

  jobs::JobSpec spec;
  spec.builtin = "nbench";
  spec.instructions = kInstructions;
  spec.target_size = 4;
  spec.candidates = 8;
  spec.seed = 7;
  spec.client = "alice";
  const std::string job = jobs::derive_job_id(spec);
  const std::string submit =
      R"("op":"generate_submit","suite":"nbench","instructions":20000,"size":4,"candidates":8,"seed":7,"client":"alice"})";

  // Session 1: every op, ok and error, with an unbounded queue.
  std::string script;
  script += "not json\n";
  script += R"({"id":"u","op":"dance"})" "\n";
  script += R"({"id":"mf","op":"score"})" "\n";
  script += R"({"id":"p","op":"ping"})" "\n";
  script += R"({"id":"s1","op":"score","suite":"nbench","instructions":20000,"events":"llc"})" "\n";
  script += R"({"id":7,"name":"mini","csv":)" + quoted(p.nbench_agg) +
            R"(,"series_csv":)" + quoted(p.nbench_ser) + "}\n";
  script += R"({"id":"7b","name":"mini","csv":)" + quoted(p.nbench_agg) +
            R"(,"series_csv":)" + quoted(p.nbench_ser) + "}\n";
  script += R"({"id":"s2","op":"score","suite":"nosuch"})" "\n";
  script += R"({"id":"s3","suite":"nbench","instructions":20000,"events":"bogus"})" "\n";
  script += R"({"id":"l1","op":"load_suite","suite":"live","csv":)" +
            quoted(p.base_agg) + R"(,"series_csv":)" + quoted(p.base_ser) +
            "}\n";
  script += R"({"id":"l2","op":"add_workload","suite":"live","csv":)" +
            quoted(p.add_agg) + R"(,"series_csv":)" + quoted(p.add_ser) +
            "}\n";
  script += R"({"id":"l3","op":"append_samples","suite":"live","series_csv":)" +
            quoted(p.append_ser) + "}\n";
  script += R"({"id":"l4","op":"drop_workload","suite":"live","workload":)" +
            quoted(p.added) + "}\n";
  script += R"({"id":"l5","suite":"live","events":"tlb"})" "\n";
  script += R"({"id":"l6","op":"drop_workload","suite":"ghost","workload":"a"})" "\n";
  script += R"({"id":"l7","op":"drop_workload","suite":"live","workload":"nope"})" "\n";
  script += R"({"id":"l8","op":"load_suite","suite":"bad","csv":"workload,c0\na,nan\n"})" "\n";
  script += R"({"id":"l9","op":"append_samples","suite":"live"})" "\n";
  script += R"({"id":"j1",)" + submit + "\n";
  script += R"({"id":"j2",)" + submit + "\n";
  script += R"({"id":"j3","op":"generate_submit","suite":"nbench","size":2})" "\n";
  script += R"({"id":"j4","op":"job_status","job":")" + job + "\"}\n";
  script += R"({"id":"j5","op":"job_watch","job":")" + job + "\",\"from\":0}\n";
  script += R"({"id":"j6","op":"job_status","job":"0000000000000000"})" "\n";
  script += R"({"id":"j7","op":"job_watch"})" "\n";
  script += R"({"id":"j8","op":"job_list"})" "\n";
  script += R"({"id":"j9","op":"job_cancel","job":")" + job + "\"}\n";
  script += R"({"id":"m","op":"metrics"})" "\n";
  script += R"({"id":"st","op":"stats"})" "\n";
  script += R"({"id":"sh","op":"shard_stats"})" "\n";
  script += R"({"id":"bye","op":"shutdown"})" "\n";
  std::string transcript = run_script(engine, script, SessionOptions{});

  // Session 2: a two-slot queue; the third and fourth admissions are
  // answered overloaded.
  SessionOptions tight;
  tight.max_queue = 2;
  std::string overload;
  overload += R"({"id":"o1","suite":"nbench","instructions":20000})" "\n";
  overload += R"({"id":"o2","op":"load_suite","suite":"live2","csv":)" +
              quoted(p.base_agg) + "}\n";
  overload += R"({"id":"o3","suite":"nbench","instructions":20000})" "\n";
  overload += R"({"id":"o4","op":"drop_workload","suite":"live2","workload":"x"})" "\n";
  transcript += run_script(engine, overload, tight);

  // Session 3: a clock that advances 100 ms per reading, so a 50 ms
  // deadline always expires in the queue and a long one never does.
  SessionOptions clocked;
  auto ticks = std::make_shared<int>(0);
  clocked.now = [ticks] {
    *ticks += 1;
    return std::chrono::steady_clock::time_point(
        std::chrono::milliseconds(100 * *ticks));
  };
  std::string timed;
  timed += R"({"id":"t1","suite":"nbench","instructions":20000,"deadline_ms":50})" "\n";
  timed += R"({"id":"t2","op":"add_workload","suite":"live","csv":)" +
           quoted(p.add_agg) + R"(,"deadline_ms":50})" "\n";
  timed += R"({"id":"t3","suite":"nbench","instructions":20000,"deadline_ms":100000})" "\n";
  transcript += run_script(engine, timed, clocked);

  transcript = stable_lines(transcript);
  EXPECT_EQ(hex(fnv1a(transcript)), "e37e85a599812d67") << transcript;
}

TEST(ServeWireGolden, ForwardedRequestLines) {
  const Payloads p;
  std::string lines;

  ScoreRequest builtin;
  builtin.id = "f1";
  builtin.builtin = "spec17";
  builtin.instructions = 40'000;
  builtin.events = "llc";
  builtin.trace_id = 0x9f86d081884c7d65ull;
  builtin.content_key = Key128{0x0123456789abcdefull, 0xfedcba9876543210ull};
  lines += serialize_score_request(builtin);

  ScoreRequest csv;
  csv.id = "f2";
  csv.csv_name = "mini";
  csv.csv_text = p.base_agg;
  csv.series_text = p.base_ser;
  lines += serialize_score_request(csv);

  ScoreRequest matrix;
  matrix.data = std::make_shared<const core::CounterMatrix>(
      core::read_with_series_csv_text("matrix", p.base_agg, p.base_ser));
  matrix.trace_id = 1;
  lines += serialize_score_request(matrix);

  const MutateOp mutate_ops[] = {MutateOp::LoadSuite, MutateOp::AddWorkload,
                                 MutateOp::DropWorkload,
                                 MutateOp::AppendSamples};
  for (const MutateOp op : mutate_ops) {
    MutateRequest mutate;
    mutate.id = "m";
    mutate.op = op;
    mutate.suite = "live";
    mutate.events = "branch";
    mutate.trace_id = 0xabcdef0123456789ull;
    if (op == MutateOp::LoadSuite || op == MutateOp::AddWorkload) {
      mutate.csv_text = p.add_agg;
    }
    if (op != MutateOp::DropWorkload) mutate.series_text = p.add_ser;
    if (op == MutateOp::DropWorkload) mutate.workload = "w0";
    lines += serialize_mutate_request(mutate);
  }

  const JobOp job_ops[] = {JobOp::Submit, JobOp::Status, JobOp::Watch,
                           JobOp::Cancel, JobOp::List};
  for (const JobOp op : job_ops) {
    JobRequest request;
    request.id = "j";
    request.op = op;
    request.trace_id = 0x1122334455667788ull;
    request.spec.builtin = "nbench";
    request.spec.instructions = kInstructions;
    request.spec.client = "bob";
    request.job = "00112233445566ff";
    request.from = 3;
    lines += serialize_job_request(request);
  }
  JobRequest uploaded;
  uploaded.op = JobOp::Submit;
  uploaded.spec.csv_name = "up";
  uploaded.spec.csv_text = p.base_agg;
  uploaded.spec.series_text = p.base_ser;
  uploaded.spec.seed = 9;
  lines += serialize_job_request(uploaded);
  JobRequest bare;
  bare.op = JobOp::List;
  lines += serialize_job_request(bare);

  EXPECT_EQ(hex(fnv1a(lines)), "c46a278f36998593") << lines;
}

}  // namespace
}  // namespace perspector::serve
