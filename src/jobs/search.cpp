#include "jobs/search.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/event_group.hpp"
#include "core/io.hpp"
#include "core/subset.hpp"
#include "sampling/latin_hypercube.hpp"
#include "sampling/representative.hpp"
#include "stats/normalize.hpp"

namespace perspector::jobs {

namespace {

std::uint64_t fnv1a64(std::uint64_t hash, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fold_str(std::uint64_t hash, const std::string& s) {
  const std::uint64_t len = s.size();
  hash = fnv1a64(hash, &len, sizeof len);
  return fnv1a64(hash, s.data(), s.size());
}

std::uint64_t fold_u64(std::uint64_t hash, std::uint64_t v) {
  return fnv1a64(hash, &v, sizeof v);
}

/// Digests the suite-determining spec fields into one 64-bit stream
/// rooted at `basis` (two bases give the two key words).
std::uint64_t digest_suite(const JobSpec& spec, std::uint64_t basis) {
  std::uint64_t hash = basis;
  hash = fold_str(hash, spec.builtin);
  hash = fold_u64(hash, spec.instructions);
  hash = fold_str(hash, spec.csv_name);
  hash = fold_str(hash, spec.csv_text);
  hash = fold_str(hash, spec.series_text);
  hash = fold_str(hash, spec.events);
  return hash;
}

/// The suite digest extended by the rest of the outcome-determining
/// fields.
std::uint64_t digest_spec(const JobSpec& spec, std::uint64_t basis) {
  std::uint64_t hash = digest_suite(spec, basis);
  hash = fold_u64(hash, spec.target_size);
  hash = fold_u64(hash, spec.seed);
  return hash;
}

constexpr std::uint64_t kBasisHi = 0xcbf29ce484222325ull;
constexpr std::uint64_t kBasisLo = 0x84222325cbf29ce4ull;

core::CounterMatrix resolve_suite(const JobSpec& spec) {
  if (!spec.builtin.empty()) {
    return core::simulate_builtin(spec.builtin, spec.instructions);
  }
  if (spec.csv_text.empty()) {
    throw std::invalid_argument(
        "job carries neither a built-in suite name nor CSV data");
  }
  const std::string name =
      spec.csv_name.empty() ? "uploaded" : spec.csv_name;
  if (!spec.series_text.empty()) {
    return core::read_with_series_csv_text(name, spec.csv_text,
                                           spec.series_text);
  }
  return core::read_aggregates_csv_text(name, spec.csv_text);
}

std::vector<stats::Ecdf> column_cdfs(const la::Matrix& normalized) {
  std::vector<stats::Ecdf> cdfs;
  cdfs.reserve(normalized.cols());
  for (std::size_t c = 0; c < normalized.cols(); ++c) {
    cdfs.emplace_back(normalized.col_copy(c));
  }
  return cdfs;
}

core::PerspectorOptions scoring_options(const JobSpec& spec,
                                        const core::CounterMatrix& suite) {
  core::PerspectorOptions options;
  options.events = core::event_group_by_name(spec.events);
  options.compute_trend = suite.has_series();
  return options;
}

}  // namespace

SearchContext::SearchContext(const JobSpec& spec)
    : suite(resolve_suite(spec)),
      normalized(stats::minmax_normalize_columns(suite.values())),
      cdfs(column_cdfs(normalized)),
      engine(scoring_options(spec, suite)),
      full(engine.score_reference(suite, workspace)) {}

CandidateKey context_key(const JobSpec& spec) {
  return {digest_suite(spec, kBasisHi), digest_suite(spec, kBasisLo)};
}

SubsetSearch::SubsetSearch(const JobSpec& spec,
                           std::shared_ptr<const SearchContext> context)
    : spec_(spec), context_(std::move(context)) {
  if (spec_.candidates == 0) {
    throw std::invalid_argument("search needs candidates > 0");
  }
  if (spec_.target_size < 4) {
    throw std::invalid_argument(
        "target size must be >= 4 (ClusterScore needs it)");
  }
  if (spec_.target_size >= suite_size()) {
    throw std::invalid_argument(
        "target size must be smaller than the suite (" +
        std::to_string(suite_size()) + " workloads)");
  }
  spec_digest_hi_ = digest_spec(spec_, kBasisHi);
  spec_digest_lo_ = digest_spec(spec_, kBasisLo);
}

SubsetSearch::SubsetSearch(const JobSpec& spec)
    : SubsetSearch(spec, std::make_shared<const SearchContext>(spec)) {}

CandidateKey SubsetSearch::candidate_key(std::uint64_t index) const {
  CandidateKey key;
  key.hi = fold_u64(spec_digest_hi_, index);
  key.lo = fold_u64(spec_digest_lo_, index);
  return key;
}

CandidateOutcome SubsetSearch::evaluate(std::uint64_t index) const {
  const SearchContext& context = *context_;
  la::Matrix targets = sampling::latin_hypercube_candidate(
      spec_.target_size, context.normalized.cols(), spec_.seed, index);
  // Quantile-map each unit-cube coordinate through the suite's own
  // per-counter distribution (paper Section IV-C; see select_lhs).
  for (std::size_t c = 0; c < targets.cols(); ++c) {
    for (std::size_t t = 0; t < targets.rows(); ++t) {
      targets(t, c) = context.cdfs[c].quantile(targets(t, c));
    }
  }
  auto picked = sampling::match_nearest_distinct(targets, context.normalized);
  std::sort(picked.begin(), picked.end());

  CandidateOutcome outcome;
  outcome.indices.assign(picked.begin(), picked.end());
  for (std::size_t i : picked) {
    outcome.names.push_back(context.suite.workload_names()[i]);
  }

  const core::SuiteScores subset =
      context.engine.score_subset(context.full, picked, context.workspace);
  core::ScoreDeviation deviation =
      core::score_deviation(context.full.scores, subset);
  outcome.per_score_deviation_pct = std::move(deviation.per_score_pct);
  outcome.deviation_pct = deviation.mean_pct;
  return outcome;
}

BestCandidate run_search(const JobSpec& spec) {
  SubsetSearch search(spec);
  BestCandidate best;
  for (std::uint64_t i = 0; i < spec.candidates; ++i) {
    CandidateOutcome outcome = search.evaluate(i);
    if (!best.valid || outcome.deviation_pct < best.deviation_pct) {
      best.valid = true;
      best.candidate = i;
      best.deviation_pct = outcome.deviation_pct;
      best.per_score_deviation_pct = std::move(outcome.per_score_deviation_pct);
      best.indices = std::move(outcome.indices);
      best.names = std::move(outcome.names);
    }
  }
  return best;
}

}  // namespace perspector::jobs
