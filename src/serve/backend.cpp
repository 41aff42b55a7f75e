#include "serve/backend.hpp"

#include <utility>

#include "core/counter_matrix.hpp"

namespace perspector::serve {

ScoreResponse cache_hit_reply(const ScoreRequest& request,
                              std::string report) {
  ScoreResponse response;
  response.id = request.id;
  response.trace_id = request.trace_id;
  response.ok = true;
  response.cache_hit = true;
  response.report = std::move(report);
  return response;
}

JobResponse ScoreBackend::job(const JobRequest& request) {
  return error_reply<JobResponse>(request, "bad_request",
                                  "this backend does not support async jobs");
}

bool ScoreBackend::jobs_runnable() { return false; }

void ScoreBackend::jobs_step(const std::function<bool()>&) {}

MutateResponse ScoreBackend::mutate(const MutateRequest& request) {
  return error_reply<MutateResponse>(
      request, "bad_request",
      "this backend does not support resident-suite mutation");
}

Key128 compute_content_key(const ScoreRequest& request, DigestCache* digests) {
  if (!request.builtin.empty()) {
    return ContentHasher{}
        .str("builtin-suite")
        .str(request.builtin)
        .u64(request.instructions)
        .digest();
  }
  if (!request.csv_text.empty()) {
    return ContentHasher{}
        .str("csv-suite")
        .str(request.csv_name)
        .str(request.csv_text)
        .str(request.series_text)
        .digest();
  }
  if (request.data) {
    if (digests != nullptr) return digests->matrix_digest(request.data);
    ContentHasher hasher;
    hash_counter_matrix(hasher, *request.data);
    return hasher.digest();
  }
  // Nothing to score; the request will be rejected, but content_key must
  // not throw (trace derivation happens before validation).
  return ContentHasher{}.str("empty-request").digest();
}

Key128 result_cache_key(const Key128& content_key,
                        const std::string& events) {
  return ContentHasher{}
      .u64(content_key.hi)
      .u64(content_key.lo)
      .str(events)
      .str(kCodeVersion)
      .digest();
}

}  // namespace perspector::serve
