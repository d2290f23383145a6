#include "src/eval/recall.h"

#include <algorithm>

#include "src/util/check.h"

namespace parsim {

std::vector<KnnResult> ComputeGroundTruth(const PointSet& data,
                                          const PointSet& queries,
                                          std::size_t k, const Metric& metric,
                                          ThreadPool* pool) {
  PARSIM_CHECK(queries.empty() || data.empty() ||
               queries.dim() == data.dim());
  std::vector<KnnResult> truth(queries.size());
  if (pool != nullptr && queries.size() > 1) {
    pool->ParallelFor(0, queries.size(), [&](std::size_t qi) {
      truth[qi] = BruteForceKnn(data, queries[qi], k, metric);
    });
  } else {
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      truth[qi] = BruteForceKnn(data, queries[qi], k, metric);
    }
  }
  return truth;
}

namespace {

// Shared hit counter behind RecallAtK and ScoreRecall: (hits, want) with
// hits already capped at want. want == 0 means "nothing to find".
void CountHits(const KnnResult& result, const KnnResult& truth, std::size_t k,
               std::size_t* hits_out, std::size_t* want_out) {
  const std::size_t want = std::min(k, truth.size());
  *want_out = want;
  *hits_out = 0;
  if (want == 0) return;
  // Tie tolerance: a returned neighbor is a hit iff it is at least as
  // close as the truth's k-th answer, so any member of a distance tie at
  // the cut line counts. Distances on both sides come from the same
  // exact kernels, so equality compares bit for bit.
  const double limit = truth[want - 1].distance;
  const std::size_t scored = std::min(k, result.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < scored; ++i) {
    if (result[i].distance <= limit) ++hits;
  }
  // More tied answers than truth slots must not score above 1.0.
  *hits_out = std::min(hits, want);
}

}  // namespace

double RecallAtK(const KnnResult& result, const KnnResult& truth,
                 std::size_t k) {
  std::size_t hits = 0;
  std::size_t want = 0;
  CountHits(result, truth, k, &hits, &want);
  if (want == 0) return 1.0;
  return static_cast<double>(hits) / static_cast<double>(want);
}

RecallStats ScoreRecall(const std::vector<KnnResult>& results,
                        const std::vector<KnnResult>& truths, std::size_t k) {
  PARSIM_CHECK(results.size() == truths.size());
  RecallStats stats;
  stats.queries = results.size();
  if (results.empty()) return stats;
  double sum = 0.0;
  stats.min = 1.0;
  for (std::size_t qi = 0; qi < results.size(); ++qi) {
    std::size_t hits = 0;
    std::size_t want = 0;
    CountHits(results[qi], truths[qi], k, &hits, &want);
    const double r =
        want == 0 ? 1.0
                  : static_cast<double>(hits) / static_cast<double>(want);
    sum += r;
    stats.min = std::min(stats.min, r);
    stats.hits += hits;
    stats.wanted += want;
  }
  stats.mean = sum / static_cast<double>(results.size());
  return stats;
}

}  // namespace parsim
