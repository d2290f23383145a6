// Lp distance metrics over feature vectors.
//
// Similarity of two multimedia objects is the proximity of their feature
// vectors (Section 1 of the paper); the default metric is Euclidean (L2),
// with L1 and Lmax provided for applications that need them.
//
// The point-to-point kernels are runtime-dispatched: on x86-64 hosts with
// AVX2+FMA they run a vectorized path (floats widened to doubles in
// registers, so results keep double-precision accumulation); elsewhere an
// unrolled scalar path runs. Dispatch is resolved once per process, so
// every call site — one-to-one and one-to-many — computes bit-identical
// values for the same operand pair.

#ifndef PARSIM_SRC_GEOMETRY_METRIC_H_
#define PARSIM_SRC_GEOMETRY_METRIC_H_

#include <cstddef>
#include <cstdint>

#include "src/geometry/point.h"

namespace parsim {

/// Which Lp norm a Metric computes.
enum class MetricKind {
  kL1,
  kL2,
  kLmax,
};

const char* MetricKindToString(MetricKind kind);

/// Squared Euclidean distance (the hot-path primitive: comparisons of
/// distances never need the square root).
double SquaredL2(PointView a, PointView b);

/// Euclidean distance.
double L2(PointView a, PointView b);

/// Manhattan distance.
double L1(PointView a, PointView b);

/// Chebyshev / maximum distance.
double Lmax(PointView a, PointView b);

namespace detail {

/// True when the process dispatched to the AVX2 kernels.
bool SimdEnabled();

/// Portable reference kernels (the pre-dispatch scalar loops). Exposed so
/// tests and benchmarks can compare the dispatched kernels against them;
/// production code should call the dispatched functions above.
double SquaredL2Scalar(PointView a, PointView b);
double L1Scalar(PointView a, PointView b);
double LmaxScalar(PointView a, PointView b);

/// Reference reductions over two uint8 code rows (the SQ8 quantized
/// sweep's per-metric primitives): sum of absolute differences, sum of
/// squared differences, max absolute difference. Integer arithmetic is
/// exact, so the dispatched AVX2 variants must return these values bit
/// for bit; tests compare against these loops.
std::uint32_t Sq8SadScalar(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n);
std::uint32_t Sq8SsdScalar(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n);
std::uint32_t Sq8MadScalar(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n);

}  // namespace detail

/// The dispatched pair kernel underlying Comparable(): two row-major
/// float rows of the same length -> comparable-space value.
using ComparableFn = double (*)(const Scalar*, const Scalar*, std::size_t);

/// A metric as a small value object, so indexes and search algorithms can
/// be parameterized without virtual dispatch on the innermost loop.
class Metric {
 public:
  explicit Metric(MetricKind kind = MetricKind::kL2) : kind_(kind) {}

  MetricKind kind() const { return kind_; }

  /// The raw dispatched kernel behind Comparable(), for hot loops that
  /// evaluate scattered single pairs (e.g. re-ranking quantized-sweep
  /// survivors): hoisting the pointer skips the per-call dispatch switch
  /// while producing bit-identical values to Comparable().
  ComparableFn comparable_fn() const;

  /// The actual distance.
  double Distance(PointView a, PointView b) const;

  /// A monotone surrogate of Distance: cheaper, order-preserving.
  /// For L2 this is the squared distance; for L1/Lmax it is the distance
  /// itself. Use with ToComparable below.
  double Comparable(PointView a, PointView b) const;

  /// Maps a real distance into the Comparable scale (e.g. squares it
  /// for L2) so pruning thresholds can be pre-transformed once.
  double ToComparable(double distance) const;

  /// Inverse of ToComparable.
  double FromComparable(double comparable) const;

  /// One-query-to-many-points kernel: out[i] = Comparable(query, p_i)
  /// where p_i is `points + i * dim`, row-major and contiguous. The hot
  /// loop of every leaf/page scan: the query stays in registers while
  /// candidate rows stream through the dispatched kernel, and each out[i]
  /// is bit-identical to the corresponding one-to-one Comparable() call.
  void ComparableMany(PointView query, const Scalar* points,
                      std::size_t count, std::size_t dim, double* out) const;

  /// Many-queries-to-many-points kernel, the batched execution path's
  /// workhorse: out[q * count + i] = Comparable(query_q, p_i), where
  /// query_q is `queries + q * dim` and p_i is `points + i * dim`, both
  /// row-major and contiguous (the points side is typically an SoA leaf
  /// block, src/index/leaf_block.h). One pass evaluates every query of a
  /// batch against one leaf page: the AVX2 path keeps the candidate row
  /// resident in registers across queries for dim <= 16 and otherwise
  /// streams the pair kernel point-major. Every out value is bit-identical
  /// to the corresponding one-to-one Comparable() call — the kernels
  /// replay the pair kernel's reduction order exactly — so batched and
  /// per-query searches produce the same results bit for bit.
  void ComparableBlock(const Scalar* queries, std::size_t num_queries,
                       const Scalar* points, std::size_t count,
                       std::size_t dim, double* out) const;

  /// Symmetric self-block kernel, the all-pairs join's sweep primitive:
  /// fills ONLY the strict upper triangle, out[i * count + j] =
  /// Comparable(p_i, p_j) for j > i, leaving the diagonal and lower
  /// triangle untouched — a self-block sweep computes each unordered
  /// pair once instead of twice. Row i runs the one-to-many kernel over
  /// the tail rows i+1..count-1, so every filled entry is bit-identical
  /// to the corresponding ComparableBlock / Comparable() value.
  void ComparableBlockSelf(const Scalar* points, std::size_t count,
                           std::size_t dim, double* out) const;

  /// One-query-to-many-rows integer reduction over SQ8 codes: out[i] is
  /// this metric's lattice reduction of (query, codes + i * dim) — sum
  /// of absolute code differences for L1, sum of squared code
  /// differences for L2, max absolute code difference for Lmax.
  /// Sq8Bound::LowerBound (src/geometry/sq8.h) maps a reduction to a
  /// comparable-space lower bound on the exact distance. The reductions
  /// are exact integer arithmetic, so the AVX2 and scalar paths return
  /// identical values (dim must stay <= 65535 so the L2 sum fits a
  /// uint32; Sq8Mirror::BuildFrom enforces this).
  void Sq8Many(const std::uint8_t* query, const std::uint8_t* codes,
               std::size_t count, std::size_t dim, std::uint32_t* out) const;

  /// Many-queries-to-many-rows variant of Sq8Many, the batched quantized
  /// sweep's workhorse: out[q * count + i] is the reduction of
  /// (queries + q * dim, codes + i * dim). Runs query-major over the
  /// one-to-many kernel: each query's codes are hoisted into registers
  /// once while the block's code rows (4x smaller than the float SoA)
  /// stay cache-hot across queries; integer exactness makes the
  /// evaluation order irrelevant to the values.
  void Sq8Block(const std::uint8_t* queries, std::size_t num_queries,
                const std::uint8_t* codes, std::size_t count, std::size_t dim,
                std::uint32_t* out) const;

  /// Symmetric self-block variant of Sq8Block for the join's quantized
  /// sweep: out[i * count + j] is the reduction of (queries + i * dim,
  /// codes + j * dim) for j > i ONLY (diagonal and lower triangle
  /// untouched). `queries` are the block's own prepared query codes and
  /// `codes` its stored mirror rows — two arrays because the prepared
  /// (clamped, rounded) codes feed the Sq8Bound contract while the
  /// stored codes are what the bound's err[] terms were measured
  /// against. Integer arithmetic, so each filled entry equals the
  /// corresponding Sq8Block / Sq8Many value exactly.
  void Sq8BlockSelf(const std::uint8_t* queries, const std::uint8_t* codes,
                    std::size_t count, std::size_t dim,
                    std::uint32_t* out) const;

  /// Fused prune scan for fixed-threshold sweeps (the similarity
  /// join): computes the same reductions as Sq8Many, compares each
  /// against `cutoff` in-register, writes the indices of surviving
  /// rows (reduction <= cutoff) to out_idx in ascending order, and
  /// returns how many survived. The selected set is exactly what an
  /// Sq8Many pass followed by a <=-cutoff filter would produce, but
  /// the reductions are never stored — at join survivor rates (~1%)
  /// that removes the uint32 result stream and its second filter pass
  /// from the hottest loop. out_idx must have room for `count`
  /// entries.
  std::size_t Sq8ManyUnder(const std::uint8_t* query,
                           const std::uint8_t* codes, std::size_t count,
                           std::size_t dim, std::uint32_t cutoff,
                           std::uint32_t* out_idx) const;

 private:
  MetricKind kind_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_GEOMETRY_METRIC_H_
