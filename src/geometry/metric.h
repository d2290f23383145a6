// Lp distance metrics over feature vectors.
//
// Similarity of two multimedia objects is the proximity of their feature
// vectors (Section 1 of the paper); the default metric is Euclidean (L2),
// with L1 and Lmax provided for applications that need them.
//
// The metrics differ only in how they fold per-dimension differences
// (summed squares, summed magnitudes, the largest magnitude), so
// metric.cc writes each kernel shape once, as a template over
// MetricKind: the pair, block and MINDIST kernels, the portable SQ8
// kernels and the fused SQ8 filter. The kernel table is one row per
// metric (detail::KernelRow), indexed by kind. What stays per metric is
// only where the instructions differ: the AVX2 SQ8 pair kernels and the
// d = 8/16/32 paths of the one-to-many SQ8 kernels (psadbw for L1, madd
// for L2, max_epu8 for Lmax), and the SSD filter's d = 8/16 path.
//
// Dispatch: there are three tables (detail::KernelTier). On x86-64
// hosts with AVX2+FMA the AVX2 table runs (floats widened to doubles in
// registers, so results keep double-precision accumulation); elsewhere
// the portable, unrolled table runs. Hosts that also have AVX-512 F, BW,
// VL and VNNI run the AVX-512 table: the AVX2 table with only L2's
// Sq8Many and Sq8ManyUnder entries replaced, which at d = 16 reduce
// sixteen code rows per step. Those are exact integer reductions, so the
// AVX-512 table returns the AVX2 table's values bit for bit. Dispatch is
// resolved once per process, so every call site — one-to-one and
// one-to-many — computes bit-identical values for the same operand pair.
// The AVX2 L2 pair and block kernels end in a fused multiply-add tail
// (std::fma) and the portable ones in a separate multiply and add; the
// MINDIST kernels never fuse. geometry_simd_kernel_test pins every table
// bit for bit.

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

/// The dispatched pair kernel underlying Metric::Comparable(): two
/// row-major float rows of the same length -> comparable-space value.
using ComparableFn = double (*)(const Scalar*, const Scalar*, std::size_t);

namespace detail {

/// True when the process dispatched to a vector table (AVX2 or
/// AVX-512).
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

/// One metric's row of the kernel table: the kernels behind Metric's
/// Comparable (`pair`), ComparableBlock, MinDistMany, Sq8Many and
/// Sq8ManyUnder, with the same arguments (MinDistMany's query as a
/// pointer plus `dim`). Exposed so tests can pin every table bit for
/// bit on any host; production code calls Metric.
struct KernelRow {
  ComparableFn pair;
  void (*block)(const Scalar* queries, std::size_t num_queries,
                const Scalar* points, std::size_t count, std::size_t dim,
                double* out);
  void (*min_dist_many)(const Scalar* query, const Scalar* lo,
                        const Scalar* hi, std::size_t count,
                        std::size_t stride, std::size_t dim, double* out);
  void (*sq8_many)(const std::uint8_t* query, const std::uint8_t* codes,
                   std::size_t count, std::size_t dim, std::uint32_t* out);
  std::size_t (*sq8_many_under)(const std::uint8_t* query,
                                const std::uint8_t* codes, std::size_t count,
                                std::size_t dim, std::uint32_t cutoff,
                                std::uint32_t* out_idx);
};

/// The kernel tables, lowest first. Each tier's host can run every tier
/// below it.
enum class KernelTier {
  kPortable,
  kAvx2,    // AVX2 + FMA
  kAvx512,  // the AVX2 table with L2's d = 16 SQ8 kernels on AVX-512
};

/// The table this process dispatched to (chosen once, by cpuid).
KernelTier DispatchedTier();

/// "portable", "avx2" or "avx512".
const char* KernelTierName(KernelTier tier);

/// `kind`'s row of `tier`'s table. The tier must not exceed
/// DispatchedTier(): this host cannot run the ones above it.
const KernelRow& KernelRowFor(MetricKind kind, KernelTier tier);

}  // namespace detail

/// A metric as a small value object, so indexes and search algorithms can
/// be parameterized without virtual dispatch on the innermost loop.
class Metric {
 public:
  explicit Metric(MetricKind kind = MetricKind::kL2) : kind_(kind) {}

  MetricKind kind() const { return kind_; }

  /// The raw dispatched kernel behind Comparable(), for hot loops that
  /// evaluate scattered single pairs (e.g. re-ranking quantized-sweep
  /// survivors): hoisting the pointer skips the per-call row lookup
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

  /// One-point-to-many-boxes MINDIST, the directory expansion's kernel:
  /// out[j] is the MINDIST from `query` to box j in the comparable scale
  /// (squared for L2), where box j spans [lo[i * stride + j],
  /// hi[i * stride + j]] in dimension i — the dimension-major layout of a
  /// directory node's DirImage (src/index/node.h), stride >= count. Each
  /// out[j] is bit-identical to MinDistComparable(rect_j, query, *this)
  /// (src/index/knn.h): the per-dimension operations run in the same
  /// order, and neither path fuses a multiply into an add.
  void MinDistMany(PointView query, const Scalar* lo, const Scalar* hi,
                   std::size_t count, std::size_t stride, double* out) const;

  /// Many-queries-to-many-points kernel, the batched execution path's
  /// workhorse: out[q * count + i] = Comparable(query_q, p_i), where
  /// query_q is `queries + q * dim` and p_i is `points + i * dim`, both
  /// row-major and contiguous (the points side is typically an SoA leaf
  /// block, LeafBlock in src/index/node.h). One pass evaluates every query of a
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
