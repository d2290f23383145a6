// Kernel equivalence: the dispatched (possibly SIMD) distance kernels
// must agree with the portable scalar reference on every dimension shape
// — odd, even, below/above the vector width, and large — and the
// one-to-many kernel must be bit-identical to the one-to-one calls.

#include "src/geometry/metric.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ios>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/geometry/rect.h"
#include "src/index/knn.h"
#include "src/util/random.h"

namespace parsim {
namespace {

constexpr std::size_t kDims[] = {1,  2,  3,  4,  5,  7,  8,   9,
                                 15, 16, 17, 31, 33, 64, 127, 256};

Point RandomPoint(Rng& rng, std::size_t dim, double scale = 1.0) {
  Point p(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    p[i] = static_cast<Scalar>((rng.NextDouble() - 0.5) * 2.0 * scale);
  }
  return p;
}

// Relative tolerance for accumulation-order differences between the
// scalar reference and a vectorized kernel (a few ULPs of double).
void ExpectNear(double reference, double actual) {
  const double tol = 1e-12 * std::max(1.0, std::abs(reference));
  EXPECT_NEAR(reference, actual, tol);
}

TEST(SimdKernelTest, PairKernelsMatchScalarReference) {
  Rng rng(1201);
  for (const std::size_t dim : kDims) {
    for (int trial = 0; trial < 25; ++trial) {
      const Point a = RandomPoint(rng, dim);
      const Point b = RandomPoint(rng, dim);
      ExpectNear(detail::SquaredL2Scalar(a, b), SquaredL2(a, b));
      ExpectNear(detail::L1Scalar(a, b), L1(a, b));
      // Lmax is a max of exact per-coordinate values: order-insensitive,
      // so the dispatched kernel must agree exactly.
      EXPECT_EQ(detail::LmaxScalar(a, b), Lmax(a, b));
    }
  }
}

TEST(SimdKernelTest, PairKernelsMatchScalarOnLargeMagnitudes) {
  Rng rng(1203);
  for (const std::size_t dim : {3ul, 16ul, 33ul}) {
    for (int trial = 0; trial < 25; ++trial) {
      const Point a = RandomPoint(rng, dim, 1e6);
      const Point b = RandomPoint(rng, dim, 1e6);
      ExpectNear(detail::SquaredL2Scalar(a, b), SquaredL2(a, b));
      ExpectNear(detail::L1Scalar(a, b), L1(a, b));
      EXPECT_EQ(detail::LmaxScalar(a, b), Lmax(a, b));
    }
  }
}

TEST(SimdKernelTest, ZeroDistanceAndEmptyInput) {
  for (const std::size_t dim : kDims) {
    const Point p(dim, 0.25f);
    EXPECT_EQ(SquaredL2(p, p), 0.0);
    EXPECT_EQ(L1(p, p), 0.0);
    EXPECT_EQ(Lmax(p, p), 0.0);
  }
}

TEST(SimdKernelTest, OneToManyBitIdenticalToOneToOne) {
  Rng rng(1205);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t dim : {1ul, 5ul, 8ul, 16ul, 17ul, 64ul}) {
      const std::size_t count = 137;  // odd, spans several blocks of 4/8
      PointSet points(dim);
      points.Reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        points.Add(RandomPoint(rng, dim));
      }
      const Point query = RandomPoint(rng, dim);
      std::vector<double> many(count);
      metric.ComparableMany(query, points.data(), count, dim, many.data());
      for (std::size_t i = 0; i < count; ++i) {
        // Bitwise equality: the batch kernel runs the same dispatched
        // kernel per row, so any difference is a real bug.
        EXPECT_EQ(metric.Comparable(query, points[i]), many[i])
            << "kind=" << MetricKindToString(kind) << " dim=" << dim
            << " row=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, SelfBlockBitIdenticalToFullBlock) {
  Rng rng(1207);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t count : {2ul, 3ul, 17ul, 64ul, 137ul}) {
      for (const std::size_t dim : {1ul, 5ul, 8ul, 16ul, 17ul, 33ul}) {
        PointSet points(dim);
        points.Reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          points.Add(RandomPoint(rng, dim));
        }
        // Naive double sweep: every row against every row.
        std::vector<double> full(count * count);
        metric.ComparableBlock(points.data(), count, points.data(), count,
                               dim, full.data());
        // Triangle sweep; poison the buffer so we also verify the
        // diagonal and lower triangle are left untouched.
        std::vector<double> tri(count * count, -1.0);
        metric.ComparableBlockSelf(points.data(), count, dim, tri.data());
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t j = 0; j < count; ++j) {
            const double got = tri[i * count + j];
            if (j > i) {
              EXPECT_EQ(full[i * count + j], got)
                  << "kind=" << MetricKindToString(kind) << " count=" << count
                  << " dim=" << dim << " i=" << i << " j=" << j;
            } else {
              EXPECT_EQ(-1.0, got) << "wrote outside the strict upper "
                                      "triangle at i="
                                   << i << " j=" << j;
            }
          }
        }
      }
    }
  }
}

// The kernel tables this host can run, lowest first, after printing a
// skip line for each one it cannot.
std::vector<detail::KernelTier> HostTiers(const char* test) {
  std::vector<detail::KernelTier> tiers;
  for (const detail::KernelTier tier :
       {detail::KernelTier::kPortable, detail::KernelTier::kAvx2,
        detail::KernelTier::kAvx512}) {
    if (tier <= detail::DispatchedTier()) {
      tiers.push_back(tier);
    } else {
      std::fprintf(stderr, "[ simd ] no %s on this host: %s skipped it\n",
                   detail::KernelTierName(tier), test);
    }
  }
  return tiers;
}

std::uint32_t Sq8Reference(MetricKind kind, const std::uint8_t* a,
                           const std::uint8_t* b, std::size_t n) {
  switch (kind) {
    case MetricKind::kL1:
      return detail::Sq8SadScalar(a, b, n);
    case MetricKind::kL2:
      return detail::Sq8SsdScalar(a, b, n);
    case MetricKind::kLmax:
      return detail::Sq8MadScalar(a, b, n);
  }
  return 0;
}

// Every row width 0..48 meets every remainder mod 16 (the AVX-512 step)
// and mod 8 and 4 (the AVX2 steps) three times; 257 adds a long run.
std::vector<std::size_t> Sq8Counts() {
  std::vector<std::size_t> counts;
  for (std::size_t c = 0; c <= 48; ++c) counts.push_back(c);
  counts.push_back(257);
  return counts;
}

std::vector<std::uint8_t> RandomCodes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.NextBounded(256));
  return codes;
}

// The row-tail self block on every tier's sq8_many, against the scalar
// reduction of every pair; on the dispatched tier, Metric's Sq8Block as
// well. A poisoned buffer shows any write at or below the diagonal.
TEST(SimdKernelTest, Sq8SelfBlockBitIdenticalToFullBlock) {
  Rng rng(1209);
  constexpr std::uint32_t kPoison = 0xdeadbeef;
  for (const detail::KernelTier tier :
       HostTiers("Sq8SelfBlockBitIdenticalToFullBlock")) {
    const char* tier_name = detail::KernelTierName(tier);
    for (const MetricKind kind :
         {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
      const Metric metric(kind);
      const auto sq8_many = detail::KernelRowFor(kind, tier).sq8_many;
      const bool dispatched = tier == detail::DispatchedTier();
      for (const std::size_t count : Sq8Counts()) {
        for (const std::size_t dim : {1ul, 8ul, 16ul, 33ul}) {
          // Two distinct code arrays, as in the join's quantized sweep
          // (prepared query codes vs stored mirror rows).
          const std::vector<std::uint8_t> queries =
              RandomCodes(rng, count * dim);
          const std::vector<std::uint8_t> codes = RandomCodes(rng, count * dim);
          std::vector<std::uint32_t> tri(count * count, kPoison);
          for (std::size_t i = 0; i + 1 < count; ++i) {
            sq8_many(queries.data() + i * dim, codes.data() + (i + 1) * dim,
                     count - i - 1, dim, tri.data() + i * count + i + 1);
          }
          std::vector<std::uint32_t> full;
          if (dispatched) {
            full.resize(count * count);
            metric.Sq8Block(queries.data(), count, codes.data(), count, dim,
                            full.data());
          }
          std::size_t wrong = 0;
          for (std::size_t i = 0; i < count; ++i) {
            for (std::size_t j = 0; j < count; ++j) {
              const std::size_t at = i * count + j;
              const std::uint32_t ref = Sq8Reference(
                  kind, queries.data() + i * dim, codes.data() + j * dim, dim);
              const std::uint32_t want = j > i ? ref : kPoison;
              wrong += tri[at] != want;
              if (dispatched) wrong += full[at] != ref;
            }
          }
          EXPECT_EQ(0u, wrong)
              << tier_name << " " << MetricKindToString(kind)
              << " count=" << count << " dim=" << dim
              << ": entries differ from the scalar reduction, or were "
                 "written outside the strict upper triangle";
        }
      }
    }
  }
}

// Every tier's fused filter selects exactly the rows whose scalar
// reduction is <= the cutoff, in ascending order, and writes nothing
// past the survivor count; its sq8_many writes nothing past `count`.
// Planted rows (copies of the query, reduction 0) sit at lane 0 or lane
// 15 of every 16-row step, so cutoff 0 keeps only that lane; the other
// cutoffs prune everything but exact matches, keep a middle quantile,
// and keep every lane (including past INT32_MAX, the AVX2 clamp).
TEST(SimdKernelTest, Sq8ManyUnderMatchesManyPlusFilter) {
  Rng rng(1213);
  constexpr std::uint32_t kSentinel = 0xdeadbeefu;
  for (const detail::KernelTier tier :
       HostTiers("Sq8ManyUnderMatchesManyPlusFilter")) {
    const char* tier_name = detail::KernelTierName(tier);
    for (const MetricKind kind :
         {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
      const detail::KernelRow& row = detail::KernelRowFor(kind, tier);
      for (const std::size_t count : Sq8Counts()) {
        for (const std::size_t dim : {1ul, 4ul, 8ul, 16ul, 33ul}) {
          for (const int planted_lane : {-1, 0, 15}) {
            const std::vector<std::uint8_t> query = RandomCodes(rng, dim);
            std::vector<std::uint8_t> codes = RandomCodes(rng, count * dim);
            for (std::size_t i = 0; i < count; ++i) {
              if (static_cast<int>(i % 16) == planted_lane) {
                std::copy(query.begin(), query.end(),
                          codes.begin() + static_cast<std::ptrdiff_t>(i * dim));
              }
            }
            std::vector<std::uint32_t> want(count);
            for (std::size_t i = 0; i < count; ++i) {
              want[i] = Sq8Reference(kind, query.data(),
                                     codes.data() + i * dim, dim);
            }
            const auto where = [&] {
              std::ostringstream s;
              s << tier_name << " " << MetricKindToString(kind)
                << " count=" << count << " dim=" << dim
                << " planted_lane=" << planted_lane;
              return s.str();
            };
            std::vector<std::uint32_t> reductions(count + 1, kSentinel);
            row.sq8_many(query.data(), codes.data(), count, dim,
                         reductions.data());
            EXPECT_EQ(kSentinel, reductions[count])
                << where() << ": sq8_many wrote past the count";
            reductions.pop_back();
            ASSERT_EQ(want, reductions) << where();
            std::vector<std::uint32_t> cutoffs = {0u, 0xffffffffu,
                                                  0x80000001u};
            if (count > 0) cutoffs.push_back(want[count / 2]);
            for (const std::uint32_t cutoff : cutoffs) {
              std::vector<std::uint32_t> expected;
              for (std::size_t i = 0; i < count; ++i) {
                if (want[i] <= cutoff) {
                  expected.push_back(static_cast<std::uint32_t>(i));
                }
              }
              std::vector<std::uint32_t> got(count + 1, kSentinel);
              const std::size_t n = row.sq8_many_under(
                  query.data(), codes.data(), count, dim, cutoff, got.data());
              ASSERT_LE(n, count) << where() << " cutoff=" << cutoff;
              EXPECT_EQ(kSentinel, got[n])
                  << where() << " cutoff=" << cutoff
                  << ": wrote past the survivor count";
              got.resize(n);
              ASSERT_EQ(expected, got) << where() << " cutoff=" << cutoff;
            }
          }
        }
      }
    }
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// MINDIST from one point to many boxes: the dispatched MinDistMany (the
// AVX2 kernel on hosts that have it), the portable row's kernel and per-box
// MinDistComparable must agree bit for bit — the descent's keys, and
// with them every frontier order and counter, depend on it. Boxes sit in
// a dimension-major image with a stride wider than the box count (NaN
// padding, so a read past the count would show), and `out` carries a
// sentinel past the count.
TEST(SimdKernelTest, MinDistManyBitIdenticalToPerBoxMinDist) {
  if (!detail::SimdEnabled()) {
    std::fprintf(stderr,
                 "[ simd ] no AVX2 on this host: skipped MinDistMany's "
                 "vector path; the portable kernel is still compared\n");
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(1213);
  // 1..9 cover every tail length after the 8- and 4-box steps; 31 is a
  // d=16 directory page, 62 and 93 are two- and three-page supernodes.
  const std::size_t counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 62, 93, 200};
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const std::size_t dim : {1ul, 2ul, 3ul, 5ul, 8ul, 16ul, 17ul}) {
      for (const std::size_t count : counts) {
        for (const double scale : {1.0, 1e6}) {
          for (const bool signed_zeros : {false, true}) {
            const std::size_t stride = count + 3;
            std::vector<float> lo(dim * stride, nan), hi(dim * stride, nan);
            std::vector<Rect> rects;
            for (std::size_t j = 0; j < count; ++j) {
              std::vector<Scalar> l(dim), h(dim);
              for (std::size_t i = 0; i < dim; ++i) {
                float a = static_cast<float>((rng.NextDouble() - 0.5) * scale);
                float b = static_cast<float>((rng.NextDouble() - 0.5) * scale);
                if (signed_zeros && rng.NextBernoulli(0.4)) {
                  a = rng.NextBernoulli(0.5) ? -0.0f : 0.0f;
                  b = rng.NextBernoulli(0.5) ? -0.0f : 0.0f;
                }
                if (rng.NextBernoulli(0.1)) b = a;  // degenerate side
                l[i] = std::min(a, b);
                h[i] = std::max(a, b);
                lo[i * stride + j] = l[i];
                hi[i * stride + j] = h[i];
              }
              rects.emplace_back(std::move(l), std::move(h));
            }
            // Inside box 0, on a face of the last box, and (mostly)
            // outside every box.
            Point inside(dim), face(dim), outside(dim);
            const Rect& first = rects.front();
            const Rect& last = rects.back();
            const std::size_t face_dim = rng.NextBounded(dim);
            for (std::size_t i = 0; i < dim; ++i) {
              inside[i] = first.lo(i) + (first.hi(i) - first.lo(i)) / 2.0f;
              face[i] = i == face_dim ? (rng.NextBernoulli(0.5) ? last.lo(i)
                                                                : last.hi(i))
                                      : last.lo(i);
              outside[i] =
                  static_cast<float>((rng.NextDouble() - 0.5) * 3.0 * scale);
              if (signed_zeros && rng.NextBernoulli(0.4)) {
                outside[i] = rng.NextBernoulli(0.5) ? -0.0f : 0.0f;
              }
            }
            for (const Point* query : {&inside, &face, &outside}) {
              std::vector<double> dispatched(count + 1, -7.0);
              std::vector<double> scalar(count + 1, -7.0);
              metric.MinDistMany(*query, lo.data(), hi.data(), count, stride,
                                 dispatched.data());
              detail::KernelRowFor(kind, detail::KernelTier::kPortable)
                  .min_dist_many(query->data(), lo.data(), hi.data(), count,
                                 stride, dim, scalar.data());
              EXPECT_TRUE(SameBits(-7.0, dispatched[count]))
                  << "dispatched kernel wrote past the count";
              EXPECT_TRUE(SameBits(-7.0, scalar[count]))
                  << "scalar kernel wrote past the count";
              for (std::size_t j = 0; j < count; ++j) {
                const double ref = MinDistComparable(rects[j], *query, metric);
                EXPECT_TRUE(SameBits(ref, dispatched[j]))
                    << "dispatched kind=" << MetricKindToString(kind)
                    << " dim=" << dim << " count=" << count
                    << " scale=" << scale << " box=" << j << ": " << ref
                    << " vs " << dispatched[j];
                EXPECT_TRUE(SameBits(ref, scalar[j]))
                    << "scalar kind=" << MetricKindToString(kind)
                    << " dim=" << dim << " count=" << count
                    << " scale=" << scale << " box=" << j << ": " << ref
                    << " vs " << scalar[j];
              }
            }
            EXPECT_EQ(0.0, MinDistComparable(first, inside, metric))
                << "the inside query is not inside box 0";
          }
        }
      }
    }
  }
}

// Kernel fingerprints: FNV-1a over the output bits of every kernel-row
// entry for one metric, over a fixed set of seeded inputs per dimension.
// The expected values were recorded from the per-metric kernels the
// templates replaced, through the public Metric API, once with AVX2
// dispatch and once with metric.cc's x86 branch compiled out. Any kernel
// edit that changes one output bit on any table fails here.

struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void Add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Add(T value) {
    Add(&value, sizeof(value));
  }
};

struct RowFingerprint {
  std::uint64_t pair, block, min_dist_many, sq8_many, sq8_many_under;
};

constexpr std::size_t kFingerprintDims[] = {1,  2,  3,  4,  5,  7,
                                            8,  9,  12, 15, 16, 17,
                                            24, 31, 32, 33, 64, 127};

// Uniform in [-scale, scale), and a signed zero one time in ten, so the
// operand order of every max shows in the sign bit.
float FingerprintCoord(Rng& rng, double scale) {
  if (rng.NextBernoulli(0.1)) return rng.NextBernoulli(0.5) ? -0.0f : 0.0f;
  return static_cast<float>((rng.NextDouble() - 0.5) * 2.0 * scale);
}

// `row` calls the five entries with KernelRow's signatures.
template <typename Row>
RowFingerprint Fingerprint(const Row& row, MetricKind kind) {
  Fnv1a pair, block, min_dist_many, sq8_many, sq8_many_under;
  for (const std::size_t dim : kFingerprintDims) {
    Rng rng(7919 + dim);
    // 40 rows; every fifth at magnitude 1e6.
    constexpr std::size_t kRows = 40;
    std::vector<float> pts(kRows * dim);
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t i = 0; i < dim; ++i) {
        pts[r * dim + i] = FingerprintCoord(rng, r % 5 == 4 ? 1e6 : 1.0);
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      pair.Add(row.pair(pts.data() + r * dim,
                        pts.data() + ((r * 7 + 3) % kRows) * dim, dim));
    }
    // Three queries against the other 37 rows.
    std::vector<double> out(3 * (kRows - 3));
    row.block(pts.data(), 3, pts.data() + 3 * dim, kRows - 3, dim,
              out.data());
    for (const double v : out) block.Add(v);

    for (const std::size_t count : {1ul, 2ul, 3ul, 5ul, 8ul, 13ul, 31ul}) {
      const std::size_t stride = count + 3;
      std::vector<float> lo(dim * stride, 0.0f), hi(dim * stride, 0.0f);
      for (std::size_t j = 0; j < count; ++j) {
        for (std::size_t i = 0; i < dim; ++i) {
          const float a = FingerprintCoord(rng, 1.0);
          const float b =
              rng.NextBernoulli(0.1) ? a : FingerprintCoord(rng, 1.0);
          lo[i * stride + j] = std::min(a, b);
          hi[i * stride + j] = std::max(a, b);
        }
      }
      std::vector<float> inside(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        inside[i] = lo[i * stride] + (hi[i * stride] - lo[i * stride]) / 2.0f;
      }
      std::vector<double> dists(count);
      const float* queries[] = {pts.data(), pts.data() + dim, inside.data()};
      for (const float* query : queries) {
        row.min_dist_many(query, lo.data(), hi.data(), count, stride, dim,
                          dists.data());
        for (const double v : dists) min_dist_many.Add(v);
      }
    }

    // Three query code rows against 37 stored rows; the extremes 0 and
    // 255 meet in query 0 and row 0.
    constexpr std::size_t kCodeRows = 37;
    std::vector<std::uint8_t> qcodes(3 * dim), codes(kCodeRows * dim);
    for (auto& c : qcodes) c = static_cast<std::uint8_t>(rng.NextBounded(256));
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.NextBounded(256));
    std::fill_n(qcodes.begin(), dim, std::uint8_t{0});
    std::fill_n(codes.begin(), dim, std::uint8_t{255});
    std::vector<std::uint32_t> reductions(kCodeRows), idx(kCodeRows);
    for (std::size_t q = 0; q < 3; ++q) {
      const std::uint8_t* query = qcodes.data() + q * dim;
      row.sq8_many(query, codes.data(), kCodeRows, dim, reductions.data());
      for (const std::uint32_t v : reductions) sq8_many.Add(v);
      const std::uint32_t median =
          Sq8Reference(kind, query, codes.data() + (kCodeRows / 2) * dim, dim);
      for (const std::uint32_t cutoff :
           {0u, median, 0x80000001u, 0xffffffffu}) {
        const std::size_t n = row.sq8_many_under(query, codes.data(), kCodeRows,
                                                 dim, cutoff, idx.data());
        sq8_many_under.Add(static_cast<std::uint64_t>(n));
        for (std::size_t i = 0; i < n; ++i) sq8_many_under.Add(idx[i]);
      }
    }
  }
  return {pair.hash, block.hash, min_dist_many.hash, sq8_many.hash,
          sq8_many_under.hash};
}

// Recorded with the x86-64 Release build (-O3); indexed by MetricKind.
constexpr RowFingerprint kAvx2Fingerprints[] = {
    {0x89430a32397a5e2aull, 0x107f33d4add754afull, 0x5290e8c85abc18a9ull,
     0x676ba3c33a32473cull, 0x1d695afaf604c8e1ull},  // L1
    {0x13cd90c568f8cd38ull, 0x0ca4a428c653b56full, 0xacf5cffff76d2455ull,
     0x9f1bcc4b1ef6a55aull, 0x1275966f867097cdull},  // L2
    {0x2e1c549bb98b450full, 0x44b0aed377a47a4cull, 0x67dfa6637bb04bc7ull,
     0xa92be628792cc3e4ull, 0xd838bf4a93cc08f7ull},  // Lmax
};
constexpr RowFingerprint kPortableFingerprints[] = {
    {0x57cb26da1ec4717aull, 0xa2607b8fb1e626ddull, 0x5290e8c85abc18a9ull,
     0x676ba3c33a32473cull, 0x1d695afaf604c8e1ull},  // L1
    {0x0a9c044463acdbfcull, 0xb7bee873d4d0fba5ull, 0xacf5cffff76d2455ull,
     0x9f1bcc4b1ef6a55aull, 0x1275966f867097cdull},  // L2
    {0x2e1c549bb98b450full, 0x44b0aed377a47a4cull, 0x67dfa6637bb04bc7ull,
     0xa92be628792cc3e4ull, 0xd838bf4a93cc08f7ull},  // Lmax
};

void ExpectFingerprint(const RowFingerprint& want, const RowFingerprint& got,
                       const char* table, MetricKind kind) {
  const std::pair<const char*, std::uint64_t RowFingerprint::*> entries[] = {
      {"pair", &RowFingerprint::pair},
      {"block", &RowFingerprint::block},
      {"min_dist_many", &RowFingerprint::min_dist_many},
      {"sq8_many", &RowFingerprint::sq8_many},
      {"sq8_many_under", &RowFingerprint::sq8_many_under}};
  for (const auto& [name, field] : entries) {
    EXPECT_EQ(want.*field, got.*field)
        << table << " row, " << MetricKindToString(kind) << " " << name
        << ": an output bit changed (got 0x" << std::hex << got.*field
        << std::dec << ")";
  }
}

// The bit-identity gate for kernel edits: every table's rows must
// reproduce the recorded fingerprints. The AVX-512 table only replaces
// integer kernels, so it is pinned to the AVX2 values. The portable
// table runs on every host; a vector table only where the host has it.
TEST(SimdKernelTest, KernelRowsMatchRecordedFingerprints) {
#ifndef __x86_64__
  GTEST_SKIP() << "the fingerprints are x86-64 values; other targets may "
                  "fuse the portable loops' multiply-adds";
#endif
  for (const detail::KernelTier tier :
       HostTiers("KernelRowsMatchRecordedFingerprints")) {
    const RowFingerprint* want = tier == detail::KernelTier::kPortable
                                     ? kPortableFingerprints
                                     : kAvx2Fingerprints;
    for (const MetricKind kind :
         {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
      ExpectFingerprint(want[static_cast<std::size_t>(kind)],
                        Fingerprint(detail::KernelRowFor(kind, tier), kind),
                        detail::KernelTierName(tier), kind);
    }
  }
}

TEST(SimdKernelTest, DispatchReportsConsistentState) {
  // Informational: the suite passes on every table, but record which
  // one this host dispatched to.
  std::fprintf(stderr, "[ simd ] dispatched kernels: %s\n",
               detail::KernelTierName(detail::DispatchedTier()));
  EXPECT_EQ(detail::SimdEnabled(),
            detail::DispatchedTier() != detail::KernelTier::kPortable);
}

}  // namespace
}  // namespace parsim
