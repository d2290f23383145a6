// Replica placement for degraded reads: a secondary disk per bucket,
// derived from the same `col` vertex coloring that places the primaries.
//
// Rationale: the coloring already certifies which buckets are "far
// apart" — a bucket's direct and indirect neighbors all carry different
// colors (Lemmas 2-5), so their primary disks are known from the color
// alone. The replica of a bucket should avoid exactly those disks: if
// the primary fails, the failover work must not land on a disk that the
// same query is already loading (neighboring buckets are precisely the
// ones one ball query touches together, Section 3.1).
//
// Because every neighbor color is col(b) XOR s for an offset s that
// depends only on the dimension (s in {i+1} for direct, {(i+1)^(j+1)}
// for indirect neighbors), the forbidden disk set of a bucket depends
// only on its COLOR. The placement is therefore a per-color table,
// computed once: for each color, scan the disks in a deterministic
// rotation and take the first disk that avoids, in priority order,
//
//   1. the primaries of the bucket, its direct and indirect neighbors,
//   2. the primaries of the bucket and its direct neighbors,
//   3. the bucket's own primary.
//
// Guarantees (n = number of disks, d = dimension):
//   * n >= 2                      -> replica != primary, always;
//   * n >= d + 2                  -> additionally, the replica never
//     shares a disk with any direct neighbor's primary;
//   * n >= 2 + d + d(d-1)/2       -> full separation: the replica avoids
//     the primaries of all direct AND indirect neighbors. (Below that
//     bound full separation is impossible in the worst case: a bucket's
//     closed neighborhood already occupies that many distinct disks.)

#ifndef PARSIM_SRC_CORE_REPLICA_H_
#define PARSIM_SRC_CORE_REPLICA_H_

#include <cstdint>
#include <vector>

#include "src/core/bucket.h"
#include "src/core/coloring.h"
#include "src/core/folding.h"
#include "src/io/disk.h"

namespace parsim {

/// Coloring-driven bucket -> secondary-disk mapping.
class ReplicaPlacement {
 public:
  /// Midpoint-split buckets over `num_disks` disks (num_disks >= 1).
  /// Primaries are assumed to follow the near-optimal mapping
  /// fold(col(bucket)) over min(num_disks, NumColors(dim)) disks; disks
  /// beyond the color count (if any) carry replicas only.
  ReplicaPlacement(std::size_t dim, std::uint32_t num_disks);

  /// Custom split values (e.g. quantile splits), same disk model.
  ReplicaPlacement(Bucketizer bucketizer, std::uint32_t num_disks);

  std::size_t dim() const { return bucketizer_.dim(); }
  std::uint32_t num_disks() const { return num_disks_; }
  const Bucketizer& bucketizer() const { return bucketizer_; }

  /// The replica disk of a color / bucket; O(1) table lookups.
  DiskId ReplicaOfColor(Color color) const;
  DiskId ReplicaOfBucket(BucketId bucket) const {
    return ReplicaOfColor(ColorOf(bucket));
  }

  /// Replica disk for a bucket whose actual primary is `primary`. Equal
  /// to ReplicaOfBucket unless the caller's primary mapping disagrees
  /// with the near-optimal one (e.g. a round-robin declusterer), in
  /// which case the replica is nudged off the primary so the two copies
  /// never share a disk (requires num_disks >= 2 to be effective).
  DiskId ReplicaFor(BucketId bucket, DiskId primary) const;

  /// Smallest disk count guaranteeing replica separation from all
  /// direct-neighbor primaries: d + 2.
  static std::uint32_t DirectSeparationDisks(std::size_t dim) {
    return static_cast<std::uint32_t>(dim) + 2;
  }

  /// Smallest disk count guaranteeing full separation (direct and
  /// indirect neighbors): 2 + d + d(d-1)/2, the worst-case size of a
  /// closed neighborhood's disk footprint plus one.
  static std::uint32_t FullSeparationDisks(std::size_t dim) {
    const std::uint32_t d = static_cast<std::uint32_t>(dim);
    return 2 + d + d * (d - 1) / 2;
  }

 private:
  void BuildTable();

  Bucketizer bucketizer_;
  std::uint32_t num_disks_;
  ColorFolding folding_;  // primary mapping: colors -> min(n, C) disks
  std::vector<DiskId> replica_of_color_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_CORE_REPLICA_H_
