// Umbrella header: the full public API of parsim, the parallel
// similarity-search library (reproduction of Berchtold, Böhm,
// Braunmüller, Keim & Kriegel, "Fast Parallel Similarity Search in
// Multimedia Databases", SIGMOD 1997).
//
// Quick tour:
//   * NearOptimalDeclusterer / RecursiveDeclusterer — the paper's
//     contribution: ColorOf() vertex coloring over quadrant buckets.
//   * RoundRobin / DiskModulo / Fx / Hilbert Declusterer — baselines.
//   * ParallelSearchEngine — declusters a PointSet over simulated disks,
//     one X-tree per disk, merged parallel k-NN queries.
//   * XTree / RStarTree + HsKnn / RkvKnn — the index substrate.
//   * HsSearch — one query's best-first frontier, driven to the end by
//     HsKnn and in coalesced rounds by HsRoundScheduler.
//   * workload generators, analytic cost model, experiment runner.

#ifndef PARSIM_SRC_PARSIM_PARSIM_H_
#define PARSIM_SRC_PARSIM_PARSIM_H_

#include "src/core/baselines.h"
#include "src/core/bucket.h"
#include "src/core/coloring.h"
#include "src/core/declusterer.h"
#include "src/core/disk_assignment_graph.h"
#include "src/core/folding.h"
#include "src/core/near_optimal.h"
#include "src/core/neighborhood.h"
#include "src/core/quantile.h"
#include "src/core/recursive.h"
#include "src/core/replica.h"
#include "src/cost/model.h"
#include "src/eval/experiment.h"
#include "src/eval/open_loop.h"
#include "src/eval/recall.h"
#include "src/eval/throughput.h"
#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/geometry/sq8.h"
#include "src/hilbert/hilbert.h"
#include "src/index/hs_search.h"
#include "src/index/knn.h"
#include "src/index/leaf_sweep.h"
#include "src/index/rstar_tree.h"
#include "src/index/serialize.h"
#include "src/index/xtree.h"
#include "src/io/buffer_pool.h"
#include "src/io/disk.h"
#include "src/io/disk_array.h"
#include "src/io/disk_model.h"
#include "src/parallel/engine.h"
#include "src/parallel/join.h"
#include "src/parallel/round_scheduler.h"
#include "src/service/query_service.h"
#include "src/util/phase_timer.h"
#include "src/util/random.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"
#include "src/workload/generators.h"

#endif  // PARSIM_SRC_PARSIM_PARSIM_H_
