// The work counters: every count of the work a query, batch, join or
// disk did, declared once.
//
// PARSIM_COUNTERS lists each counter as X(name, doc). The list expands
// into the fields of Counters, its operator+=, and its name/value
// visitor ForEach. Every stats struct that reports work extends Counters
// (DiskStats, QueryStats, ThroughputResult, JoinStats), and a leaf sweep
// returns one, so a merge is one +=, an identity check one ==, and a
// serializer one ForEach loop. A counter has the same name on every
// surface, every counter merges by summing, and adding one is one line
// here.
//
// Only distance_computations and failed_read_attempts enter simulated
// time (ElapsedMs in src/io/disk_model.h); the rest audit the work. The
// pages read themselves are not here: DiskStats keeps the cost model's
// data/directory/written page inputs, and QueryStats derives its page
// totals from them. On k-NN and ball sweeps quantized_pruned + reranked
// equals the exact path's leaf distance_computations, and
// quantized_pruned - approx_pruned_exactly bounds the prunes the approx
// tier's relaxed cutoff added from above.

#ifndef PARSIM_SRC_IO_COUNTERS_H_
#define PARSIM_SRC_IO_COUNTERS_H_

#include <cstdint>
#include <ostream>

namespace parsim {

// Order: the order golden query lines print them in.
#define PARSIM_COUNTERS(X)                                                   \
  X(distance_computations,                                                   \
    "exact distance evaluations, charged as simulated CPU: every leaf "      \
    "candidate on the exact path, re-ranked survivors on the SQ8 path")      \
  X(buffer_hit_pages, "pages a main-memory buffer served: no I/O charged")   \
  X(replica_pages,                                                           \
    "pages a replica served for a failed primary (already in pages read)")   \
  X(failed_read_attempts,                                                    \
    "timed-out reads against a failed primary before its failover")          \
  X(unavailable_pages,                                                       \
    "pages no healthy copy could serve; TryQuery then fails kUnavailable")   \
  X(coalesced_reads,                                                         \
    "pages a batch or join member got free because another member paid "     \
    "the read (not in pages read)")                                          \
  X(block_kernel_invocations,                                                \
    "many-to-many leaf kernel calls a coalesced batch member or join row "   \
    "took part in")                                                          \
  X(quantized_pruned,                                                        \
    "leaf candidates the SQ8 lower bound eliminated before exact work; "     \
    "always base_pruned + sq8_pruned")                                       \
  X(base_pruned,                                                             \
    "of quantized_pruned, killed by the query's base term with no kernel "   \
    "work; 0 on exact k-NN (a leaf is swept only within the threshold), "    \
    "fires under approx without early termination and in multi-group SQ8 "   \
    "joins")                                                                 \
  X(sq8_pruned,                                                              \
    "of quantized_pruned, killed by the integer SQ8 reduction (or the "      \
    "range sweep's code-interval prefilter)")                                \
  X(reranked, "SQ8 bound survivors re-ranked by the exact float kernel")     \
  X(leaf_bytes_scanned,                                                      \
    "bytes leaf sweeps streamed: float rows exact, code rows plus "          \
    "re-ranked float rows on the SQ8 path")                                  \
  X(frontier_pushes, "items (nodes and points) pushed on an HS frontier")    \
  X(frontier_pops, "items popped from an HS frontier")                       \
  X(cutoff_skipped_nodes,                                                    \
    "interior children dropped before frontier insertion: MINDIST above "    \
    "the running k-th-best cutoff (result-neutral)")                         \
  X(approx_skipped_nodes,                                                    \
    "frontier nodes the approx tier's early termination dropped "            \
    "(MINDIST above cutoff/(1+eps)); each may lose true neighbors")          \
  X(approx_pruned_exactly,                                                   \
    "of the approx tier's quantized_pruned, the prunes the lossless "        \
    "cutoff at the same threshold would also make")

/// One value per PARSIM_COUNTERS entry.
struct Counters {
#define PARSIM_COUNTER_FIELD(name, doc) std::uint64_t name = 0;
  PARSIM_COUNTERS(PARSIM_COUNTER_FIELD)
#undef PARSIM_COUNTER_FIELD

  Counters& operator+=(const Counters& other) {
#define PARSIM_COUNTER_ADD(name, doc) name += other.name;
    PARSIM_COUNTERS(PARSIM_COUNTER_ADD)
#undef PARSIM_COUNTER_ADD
    return *this;
  }

  /// Compares the counters only: on a struct that extends Counters, its
  /// own fields take no part.
  bool operator==(const Counters&) const = default;

  /// Calls visit(name, value) for every counter, in list order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
#define PARSIM_COUNTER_VISIT(name, doc) visit(#name, name);
    PARSIM_COUNTERS(PARSIM_COUNTER_VISIT)
#undef PARSIM_COUNTER_VISIT
  }
};

/// "name=value" for every counter, space-separated, in list order.
inline std::ostream& operator<<(std::ostream& out, const Counters& counters) {
  const char* separator = "";
  counters.ForEach([&](const char* name, std::uint64_t value) {
    out << separator << name << '=' << value;
    separator = " ";
  });
  return out;
}

}  // namespace parsim

#endif  // PARSIM_SRC_IO_COUNTERS_H_
