// Phase-attributed wall-clock profiling of query execution.
//
// The simulated cost model explains WHERE pages and distance charges go,
// but not where the real CPU time of a query goes — and once the leaf
// sweep is quantized, the residual wall clock hides in descent, frontier
// maintenance and accounting, invisible to page counters. This header
// attributes measured nanoseconds to a small fixed set of phases so the
// end-to-end gap is measurable per layer instead of inferred.
//
// The mechanism mirrors src/io/cost_capture.h: a query (or batch)
// allocates a PhaseAccumulator and installs it with a ScopedPhaseCapture
// for the duration of its traversal; ScopedPhase then times its scope
// into the active accumulator. When no accumulator is installed — the
// default — ScopedPhase costs one thread_local load and no clock reads,
// so instrumented hot paths pay nothing in production.
//
// Unlike cost capture, the accumulator is SHARED across the worker
// threads of a batch (each worker installs the same accumulator), so the
// per-phase sums are totals over all workers; additions are relaxed
// atomics. Wall times are machine-dependent by nature and must never be
// golden-pinned — only the deterministic counters that ride alongside
// them (frontier pushes/pops, per-stage prune counts) are.

#ifndef PARSIM_SRC_UTIL_PHASE_TIMER_H_
#define PARSIM_SRC_UTIL_PHASE_TIMER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace parsim {

/// The phases a k-NN query's (or a self-join's) wall clock is attributed
/// to.
enum class Phase : unsigned {
  /// Interior-node expansion: MINDIST evaluation and frontier pushes of
  /// child nodes (including the cutoff-skip test). A self-join books its
  /// directory enumeration and block-pair MINDIST prune here.
  kDescent = 0,
  /// Frontier maintenance: heap pops and result emission between node
  /// fetches.
  kFrontier,
  /// Node fetches through the simulated I/O layer (AccessNode: buffer
  /// pool, fault routing, page accounting).
  kIo,
  /// Quantized-sweep query preparation (lattice encode + slack fold,
  /// once per (query, block) pair).
  kSweepPrep,
  /// Recorded by no sweep. Kept only because the perf ledger
  /// (bench/ledger/perf_ledger.cc) reports it, and only a change to the
  /// benchmark itself may edit that file.
  kSweepPrefix,
  /// The quantized sweep's integer work: the full-dimension SQ8 kernel
  /// pass over the block's code rows and its survivor compaction.
  kSweepFull,
  /// Exact re-rank of bound survivors, including emit handling (the
  /// exact sweep of an unquantized block lands here entirely).
  kSweepRerank,
  /// A self-join's merge of its per-row pair lists into the sorted
  /// output: the bucket count and scatter, and the per-bucket sorts.
  kMerge,
};

inline constexpr std::size_t kNumPhases = 8;

inline const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kDescent:
      return "descent";
    case Phase::kFrontier:
      return "frontier";
    case Phase::kIo:
      return "io";
    case Phase::kSweepPrep:
      return "sweep_prep";
    case Phase::kSweepPrefix:
      return "sweep_prefix";
    case Phase::kSweepFull:
      return "sweep_full";
    case Phase::kSweepRerank:
      return "sweep_rerank";
    case Phase::kMerge:
      return "merge";
  }
  return "unknown";
}

/// Per-phase nanosecond totals. Thread-shared: every worker of a batch
/// adds into the same accumulator with relaxed atomics (sums only, no
/// ordering needed).
class PhaseAccumulator {
 public:
  void Add(Phase phase, std::uint64_t nanos) {
    ns_[static_cast<std::size_t>(phase)].fetch_add(nanos,
                                                   std::memory_order_relaxed);
  }

  std::uint64_t Nanos(Phase phase) const {
    return ns_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& n : ns_) n.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumPhases> ns_{};
};

namespace internal_phase {

inline thread_local PhaseAccumulator* g_active_phase = nullptr;

}  // namespace internal_phase

/// The accumulator phase timings on this thread go to, or nullptr when
/// phase profiling is off (the default).
inline PhaseAccumulator* ActivePhaseCapture() {
  return internal_phase::g_active_phase;
}

/// RAII installer of a phase accumulator on the current thread. Nestable
/// (previous restored on destruction); installing nullptr disables
/// profiling for the scope, which lets call sites pass through an
/// optional accumulator unconditionally.
class ScopedPhaseCapture {
 public:
  explicit ScopedPhaseCapture(PhaseAccumulator* accumulator)
      : previous_(internal_phase::g_active_phase) {
    internal_phase::g_active_phase = accumulator;
  }
  ~ScopedPhaseCapture() { internal_phase::g_active_phase = previous_; }

  ScopedPhaseCapture(const ScopedPhaseCapture&) = delete;
  ScopedPhaseCapture& operator=(const ScopedPhaseCapture&) = delete;

 private:
  PhaseAccumulator* previous_;
};

/// Times its scope into the active accumulator's `phase` slot. With no
/// active accumulator this is one thread_local load — no clock reads.
/// Scopes of different phases must not nest (both would book the full
/// overlap); the instrumentation sites keep phase scopes disjoint.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase)
      : acc_(internal_phase::g_active_phase), phase_(phase) {
    if (acc_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (acc_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      acc_->Add(phase_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseAccumulator* acc_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Plain-double snapshot of an accumulator, in milliseconds, for stats
/// plumbing (QueryStats / ThroughputResult). All zeros when profiling
/// was off. Never golden-pin these — they are measured wall times.
struct PhaseBreakdown {
  std::array<double, kNumPhases> ms{};

  double of(Phase phase) const { return ms[static_cast<std::size_t>(phase)]; }

  double total_ms() const {
    double sum = 0.0;
    for (double m : ms) sum += m;
    return sum;
  }

  PhaseBreakdown& operator+=(const PhaseBreakdown& other) {
    for (std::size_t i = 0; i < kNumPhases; ++i) ms[i] += other.ms[i];
    return *this;
  }

  static PhaseBreakdown From(const PhaseAccumulator& acc) {
    PhaseBreakdown out;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      out.ms[i] =
          static_cast<double>(acc.Nanos(static_cast<Phase>(i))) * 1e-6;
    }
    return out;
  }
};

}  // namespace parsim

#endif  // PARSIM_SRC_UTIL_PHASE_TIMER_H_
