// Shared-memory parallel primitives.
//
// The paper runs MPI across nodes; intra-node performance (the subject of
// Tables I–III) is bandwidth- vs compute-bound kernel behaviour. We expose a
// thin OpenMP layer so every kernel is written once and runs threaded; the
// subdomain-decomposition layer (src/fem/decomposition.hpp) reproduces the
// rank-local structure of the MPI code.
//
// Reductions are DETERMINISTIC: the index range is cut into fixed 1024-entry
// chunks; each chunk is summed in 8 fixed lanes (term i goes to lane
// (i - lo) mod 8, lo the chunk start), the lanes combine in a fixed pairwise
// tree, and the chunk sums combine in chunk order. None of that depends on
// the thread count, so the result is bitwise identical for any team size.
// Residual histories and `-final_state` digests therefore reproduce run to
// run, which the checkpoint/restart CI round trip relies on. The 8 lanes are
// 8 independent add chains — one AVX-512 register, two AVX2 ones — instead
// of one serial chain of dependent adds per chunk.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define PTATIN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PTATIN_TSAN 1
#endif
#endif

#ifdef PTATIN_TSAN
#include <algorithm>
#include <barrier>
#include <thread>
#endif

namespace ptatin {

// Under ThreadSanitizer the wrappers below swap their OpenMP execution for
// std::thread teams ordered by std::barrier. GCC's libgomp synchronizes its
// fork/join and `omp for` barriers with raw futexes TSan cannot intercept —
// worse, the lowered outlined function reads the region's capture struct at
// entry, before any user code could re-establish the edge — so every region
// run by a reused pool thread reports phantom races against the serial code
// around it. std::thread creation/join and std::barrier are C++-semantics
// synchronization TSan models exactly: the phantom reports vanish while
// real races between threads inside one phase (e.g. two threads scattering
// to the same element node) remain fully visible. The TSan path partitions
// indices statically like `schedule(static)`; results are identical, only
// slower to launch — acceptable for a sanitizer test build.

/// Number of threads the parallel_for loops will use.
inline int num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Set the thread count (benchmarks sweep this as the "cores" axis).
inline void set_num_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Run body(tid, nteam) once on every thread of a team — the SPMD building
/// block; callers do their own index partitioning or dynamic scheduling
/// (see CsrMatrix::multiply for an atomic block dispenser).
template <class F>
inline void parallel_team(F&& body) {
#if defined(PTATIN_TSAN)
  const int nt = std::max(1, num_threads());
  if (nt == 1) {
    body(0, 1);
    return;
  }
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(nt - 1));
  for (int t = 1; t < nt; ++t) team.emplace_back([&body, nt, t] { body(t, nt); });
  body(0, nt);
  for (auto& th : team) th.join();
#elif defined(_OPENMP)
#pragma omp parallel
  body(omp_get_thread_num(), omp_get_num_threads());
#else
  body(0, 1);
#endif
}

/// Parallel loop over [0, n). Body must be safe for concurrent invocation on
/// disjoint indices.
template <class F>
inline void parallel_for(Index n, F&& body) {
#if defined(PTATIN_TSAN)
  parallel_team([&](int tid, int nteam) {
    const Index chunk = (n + nteam - 1) / nteam;
    const Index lo = std::min<Index>(n, static_cast<Index>(tid) * chunk);
    const Index hi = std::min<Index>(n, lo + chunk);
    for (Index i = lo; i < hi; ++i) body(i);
  });
#elif defined(_OPENMP)
#pragma omp parallel for schedule(static)
  for (Index i = 0; i < n; ++i) body(i);
#else
  for (Index i = 0; i < n; ++i) body(i);
#endif
}

/// Run `nphases` sequentially-dependent phases inside ONE parallel region.
/// Phase p has count(p) iterations distributed across the team; a barrier
/// separates consecutive phases. This replaces nphases fork/join cycles with
/// a single fork — the colored element loops use it so one operator apply
/// pays one fork/join instead of eight.
///
/// count(p) must return the same value on every thread (it is evaluated by
/// each); body(p, i) must be race-free for concurrent i within one phase.
template <class CountFn, class Body>
inline void parallel_for_phased(int nphases, CountFn&& count, Body&& body) {
#if defined(PTATIN_TSAN)
  const int nt = std::max(1, num_threads());
  std::barrier<> bar(nt);
  parallel_team([&](int tid, int nteam) {
    for (int p = 0; p < nphases; ++p) {
      const Index n = count(p);
      const Index chunk = (n + nteam - 1) / nteam;
      const Index lo = std::min<Index>(n, static_cast<Index>(tid) * chunk);
      const Index hi = std::min<Index>(n, lo + chunk);
      for (Index i = lo; i < hi; ++i) body(p, i);
      bar.arrive_and_wait(); // orders phase p before phase p+1
    }
  });
#elif defined(_OPENMP)
#pragma omp parallel
  for (int p = 0; p < nphases; ++p) {
    const Index n = count(p);
    // The implicit barrier at the end of `omp for` orders the phases.
#pragma omp for schedule(static)
    for (Index i = 0; i < n; ++i) body(p, i);
  }
#else
  for (int p = 0; p < nphases; ++p) {
    const Index n = count(p);
    for (Index i = 0; i < n; ++i) body(p, i);
  }
#endif
}

/// Chunk length of the deterministic reductions. Fixed (independent of the
/// thread count) so the combine tree — and thus the rounding — never changes.
inline constexpr Index kReduceChunk = 1024;

/// Accumulator lanes per chunk (a multiple of every SIMD width in use).
inline constexpr int kReduceLanes = 8;

/// The deterministic sum of one chunk [lo, hi): lane l folds in the terms
/// i = lo + l, lo + l + 8, ... in increasing i through `acc = step(i, acc)`,
/// starting from 0; the lanes then combine as
/// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)), the halving tree of a
/// SIMD horizontal add. `step` may also update entry i of other arrays: the
/// fused sweeps (la/vector.hpp) do their axpys in the same pass.
template <class Step>
inline Real reduce_chunk(Index lo, Index hi, Step& step) {
  alignas(kSimdAlign) Real lane[kReduceLanes] = {};
  const Index full = lo + (hi - lo) / kReduceLanes * kReduceLanes;
  for (Index i = lo; i < full; i += kReduceLanes) {
    // One SIMD statement per lane group: the lanes are independent sums.
    PT_SIMD
    for (int l = 0; l < kReduceLanes; ++l) lane[l] = step(i + l, lane[l]);
  }
  for (Index i = full; i < hi; ++i) lane[i - full] = step(i, lane[i - full]);
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

/// Deterministic parallel reduction over [0, n) with a lane step
/// `acc = step(i, acc)` (see reduce_chunk): the chunk sums, each formed by
/// one thread, combine left to right in chunk order. Bitwise-reproducible at
/// any thread count. Spell a multiply-add step with pt_muladd when another
/// loop must replay the result bitwise (Vector::dot does).
template <class Step>
inline Real parallel_reduce_lanes(Index n, Step&& step) {
  if (n <= 0) return 0.0;
  const Index nchunks = (n + kReduceChunk - 1) / kReduceChunk;
  if (nchunks == 1) return reduce_chunk(0, n, step);
  std::vector<Real> partial(static_cast<std::size_t>(nchunks));
  parallel_for(nchunks, [&](Index c) {
    const Index lo = c * kReduceChunk;
    const Index hi = lo + kReduceChunk < n ? lo + kReduceChunk : n;
    partial[static_cast<std::size_t>(c)] = reduce_chunk(lo, hi, step);
  });
  Real sum = 0.0;
  for (Index c = 0; c < nchunks; ++c)
    sum += partial[static_cast<std::size_t>(c)];
  return sum;
}

/// Parallel reduction (sum) over [0, n) of body(i), deterministic: chunks,
/// lanes and combine order as parallel_reduce_lanes.
template <class F>
inline Real parallel_reduce_sum(Index n, F&& body) {
  return parallel_reduce_lanes(
      n, [&](Index i, Real acc) { return acc + body(i); });
}

/// Parallel reduction (max) over [0, n). The identity is -inf (lowest), NOT
/// 0: an all-negative input must return its true maximum. An empty range
/// returns lowest(). Chunked like parallel_reduce_sum — max is order-
/// independent anyway, but the shared code path keeps every reduction on
/// the same fenced parallel_for (no `omp reduction` combine).
template <class F>
inline Real parallel_reduce_max(Index n, F&& body) {
  Real m = std::numeric_limits<Real>::lowest();
  if (n <= 0) return m;
  const Index nchunks = (n + kReduceChunk - 1) / kReduceChunk;
  if (nchunks == 1) {
    for (Index i = 0; i < n; ++i) {
      Real v = body(i);
      if (v > m) m = v;
    }
    return m;
  }
  std::vector<Real> partial(static_cast<std::size_t>(nchunks), m);
  parallel_for(nchunks, [&](Index c) {
    const Index lo = c * kReduceChunk;
    const Index hi = lo + kReduceChunk < n ? lo + kReduceChunk : n;
    Real cm = std::numeric_limits<Real>::lowest();
    for (Index i = lo; i < hi; ++i) {
      Real v = body(i);
      if (v > cm) cm = v;
    }
    partial[static_cast<std::size_t>(c)] = cm;
  });
  for (Index c = 0; c < nchunks; ++c)
    if (partial[static_cast<std::size_t>(c)] > m)
      m = partial[static_cast<std::size_t>(c)];
  return m;
}

} // namespace ptatin
