#pragma once

// Parallel-loop front ends over the persistent ThreadPool.
// Keeping the scheduling in one place lets the numeric kernels read like
// serial code (Core Guidelines: isolate concurrency).
//
// Determinism contract: every loop here is cut into a chunk grid that
// depends only on the problem size and the machine (loop_chunks), never on
// the worker count. Chunks are claimed dynamically for load balance, but
// bodies write disjoint data per index and reductions combine per-chunk
// partials serially in chunk order — so all results are bit-identical at
// any worker count (asserted by tests/test_determinism.cpp).

#include <cstddef>
#include <vector>

#include "parallel/partition.hpp"
#include "parallel/thread_pool.hpp"

namespace tsunami {

/// Worker count of the process-wide pool (the width parallel loops target).
inline int num_threads() {
  return static_cast<int>(ThreadPool::global().num_threads());
}

/// Parallel loop over [0, n). `body(i)` must be safe to invoke concurrently
/// for distinct indices. Indices are grouped into contiguous chunks; chunk
/// boundaries are worker-count-invariant.
template <typename Body>
void parallel_for(std::size_t n, const Body& body) {
  if (n == 0) return;
  const std::size_t chunks = loop_chunks(n);
  ThreadPool::global().run(chunks, [&](std::size_t c, std::size_t) {
    const Range r = block_range(n, chunks, c);
    for (std::size_t i = r.begin; i < r.end; ++i) body(i);
  });
}

/// Parallel loop with a serial fallback below a size threshold (avoids
/// scheduling overhead on tiny inner problems).
template <typename Body>
void parallel_for_min(std::size_t n, std::size_t min_parallel,
                      const Body& body) {
  if (n < min_parallel) {
    for (std::size_t i = 0; i < n; ++i) body(i);
  } else {
    parallel_for(n, body);
  }
}

/// Parallel loop whose body also receives a dense scratch slot index
/// < min(num_threads(), chunks): `body(i, slot)`. Replaces the old
/// omp_get_thread_num() pattern for indexing preallocated per-participant
/// scratch. Below `min_parallel` runs serially with slot 0.
template <typename Body>
void parallel_for_slotted(std::size_t n, std::size_t min_parallel,
                          const Body& body) {
  if (n < min_parallel) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  const std::size_t chunks = loop_chunks(n);
  ThreadPool::global().run(chunks, [&](std::size_t c, std::size_t slot) {
    const Range r = block_range(n, chunks, c);
    for (std::size_t i = r.begin; i < r.end; ++i) body(i, slot);
  });
}

/// Parallel loop over contiguous sub-ranges of [0, n): `body(begin, end)` is
/// called once per chunk. For kernels that want to own the inner loop (e.g.
/// a column-panel sweep).
template <typename Body>
void parallel_for_ranges(std::size_t n, const Body& body) {
  if (n == 0) return;
  const std::size_t chunks = loop_chunks(n);
  ThreadPool::global().run(chunks, [&](std::size_t c, std::size_t) {
    const Range r = block_range(n, chunks, c);
    body(r.begin, r.end);
  });
}

/// Parallel sum-reduction of `f(i)` over [0, n). Per-chunk partial sums are
/// combined serially in chunk order, so the result is bit-identical at any
/// worker count (though it differs from a single left-to-right serial sum —
/// callers compare against the same reduction, not a reference fold).
template <typename F>
double parallel_reduce_sum(std::size_t n, const F& f) {
  if (n == 0) return 0.0;
  const std::size_t chunks = loop_chunks(n);
  std::vector<double> partial(chunks, 0.0);
  ThreadPool::global().run(chunks, [&](std::size_t c, std::size_t) {
    const Range r = block_range(n, chunks, c);
    double s = 0.0;
    for (std::size_t i = r.begin; i < r.end; ++i) s += f(i);
    partial[c] = s;
  });
  double sum = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) sum += partial[c];
  return sum;
}

/// Parallel max-reduction of `f(i)` over [0, n); 0.0 for an empty range
/// (matching the amax convention: magnitudes are non-negative).
template <typename F>
double parallel_reduce_max(std::size_t n, const F& f) {
  if (n == 0) return 0.0;
  const std::size_t chunks = loop_chunks(n);
  std::vector<double> partial(chunks, 0.0);
  ThreadPool::global().run(chunks, [&](std::size_t c, std::size_t) {
    const Range r = block_range(n, chunks, c);
    double m = 0.0;
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const double v = f(i);
      if (v > m) m = v;
    }
    partial[c] = m;
  });
  double m = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (partial[c] > m) m = partial[c];
  }
  return m;
}

}  // namespace tsunami
