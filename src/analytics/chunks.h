#ifndef KBFORGE_ANALYTICS_CHUNKS_H_
#define KBFORGE_ANALYTICS_CHUNKS_H_

#include <algorithm>
#include <cstddef>

#include "util/thread_pool.h"

namespace kb {
namespace analytics {

/// Number of chunks ForChunks splits [0, n) into: four per pool thread,
/// so uneven chunks still balance, and never more than n.
inline size_t NumChunks(ThreadPool* pool, size_t n) {
  size_t num_chunks = pool != nullptr ? pool->num_threads() * 4 : 1;
  return std::max<size_t>(1, std::min(num_chunks, n));
}

/// Splits [0, n) into NumChunks(pool, n) roughly even chunks and runs
/// `fn(begin, end, chunk_index)` for each — on the pool when given,
/// inline otherwise. The per-chunk index lets callers keep partial
/// results without sharing.
template <typename Fn>
void ForChunks(ThreadPool* pool, size_t n, const Fn& fn) {
  const size_t num_chunks = NumChunks(pool, n);
  if (pool == nullptr || num_chunks == 1) {
    fn(0, n, 0);
    return;
  }
  const size_t per = (n + num_chunks - 1) / num_chunks;
  pool->ParallelFor(num_chunks, [&](size_t c) {
    size_t begin = c * per;
    size_t end = std::min(n, begin + per);
    if (begin < end) fn(begin, end, c);
  });
}

}  // namespace analytics
}  // namespace kb

#endif  // KBFORGE_ANALYTICS_CHUNKS_H_
