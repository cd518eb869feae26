// Parallel execution helper.
//
// parallel_for splits [0, n) into contiguous chunks executed on std::thread
// workers. Small ranges run inline to avoid thread-spawn overhead dominating
// the many tiny kernels a training step issues.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace snappix {

// Invokes fn(begin, end) over a partition of [0, n). `grain` is the minimum
// work per thread; ranges smaller than 2*grain run on the calling thread.
inline void parallel_for(std::int64_t n,
                         const std::function<void(std::int64_t, std::int64_t)>& fn,
                         std::int64_t grain = 4096) {
  if (n <= 0) {
    return;
  }
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  const std::int64_t max_threads = static_cast<std::int64_t>(hw);
  const std::int64_t want = std::min<std::int64_t>(max_threads, (n + grain - 1) / grain);
  if (want <= 1) {
    fn(0, n);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(want));
  const std::int64_t chunk = (n + want - 1) / want;
  for (std::int64_t t = 0; t < want; ++t) {
    const std::int64_t begin = t * chunk;
    const std::int64_t end = std::min(n, begin + chunk);
    if (begin >= end) {
      break;
    }
    workers.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& w : workers) {
    w.join();
  }
}

}  // namespace snappix
