#include "calib.hpp"

#include <cstdint>
#include <cstdio>
#include <vector>

#include "replicate.hpp"

namespace perfbench {

namespace {

// The hold model of the event-list literature on a binary min-heap, with a
// random read-modify-write into a table per operation: the mix of a
// discrete-event engine's queue and a model's lookups. It runs twice, once
// on a working set of a few MB (the workloads' resident sets are 15-32 MB),
// which memory and cache contention slow, and once on a cache-resident one,
// which only a loss of CPU speed slows: lhc_tier and p2p_churn spend much
// of their time in cache misses, chaos_bag little. With three co-running
// memory-bound or three CPU-bound processes, both workloads scaled by the
// sum stayed within 4 % of their uncontended figures; scaled by either half
// alone, one of them moved by 5-6 %.
constexpr std::size_t kHeapSize = 1u << 15;
constexpr std::size_t kTableSize = 1u << 19;  // 4 MB of uint64
constexpr std::size_t kSmallHeapSize = 1u << 10;
constexpr std::size_t kSmallTableSize = 1u << 12;  // 32 KB
constexpr std::size_t kHolds = 1u << 19;

struct Work {
  std::vector<std::uint64_t> heap;  // (time << 20 | tag), smallest on top
  std::vector<std::uint64_t> table;
};

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void sift_down(std::vector<std::uint64_t>& h, std::size_t i) {
  const std::size_t n = h.size();
  const std::uint64_t x = h[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && h[c + 1] < h[c]) ++c;
    if (h[c] >= x) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = x;
}

std::uint64_t hold_model(Work& w, std::size_t heap_size, std::size_t table_size) {
  std::uint64_t rng = 0x5eed;
  w.heap.resize(heap_size);
  for (auto& e : w.heap) e = (splitmix(rng) >> 24) << 20;
  for (std::size_t i = heap_size / 2; i-- > 0;) sift_down(w.heap, i);
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kHolds; ++k) {
    const std::uint64_t r = splitmix(rng);
    const std::uint64_t top = w.heap.front();
    std::uint64_t& cell = w.table[r & (table_size - 1)];
    cell += top;
    sum += cell;
    // Pop the earliest and hold it: re-insert at a later time.
    w.heap.front() = top + (((r >> 40) + 1) << 20) + (k & 0xfffff);
    sift_down(w.heap, 0);
  }
  return sum;
}

}  // namespace

CalibSample run_calibration() {
  static Work work;
  static volatile std::uint64_t sink;
  if (work.table.empty()) {
    work.table.assign(kTableSize, 1);
    sink = hold_model(work, kHeapSize, kTableSize);  // page in and warm up, untimed
  }
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  sink = hold_model(work, kHeapSize, kTableSize) + hold_model(work, kSmallHeapSize, kSmallTableSize);
  CalibSample s;
  s.wall_s = seconds_between(t0, Clock::now());
  s.cpu_s = process_cpu_s() - cpu0;
  return s;
}

}  // namespace perfbench
