#include "loadgen.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>

#include "common/random.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNanos(int64_t deadline_ns) {
  if (deadline_ns <= NowNanos()) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void RaiseOwnNice(int increment) {
  // With PRIO_PROCESS, a thread id names that one thread on Linux.
  const auto tid = static_cast<id_t>(syscall(SYS_gettid));
  errno = 0;
  const int current = getpriority(PRIO_PROCESS, tid);
  if (errno == 0) setpriority(PRIO_PROCESS, tid, current + increment);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

bool SupportsPercentile(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                     uint64_t seed) {
  gf::Rng rng(seed);
  std::vector<int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s * 1e9;
    if (t >= horizon_ns) break;
    offsets.push_back(static_cast<int64_t>(t));
  }
  return offsets;
}

std::vector<std::size_t> AttributeFifo(std::span<const std::size_t> batch_sizes,
                                       std::size_t num_queued) {
  std::vector<std::size_t> batch_of(num_queued, kNoBatch);
  std::size_t next = 0;
  for (std::size_t b = 0; b < batch_sizes.size() && next < num_queued; ++b) {
    const std::size_t end = std::min(num_queued, next + batch_sizes[b]);
    std::fill(batch_of.begin() + static_cast<std::ptrdiff_t>(next),
              batch_of.begin() + static_cast<std::ptrdiff_t>(end), b);
    next = end;
  }
  return batch_of;
}

int64_t CoveredNanos(int64_t begin, int64_t end,
                     std::vector<std::pair<int64_t, int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0;
  int64_t reached = begin;  // everything before it is counted
  for (const auto& [start, stop] : spans) {
    const int64_t from = std::max(start, reached);
    const int64_t to = std::min(stop, end);
    if (to > from) {
      covered += to - from;
      reached = to;
    }
  }
  return covered;
}

uint64_t EpochOfEvent(uint64_t i, uint64_t publish_every, uint64_t base_epoch) {
  return base_epoch + i / publish_every + 1;
}

uint64_t FullEpochEvents(uint64_t num_events, uint64_t publish_every) {
  return num_events / publish_every * publish_every;
}

}  // namespace perfbench
