// Load-generation and measurement helpers shared by the workloads:
// monotonic time, seeded arrival schedules, the percentile rule, FIFO
// request-to-batch attribution, the event-to-epoch mapping and peak
// memory. Everything here is deterministic for a given seed, so the
// unit tests pin it down exactly.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// steady_clock (CLOCK_MONOTONIC) in nanoseconds.
int64_t NowNanos();

/// Sleeps until the absolute CLOCK_MONOTONIC time `deadline_ns`.
void SleepUntilNanos(int64_t deadline_ns);

/// Makes the calling thread's timed sleeps wake within microseconds of
/// their deadline (Linux timer slack 1 ns), so an open-loop sender is
/// late by its own wake-up cost, not by the default 50 us slack.
void TightenTimerSlack();

/// Runs `fn` on a fresh thread whose nice value is raised by
/// `increment`, and returns its result. Threads that `fn` starts (pool
/// workers, dispatchers, servers) inherit the raised value, so the
/// load generator, left at the default, wakes ahead of the program it
/// drives when both want the same cores — as clients on their own
/// machines would. Raising nice needs no privilege.
template <typename Fn>
auto RunNiced(int increment, Fn fn) -> decltype(fn());

void RaiseOwnNice(int increment);

/// Peak resident set of the process so far, in MiB (getrusage).
double PeakRssMiB();

/// The percentile rule: a timing is reported as its median and as the
/// highest percentile that has at least `kMinBeyond` samples beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile of `samples` (q in (0, 1]); 0 when empty.
/// The rank is ceil(q * n), 1-based.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

/// Whether n samples support reporting the q-quantile.
bool SupportsPercentile(std::size_t n, double q);

/// Poisson arrivals at `rate_per_s` over `seconds`: offsets in ns from
/// the phase start, ascending, drawn from `seed`.
std::vector<int64_t> PoissonSchedule(double rate_per_s, double seconds,
                                     uint64_t seed);

inline constexpr std::size_t kNoBatch = std::numeric_limits<std::size_t>::max();

/// FIFO attribution. The query service serves its queue in order with
/// one dispatcher and resolves a batch's promises together, so queued
/// request j rides in the first batch whose cumulative size exceeds j.
/// Returns each of `num_queued` requests' batch index (kNoBatch past the
/// batches' total).
std::vector<std::size_t> AttributeFifo(std::span<const std::size_t> batch_sizes,
                                       std::size_t num_queued);

/// Nanoseconds of the window [begin, end) that the union of `spans`
/// ([start, end) pairs, clipped to the window) covers.
int64_t CoveredNanos(int64_t begin, int64_t end,
                     std::vector<std::pair<int64_t, int64_t>> spans);

/// The epoch that first holds accepted event `i` (0-based, submit
/// order) when every event changes state, events apply first-in
/// first-out, and the ingest service publishes after every
/// `publish_every` applied events starting from `base_epoch`.
uint64_t EpochOfEvent(uint64_t i, uint64_t publish_every, uint64_t base_epoch);

/// Events [0, FullEpochEvents(n, p)) land in cadence-published epochs;
/// the rest wait for the final partial publish at shutdown.
uint64_t FullEpochEvents(uint64_t num_events, uint64_t publish_every);

template <typename Fn>
auto RunNiced(int increment, Fn fn) -> decltype(fn()) {
  std::optional<decltype(fn())> result;
  std::thread thread([&] {
    RaiseOwnNice(increment);
    result.emplace(fn());
  });
  thread.join();
  return std::move(*result);
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
