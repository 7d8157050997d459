#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/**
 * @file
 * The benchmark's own arithmetic, kept free of library dependencies so
 * tests/selftest.cpp can pin it down: the tail-percentile rule, the
 * open-loop ladder stop rule, output comparison, and quartile helpers.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/** Stand-in for the +infinity latency of a failed request in JSON. */
inline constexpr double kFailedLatency = 1e18;

/** A percentile as the tail rule resolved it. */
struct Percentile {
    /** Sample value (kFailedLatency when a failure sits at that rank). */
    double value = 0.0;
    /** The percentile actually reported (may be below the one asked). */
    double effective = 0.0;
};

/**
 * Tail-percentile rule. @p samples are the finite latencies of the
 * requests that succeeded; @p failures requests failed and rank at
 * +infinity. The nearest-rank @p pct percentile of the N = samples +
 * failures values is reported only when at least 10 values lie beyond
 * its rank; otherwise the highest percentile that still has 10 beyond
 * it is reported instead, and never one below the median.
 */
Percentile tail_percentile(std::vector<double> samples, std::size_t failures,
                           double pct);

/**
 * The tail percentile of a run as the median over blocks: @p latency
 * (in send order, failures as kFailedLatency) is cut into consecutive
 * blocks of at least @p block requests (at most 9 blocks), the tail
 * rule is applied in each block, and the median block value is
 * reported. A burst of stalls then moves one block, not the run.
 */
Percentile blocked_percentile(const std::vector<double>& latency, double pct,
                              std::size_t block = 1000);

/** The machine's cumulative steal time (see steal_ticks()) at a time. */
struct StealSample {
    std::int64_t t_ns = 0;
    double ticks = 0.0;
};

/** Tail figures of one block of consecutive requests. */
struct LatencyBlock {
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p99_effective = 0.0;
    /** Steal ticks per second while the block ran. */
    double steal_per_s = 0.0;
};

/**
 * Cut one launch's requests into consecutive blocks of at least
 * @p block requests and apply the tail rule in each. @p sent_ns is in
 * ascending order and @p latency_us in the same order (failures as
 * kFailedLatency). A block's steal rate is read off @p steal (ascending
 * times) between the last sample at or before its first send and the
 * first sample at or after its last answer; it is 0 with fewer than two
 * samples.
 */
std::vector<LatencyBlock> latency_blocks(std::span<const std::int64_t> sent_ns,
                                         std::span<const double> latency_us,
                                         std::span<const StealSample> steal,
                                         std::size_t block = 1000);

/** A run's latency from its least-disturbed blocks. */
struct QuietLatency {
    double p50_us = 0.0;
    double p99_us = 0.0;
    double p99_effective = 0.0;
    std::size_t blocks = 0;
    std::size_t kept = 0;
    double median_steal_per_s = 0.0;
};

/**
 * Keep the blocks whose steal rate is at most the median block's (all
 * of them when steal is constant or not reported) and report the
 * median of their p50s and of their p99s. Time the hypervisor gives to
 * other guests stalls whatever request is running, so the blocks it
 * hit least show the program, not its neighbours.
 */
QuietLatency quiet_latency(std::span<const LatencyBlock> blocks);

/** Median of @p values (0 for an empty set). */
double median(std::vector<double> values);

/** Median of one field over @p items (per-launch figures of a run). */
template <typename T>
double
median_over(const std::vector<T>& items, double T::*field)
{
    std::vector<double> values;
    for (const T& item : items)
        values.push_back(item.*field);
    return median(std::move(values));
}

/**
 * The ladder's backlog test: @p backlog holds the due-but-unanswered
 * request count sampled at even intervals over one rung. The backlog
 * grows when the mean of the last third exceeds the mean of the first
 * third by more than 4 requests plus a quarter of the first third.
 */
bool backlog_growing(std::span<const double> backlog);

/** One rung of the open-loop ladder as measured. */
struct Rung {
    double rate = 0.0;
    double p99_us = 0.0;
    bool backlog_grows = false;
};

/**
 * Highest rate of the ladder reached before the first rung whose p99
 * exceeds @p limit_us or whose backlog grows (the ladder stops there).
 * Returns 0 when the first rung already misses.
 */
double max_rate_at_slo(std::span<const Rung> rungs, double limit_us);

/** Number of 32-bit words that differ (int results are bit-exact). */
std::size_t count_bit_mismatches(std::span<const std::uint32_t> expected,
                                 std::span<const std::uint32_t> actual);

/**
 * Float results under the repo-wide gate: an element passes when it is
 * within 512 ULP of the oracle or its discrepancy |a-b| / max(1, |b|)
 * is at most 1e-3. Returns the number of failing elements (a length
 * mismatch fails every element).
 */
std::size_t count_float_mismatches(std::span<const float> expected,
                                   std::span<const float> actual);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
