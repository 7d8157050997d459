/**
 * @file
 * Tests of the benchmark's own arithmetic: the tail-percentile rule,
 * latency blocks chosen by steal time, the ladder stop rule, output
 * comparison down to one flipped bit, medians, and span self-time
 * subtraction. Exits 1 on the first failed check.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;

int failed = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond    \
                      << ") failed\n";                                      \
            ++failed;                                                       \
        }                                                                   \
    } while (0)

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
percentile_rule()
{
    // 1000 values: p99 has exactly 10 beyond it.
    Percentile p = tail_percentile(ramp(1000), 0, 99);
    CHECK(p.value == 990 && p.effective == 99);
    // 100 values: p99 would have 1 beyond; the rule falls back to p90.
    p = tail_percentile(ramp(100), 0, 99);
    CHECK(p.value == 90 && p.effective == 90);
    // Order of the samples does not matter.
    std::vector<double> shuffled = ramp(1000);
    std::swap(shuffled[0], shuffled[999]);
    CHECK(tail_percentile(shuffled, 0, 99).value == 990);
    // Failures rank at +infinity: 5 of 1000 leave p99 finite ...
    p = tail_percentile(ramp(995), 5, 99);
    CHECK(p.value == 990);
    // ... 15 of 1000 push it onto a failure.
    p = tail_percentile(ramp(985), 15, 99);
    CHECK(p.value == kFailedLatency);
    // Too few values for any tail: the median is reported.
    p = tail_percentile(ramp(5), 0, 99);
    CHECK(p.value == 3 && p.effective == 60);
    CHECK(tail_percentile(ramp(1000), 0, 50).value == 500);
    CHECK(tail_percentile({}, 0, 99).value == 0);

    // Blocked p99: one block of stalls moves one block, not the median.
    std::vector<double> run;
    for (int b = 0; b < 9; ++b)
        for (int i = 1; i <= 1000; ++i)
            run.push_back(b == 4 ? 1e6 : static_cast<double>(i));
    CHECK(blocked_percentile(run, 99).value == 990);
}

void
quiet_blocks()
{
    // 4000 requests, one every millisecond, each answered in 500 us.
    std::vector<std::int64_t> sent;
    std::vector<double> latency;
    for (int i = 0; i < 4000; ++i) {
        sent.push_back(std::int64_t{i} * 1'000'000);
        latency.push_back(i % 1000 < 990 ? 500.0 : 5000.0);
    }
    // Steal ticks: none in the first and third second, 10 in the
    // second, 30 in the fourth.
    const std::vector<StealSample> steal = {
        {0, 0.0}, {1'000'000'000, 0.0}, {2'000'000'000, 10.0},
        {3'000'000'000, 10.0}, {4'000'000'000, 40.0}};
    const auto blocks = latency_blocks(sent, latency, steal);
    CHECK(blocks.size() == 4);
    CHECK(blocks[0].p99_us == 500 && blocks[0].p50_us == 500);
    // A block's last answer lands after the next sample: that second
    // counts too.
    CHECK(blocks[0].steal_per_s == 5.0);
    CHECK(blocks[1].steal_per_s == 5.0);
    CHECK(blocks[2].steal_per_s == 15.0);
    CHECK(blocks[3].steal_per_s == 30.0);
    // Blocks at or below the median steal rate are kept.
    std::vector<LatencyBlock> mixed = {{500, 900, 99, 0.0},
                                       {500, 1000, 99, 1.0},
                                       {600, 5000, 99, 40.0},
                                       {700, 9000, 99, 80.0}};
    QuietLatency q = quiet_latency(mixed);
    CHECK(q.blocks == 4 && q.kept == 2);
    CHECK(q.p99_us == 950 && q.p50_us == 500);
    // Without steal figures every block counts.
    for (LatencyBlock& b : mixed)
        b.steal_per_s = 0.0;
    q = quiet_latency(mixed);
    CHECK(q.kept == 4 && q.p99_us == 3000);
    // Fewer than two samples: no steal rate.
    CHECK(latency_blocks(sent, latency, {}).front().steal_per_s == 0.0);
    // A failed request ranks at +infinity in its block.
    latency[10] = kFailedLatency;
    CHECK(latency_blocks(sent, latency, steal).front().p99_us == 5000);
}

void
ladder_rule()
{
    const std::vector<double> flat(30, 3.0);
    CHECK(!backlog_growing(flat));
    std::vector<double> noisy;
    for (int i = 0; i < 30; ++i)
        noisy.push_back(i % 2 ? 5.0 : 1.0);
    CHECK(!backlog_growing(noisy));
    CHECK(backlog_growing(ramp(30)));
    CHECK(!backlog_growing(std::vector<double>{1.0, 50.0}));

    const std::vector<Rung> stops_on_p99 = {
        {100, 500, false}, {105, 900, false}, {110, 1200, false}, {116, 400, false}};
    CHECK(max_rate_at_slo(stops_on_p99, 1000) == 105);
    const std::vector<Rung> stops_on_backlog = {
        {100, 500, false}, {105, 600, true}, {110, 500, false}};
    CHECK(max_rate_at_slo(stops_on_backlog, 1000) == 100);
    const std::vector<Rung> first_misses = {{100, 1500, false}};
    CHECK(max_rate_at_slo(first_misses, 1000) == 0);
    // A failure in a rung makes its p99 infinite: the ladder stops.
    const std::vector<Rung> failure = {{100, 500, false}, {105, kFailedLatency, false}};
    CHECK(max_rate_at_slo(failure, 1000) == 100);
}

void
flipped_bits()
{
    std::vector<std::uint32_t> want(4096);
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = static_cast<std::uint32_t>(i * 2654435761u);
    CHECK(count_bit_mismatches(want, want) == 0);
    for (int bit = 0; bit < 32; ++bit) {
        auto got = want;
        got[1234] ^= 1u << bit;
        CHECK(count_bit_mismatches(want, got) == 1);
    }
    auto shorter = want;
    shorter.pop_back();
    CHECK(count_bit_mismatches(want, shorter) != 0);

    std::vector<float> fwant(1024);
    for (std::size_t i = 0; i < fwant.size(); ++i)
        fwant[i] = std::sin(static_cast<float>(i)) * 100.0f;
    CHECK(count_float_mismatches(fwant, fwant) == 0);
    auto flip = [&](std::size_t index, int bit) {
        auto got = fwant;
        std::uint32_t u = 0;
        std::memcpy(&u, &got[index], 4);
        u ^= 1u << bit;
        std::memcpy(&got[index], &u, 4);
        return count_float_mismatches(fwant, got);
    };
    // Sign and exponent bits move the value far outside the gate.
    for (int bit = 23; bit < 32; ++bit)
        CHECK(flip(700, bit) == 1);
    // The lowest mantissa bit is one ULP: inside the 512-ULP gate.
    CHECK(flip(700, 0) == 0);
    auto nan = fwant;
    nan[3] = std::nanf("");
    CHECK(count_float_mismatches(fwant, nan) == 1);
}

void
medians()
{
    CHECK(median(ramp(4)) == 2.5);
    CHECK(median(ramp(5)) == 3);
    CHECK(median({}) == 0);
}

void
self_time()
{
    // root [0,100]; children [10,30] and [20,50] overlap, [90,120]
    // sticks out of the root; a grandchild [12,18] under the first.
    std::vector<Span> spans = {
        {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
        {"c", 90, 120, 0, 1},     {"a.x", 12, 18, 1, 1},
    };
    const auto self = self_times(spans);
    CHECK(self[0] == 100 - (40 + 10));
    CHECK(self[1] == 20 - 6);
    CHECK(self[2] == 30);
    CHECK(self[3] == 30);
    CHECK(self[4] == 6);
}

}  // namespace

int
main()
{
    percentile_rule();
    quiet_blocks();
    ladder_rule();
    flipped_bits();
    medians();
    self_time();
    if (failed != 0) {
        std::cerr << failed << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench selftest: all checks passed\n";
    return 0;
}
