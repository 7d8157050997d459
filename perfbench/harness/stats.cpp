#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <numeric>

namespace perfbench {

Percentile
tail_percentile(std::vector<double> samples, std::size_t failures, double pct)
{
    const std::size_t n = samples.size() + failures;
    if (n == 0)
        return {};
    std::sort(samples.begin(), samples.end());
    samples.resize(n, kFailedLatency);
    // Nearest rank (1-based) of the requested percentile.
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    // At least 10 values must lie beyond the reported rank.
    if (rank + 10 > n)
        rank = n > 10 ? n - 10 : 0;
    const std::size_t median_rank = (n + 1) / 2;
    rank = std::max(rank, median_rank);
    return {samples[rank - 1],
            100.0 * static_cast<double>(rank) / static_cast<double>(n)};
}

Percentile
blocked_percentile(const std::vector<double>& latency, double pct,
                   std::size_t block)
{
    const std::size_t blocks =
        std::clamp<std::size_t>(latency.size() / std::max<std::size_t>(block, 1), 1, 9);
    std::vector<double> values;
    std::vector<double> effective;
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t lo = latency.size() * b / blocks;
        const std::size_t hi = latency.size() * (b + 1) / blocks;
        std::vector<double> ok;
        std::size_t failed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            if (latency[i] >= kFailedLatency)
                ++failed;
            else
                ok.push_back(latency[i]);
        }
        const Percentile p = tail_percentile(std::move(ok), failed, pct);
        values.push_back(p.value);
        effective.push_back(p.effective);
    }
    return {median(values), median(effective)};
}

std::vector<LatencyBlock>
latency_blocks(std::span<const std::int64_t> sent_ns,
               std::span<const double> latency_us,
               std::span<const StealSample> steal, std::size_t block)
{
    const std::size_t n = latency_us.size();
    const std::size_t count =
        std::max<std::size_t>(n / std::max<std::size_t>(block, 1), 1);
    // Cumulative steal ticks and time at the sample bracketing t from
    // below (before = true) or from above.
    auto bracket = [&](std::int64_t t, bool before) -> const StealSample& {
        auto it = std::lower_bound(
            steal.begin(), steal.end(), t,
            [](const StealSample& s, std::int64_t v) { return s.t_ns < v; });
        if (before) {
            if (it == steal.end() || it->t_ns > t)
                it = it == steal.begin() ? it : std::prev(it);
        } else if (it == steal.end()) {
            it = std::prev(it);
        }
        return *it;
    };
    std::vector<LatencyBlock> out;
    for (std::size_t b = 0; b < count && n > 0; ++b) {
        const std::size_t lo = n * b / count;
        const std::size_t hi = n * (b + 1) / count;
        std::vector<double> ok;
        std::size_t failed = 0;
        std::int64_t end_ns = sent_ns[lo];
        for (std::size_t i = lo; i < hi; ++i) {
            if (latency_us[i] >= kFailedLatency) {
                ++failed;
                continue;
            }
            ok.push_back(latency_us[i]);
            end_ns = std::max(end_ns, sent_ns[i] + static_cast<std::int64_t>(
                                                       latency_us[i] * 1e3));
        }
        LatencyBlock blk;
        blk.p50_us = tail_percentile(ok, failed, 50).value;
        const Percentile p99 = tail_percentile(std::move(ok), failed, 99);
        blk.p99_us = p99.value;
        blk.p99_effective = p99.effective;
        if (steal.size() >= 2) {
            const StealSample& a = bracket(sent_ns[lo], true);
            const StealSample& z = bracket(end_ns, false);
            const double span_s = static_cast<double>(z.t_ns - a.t_ns) * 1e-9;
            if (span_s > 0.0)
                blk.steal_per_s = (z.ticks - a.ticks) / span_s;
        }
        out.push_back(blk);
    }
    return out;
}

QuietLatency
quiet_latency(std::span<const LatencyBlock> blocks)
{
    QuietLatency q;
    q.blocks = blocks.size();
    std::vector<double> steal;
    for (const LatencyBlock& b : blocks)
        steal.push_back(b.steal_per_s);
    q.median_steal_per_s = median(steal);
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> effective;
    for (const LatencyBlock& b : blocks) {
        if (b.steal_per_s > q.median_steal_per_s)
            continue;
        p50.push_back(b.p50_us);
        p99.push_back(b.p99_us);
        effective.push_back(b.p99_effective);
    }
    q.kept = p99.size();
    q.p50_us = median(std::move(p50));
    q.p99_us = median(std::move(p99));
    q.p99_effective = median(std::move(effective));
    return q;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

bool
backlog_growing(std::span<const double> backlog)
{
    const std::size_t third = backlog.size() / 3;
    if (third == 0)
        return false;
    auto mean = [](std::span<const double> s) {
        return std::accumulate(s.begin(), s.end(), 0.0) /
               static_cast<double>(s.size());
    };
    const double first = mean(backlog.first(third));
    const double last = mean(backlog.last(third));
    return last > first + 4.0 + 0.25 * first;
}

double
max_rate_at_slo(std::span<const Rung> rungs, double limit_us)
{
    double best = 0.0;
    for (const Rung& rung : rungs) {
        if (rung.p99_us > limit_us || rung.backlog_grows)
            break;
        best = rung.rate;
    }
    return best;
}

std::size_t
count_bit_mismatches(std::span<const std::uint32_t> expected,
                     std::span<const std::uint32_t> actual)
{
    if (expected.size() != actual.size())
        return std::max(expected.size(), actual.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < expected.size(); ++i)
        bad += expected[i] != actual[i];
    return bad;
}

namespace {

/** Distance in representable floats (0 for bit-equal; +0/-0 adjacent). */
std::uint64_t
ulp_distance(float a, float b)
{
    std::uint32_t ua = 0;
    std::uint32_t ub = 0;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    if (ua == ub)
        return 0;
    if (!std::isfinite(a) || !std::isfinite(b))
        return UINT64_MAX;
    // Map the sign-magnitude bit patterns onto one monotone line.
    auto ordered = [](std::uint32_t u) -> std::int64_t {
        return (u & 0x80000000u) ? -static_cast<std::int64_t>(u & 0x7fffffffu)
                                 : static_cast<std::int64_t>(u) + 1;
    };
    const std::int64_t d = ordered(ua) - ordered(ub);
    return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

}  // namespace

std::size_t
count_float_mismatches(std::span<const float> expected,
                       std::span<const float> actual)
{
    if (expected.size() != actual.size())
        return std::max(expected.size(), actual.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const float want = expected[i];
        const float got = actual[i];
        if (ulp_distance(want, got) <= 512)
            continue;
        const double diff = std::fabs(static_cast<double>(got) - want);
        const double scale = std::max(1.0, std::fabs(static_cast<double>(want)));
        if (std::isfinite(got) && diff / scale <= 1e-3)
            continue;
        ++bad;
    }
    return bad;
}

}  // namespace perfbench
