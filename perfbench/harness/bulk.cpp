/**
 * @file
 * The `bulk` workload: one caller, closed loop, run_recurrence(...,
 * Backend::kCpu) on four Table-1 rows in their native domain at
 * n = 5 * 2^26 elements (1.25 GiB per array, at least 4x the L3 on the
 * reference box). Each call is checked against the serial oracle,
 * evaluated chunk by chunk so the check needs no third array, and is
 * followed by a memcpy of the same bytes into reused and into fresh
 * memory: the same-run ceiling the call is judged against.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "kernels/runner.h"
#include "kernels/serial.h"
#include "kernels/stream_state.h"
#include "spec_loop.h"
#include "stats.h"
#include "trace.h"
#include "util/ring.h"

namespace perfbench {

namespace pk = plr::kernels;

namespace {

constexpr std::size_t kBulkN = std::size_t{5} << 26;

template <typename V>
std::vector<V>
bulk_input(std::size_t n, std::uint64_t seed)
{
    // Generated in 1 Mi-element slices so the bit-pattern staging
    // buffer stays small next to the 1.25 GiB array.
    constexpr pk::Domain domain =
        std::is_same_v<V, float> ? pk::Domain::kFloat : pk::Domain::kInt;
    std::vector<V> values(n);
    const std::size_t slice = std::size_t{1} << 20;
    for (std::size_t off = 0; off < n; off += slice) {
        const std::size_t len = std::min(slice, n - off);
        const auto bits = make_input(domain, len, seed * 1000003 + off / slice);
        for (std::size_t i = 0; i < len; ++i)
            values[off + i] = pk::bits_value<V>(bits[i]);
    }
    return values;
}

/**
 * Mismatches of @p out against the serial oracle, evaluated in 1 Mi
 * slices on up to 4 threads. Each slice is seeded with the candidate's
 * own preceding outputs: the first wrong element is always checked
 * against a seed that is still right, so no error can hide, and no
 * third 1.25 GiB array is needed.
 */
template <typename Ring>
std::size_t
verify_chunked(const plr::Signature& sig,
               std::span<const typename Ring::value_type> in,
               std::span<const typename Ring::value_type> out)
{
    using V = typename Ring::value_type;
    if (in.size() != out.size())
        return in.size();
    const std::size_t k = sig.order();
    const std::size_t p = sig.fir_taps();
    const std::size_t slice = std::size_t{1} << 20;
    const std::size_t slices = (in.size() + slice - 1) / slice;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> bad{0};
    auto worker = [&] {
        std::vector<V> want(slice);
        std::vector<V> y_tail;
        std::vector<V> x_tail;
        for (std::size_t s = next++; s < slices; s = next++) {
            const std::size_t off = s * slice;
            const std::size_t len = std::min(slice, in.size() - off);
            y_tail.clear();
            x_tail.clear();
            // Slices are 2^20 long, far longer than any carry (k, p <= 3).
            if (off != 0) {
                for (std::size_t d = 0; d < k; ++d)
                    y_tail.push_back(out[off - 1 - d]);
                for (std::size_t d = 0; d < p; ++d)
                    x_tail.push_back(in[off - 1 - d]);
            }
            std::span<V> y(want.data(), len);
            pk::serial_recurrence_seeded_into<Ring>(sig, y_tail, x_tail,
                                                    in.subspan(off, len), y);
            const auto got = out.subspan(off, len);
            if constexpr (std::is_same_v<V, float>)
                bad += count_float_mismatches(y, got);
            else
                bad += count_bit_mismatches(
                    {reinterpret_cast<const std::uint32_t*>(y.data()), len},
                    {reinterpret_cast<const std::uint32_t*>(got.data()), len});
        }
    };
    std::vector<std::jthread> helpers;
    for (int t = 0; t < 3; ++t)
        helpers.emplace_back(worker);
    worker();
    helpers.clear();
    return bad;
}

struct BulkTally {
    std::vector<double> call_s;
    std::vector<double> fresh_s;
    std::vector<double> reused_s;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double setup_s = 0.0;
};

/** One timed call with its check and its two memcpy ceilings. */
template <typename Ring>
void
measure_call(const SigCase& c, std::span<const typename Ring::value_type> in,
             bool cold, bool layers, BulkTally& tally)
{
    using V = typename Ring::value_type;
    const std::size_t bytes = in.size() * sizeof(V);
    double call = 0.0;
    std::size_t bad = 0;
    {
        std::vector<V> out;
        {
            ScopedSpan span("kernels.run_recurrence");
            const std::int64_t t0 = now_ns();
            out = pk::run_recurrence(c.sig, in, pk::Backend::kCpu);
            call = since_s(t0);
        }
        {
            ScopedSpan span("harness.verify");
            bad = verify_chunked<Ring>(c.sig, in, out);
        }
        if (cold) {
            tally.setup_s += call;
        } else {
            // Reused: the returned vector's pages are already touched.
            ScopedSpan span("kernels.memcpy_reused");
            const std::int64_t t0 = now_ns();
            std::memcpy(out.data(), in.data(), bytes);
            tally.reused_s.push_back(since_s(t0));
        }
        if (layers) {
            {
                ScopedSpan span("kernels.spec_loop");
                spec_loop<V>(c.sig, in, out);
            }
            bad += verify_chunked<Ring>(c.sig, in, out);
        }
    }
    if (layers) {
        ScopedSpan span("kernels.oracle");
        const auto want = pk::serial_recurrence<Ring>(c.sig, in);
    }
    ++tally.attempted;
    if (bad != 0)
        ++tally.failed;
    if (cold)
        return;
    tally.call_s.push_back(bad == 0 ? call : kFailedLatency);
    ScopedSpan span("kernels.memcpy_fresh");
    const std::int64_t t0 = now_ns();
    void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED)
        throw std::runtime_error("bulk: mmap failed");
    std::memcpy(map, in.data(), bytes);
    tally.fresh_s.push_back(since_s(t0));
    munmap(map, bytes);
}

}  // namespace

Outcome
run_bulk(const Options& opts)
{
    const std::vector<SigCase> cases = {
        table1_case("prefix-sum"), table1_case("3-tuple-prefix-sum"),
        table1_case("3rd-order-prefix-sum"), table1_case("2-stage-lowpass")};
    const std::size_t n = kBulkN;
    BulkTally tally;

    // One round: the three int rows on one input, then the float row
    // on its own (one input array alive at a time keeps the footprint
    // at input + output). Inputs are generated before any timing.
    auto round = [&](bool cold, bool layers) {
        {
            const auto in = bulk_input<std::int32_t>(n, opts.seed);
            for (std::size_t i = 0; i < 3; ++i)
                measure_call<plr::IntRing>(cases[i], in, cold, layers, tally);
        }
        const auto in = bulk_input<float>(n, opts.seed + 1);
        measure_call<plr::FloatRing>(cases[3], in, cold, layers, tally);
    };

    round(true, false);
    Trace::instance().enable(opts.trace);
    const std::int64_t start = now_ns();
    std::size_t rounds = 0;
    while (rounds == 0 || since_s(start) < opts.seconds) {
        round(false, opts.trace && rounds == 0);
        ++rounds;
    }

    double trace_overhead = 1.0;
    if (opts.trace) {
        // Same call with spans off and on: what tracing itself costs.
        const auto in = bulk_input<std::int32_t>(n, opts.seed);
        double on = 0.0;
        double off = 0.0;
        for (const bool traced : {false, true}) {
            Trace::instance().enable(traced);
            ScopedSpan span("trace.overhead_call");
            const std::int64_t t0 = now_ns();
            const auto out = pk::run_recurrence(
                cases[0].sig, std::span<const std::int32_t>(in), pk::Backend::kCpu);
            (traced ? on : off) = since_s(t0);
        }
        trace_overhead = on / off;
    }

    double call_total = 0.0;
    std::vector<double> ok_us;
    std::size_t failures = 0;
    for (const double s : tally.call_s) {
        if (s >= kFailedLatency) {
            ++failures;
            continue;
        }
        call_total += s;
        ok_us.push_back(s * 1e6);
    }
    double fresh_total = 0.0;
    for (const double s : tally.fresh_s)
        fresh_total += s;
    const double calls = static_cast<double>(ok_us.size());

    Outcome o;
    o.attempted = tally.attempted;
    o.failed = tally.failed;
    auto& e = o.end_to_end;
    e.set("setup_s", tally.setup_s, "s");
    e.set("throughput_elems_per_s", calls * n / call_total, "elem/s");
    e.set("memcpy_fraction", fresh_total / call_total, "ratio");
    e.set("latency_p50_us", tail_percentile(ok_us, failures, 50).value, "us");
    const Percentile p99 = tail_percentile(ok_us, failures, 99);
    e.set("latency_p99_us", p99.value, "us");
    e.set("peak_rss_mib", peak_rss_mib(getpid()), "MiB");

    const MemcpyCeiling ceiling{n * 4, median(tally.fresh_s),
                                median(tally.reused_s)};
    o.report.num("n", static_cast<double>(n))
        .num("array_bytes", static_cast<double>(n) * 4)
        .num("rounds", static_cast<double>(rounds))
        .num("calls_per_s", calls / call_total)
        .num("latency_p99_effective_pct", p99.effective)
        .raw("environment", environment_block({ceiling}));

    if (opts.trace) {
        LayerInputs in;
        in.cases = cases;
        in.payload_n = n;
        in.run_kernel_probe = false;
        for (std::size_t r = 0; r < rounds + 1; ++r)
            for (std::size_t i = 0; i < cases.size(); ++i)
                in.lookups.push_back(i);
        in.trace_overhead = trace_overhead;
        layer_probes(in, opts, o.layers);
    }
    return o;
}

}  // namespace perfbench
