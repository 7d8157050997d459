/**
 * @file
 * The serving workloads against a plr_server child process.
 *
 * serve_small: open loop. One sender thread writes stateless v2
 * idempotent requests (64..4096 elements, log-uniform) at seeded
 * Poisson due times over 4 pipelined AF_UNIX connections; one reader
 * thread collects the answers. 90% of requests use the 14 Table-1
 * rows, 10% a seeded pool of 256 generated signatures (more than the
 * default plan-cache capacity of 64, so misses recur). Phase (a) runs
 * at the frozen rate R; phase (b) climbs a geometric ladder in 5%
 * steps until a rung's p99 exceeds 1 ms or its backlog grows.
 * Latency runs from each request's due time, so sender lag counts.
 *
 * serve_large: closed loop. 4 connections, one 65 536-element request
 * in flight on each, over 3 hot plans. 2% of requests are resent with
 * the same id right after their answer; the replay cache must answer
 * them flagged replayed and bit-identical (they are checked and counted
 * but kept out of the latency and throughput figures).
 *
 * Both run several fresh server launches per run and report medians
 * over launches: how a launch's threads land on the cores moves all of
 * its figures together. serve_large takes its latency figures from the
 * blocks of 1000 requests that the hypervisor took the least CPU time
 * from (see quiet_latency()).
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "server/transport.h"
#include "server/wire.h"
#include "stats.h"
#include "testing/corpus.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

namespace pk = plr::kernels;
namespace ps = plr::server;

namespace {

constexpr std::size_t kConnections = 4;
/** serve_small's frozen open-loop rate R (req/s): about half the rate
    at which the seed commit still held p99 <= 1 ms on a good launch. */
constexpr double kRate = 8000.0;
constexpr double kSloUs = 1000.0;
constexpr double kLadderStep = 1.05;
constexpr std::size_t kLadderRungs = 12;
/** Fresh server launches per serve_small run (medians over them). */
constexpr std::size_t kLaunches = 5;
constexpr std::size_t kSmallMin = 64;
constexpr std::size_t kSmallMax = 4096;
constexpr std::size_t kPoolSignatures = 256;
constexpr std::size_t kLargeN = 65536;
/** serve_large requests resent with the same id (replay cache). */
constexpr double kResendShare = 0.02;
/** Untimed serve_large requests per connection after each launch, so
    the server's 1024-entry replay cache is full before timing starts;
    capped in time so a stalled machine cannot stretch the run. */
constexpr std::uint64_t kWarmupRequests = 320;
constexpr double kWarmupCapS = 3.0;
/** How often serve_large's main thread reads the steal counter. */
constexpr std::int64_t kStealEveryNs = 100'000'000;

/** A request of the workload: which case, how many elements. */
struct Planned {
    std::size_t case_index = 0;
    std::size_t n = 0;
};

/** A case's 4096-element input and oracle answer; a request of n
    elements sends the first n inputs and expects the first n outputs
    (the recurrence is causal and starts from zero state). */
struct Template {
    std::vector<std::uint32_t> input;
    std::vector<std::uint32_t> expected;
};

std::vector<Template>
make_templates(const std::vector<SigCase>& cases, std::size_t n,
               std::size_t per_case, std::uint64_t seed)
{
    std::vector<Template> out;
    for (std::size_t c = 0; c < cases.size(); ++c)
        for (std::size_t v = 0; v < per_case; ++v) {
            Template t;
            t.input = make_input(cases[c].domain, n, seed * 7919 + c * 31 + v);
            t.expected = oracle(cases[c], t.input);
            out.push_back(std::move(t));
        }
    return out;
}

/** One 64-element request per hot case on @p fd, each checked. */
void
first_answers(int fd, const std::vector<SigCase>& hot, std::uint64_t seed,
              std::uint64_t& attempted, std::uint64_t& failed)
{
    std::uint64_t id = 1ull << 48;
    for (const SigCase& c : hot) {
        const auto input = make_input(c.domain, kSmallMin, seed + id);
        const auto expected = oracle(c, input);
        auto frame = encode(c, input, 1);
        stamp(frame, 1, ++id);
        ps::write_frame(fd, frame);
        const auto reply = ps::read_frame(fd);
        ++attempted;
        if (!reply || !check_response(*reply, c.domain, expected, id).ok)
            ++failed;
    }
}

// ---------------------------------------------------------------------
// serve_small.

/** One open-loop phase: the schedule, frames and what came back. */
struct Phase {
    std::vector<std::int64_t> due_ns;  // offsets from the phase start
    std::vector<Planned> planned;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint64_t> ids;
    // Results.
    std::vector<double> latency_us;  // kFailedLatency for failures
    std::vector<double> lag_us;
    std::vector<double> backlog;
    std::vector<std::uint32_t> flags;
    std::vector<std::uint32_t> batch;
    std::size_t ok_elements = 0;
    double wall_s = 0.0;
};

class SmallLoad {
  public:
    explicit SmallLoad(const Options& opts) : rng_(opts.seed * 0x51ED + 3)
    {
        for (const auto& entry : plr::testing::table1_corpus())
            cases_.push_back(make_case(entry.name, entry.sig, entry.domain));
        hot_ = cases_.size();
        // The generated pool: half integer, half stable float filters,
        // distinct and plannable.
        plr::Rng gen(opts.seed * 0x9E37 + 11);
        ps::PlanCache check(kPoolSignatures * 2);
        std::size_t made = 0;
        while (made < kPoolSignatures) {
            const bool integer = made % 2 == 0;
            const plr::Signature sig = integer
                                           ? plr::testing::random_int_signature(gen)
                                           : plr::testing::random_stable_filter(gen);
            SigCase c = make_case("pool", sig,
                                  integer ? pk::Domain::kInt : pk::Domain::kFloat);
            bool hit = false;
            try {
                (void)check.lookup(c.text, c.domain, &hit);
            } catch (const std::exception&) {
                continue;
            }
            if (hit)
                continue;
            cases_.push_back(std::move(c));
            ++made;
        }
        templates_ = make_templates(cases_, kSmallMax, 1, opts.seed);
    }

    const std::vector<SigCase>& cases() const { return cases_; }
    std::vector<SigCase> hot() const
    {
        return {cases_.begin(), cases_.begin() + static_cast<long>(hot_)};
    }

    /** Seeded Poisson schedule at @p rate for @p seconds; frames built. */
    Phase plan(double rate, double seconds)
    {
        Phase ph;
        double t = 0.0;
        for (;;) {
            t += -std::log(1.0 - rng_.uniform_double()) / rate;
            if (t >= seconds)
                break;
            Planned p;
            p.case_index = rng_.uniform_double() < 0.9
                               ? static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(hot_) - 1))
                               : hot_ + static_cast<std::size_t>(rng_.uniform_int(0, kPoolSignatures - 1));
            p.n = static_cast<std::size_t>(std::lround(std::exp(rng_.uniform_double(
                std::log(static_cast<double>(kSmallMin)),
                std::log(static_cast<double>(kSmallMax))))));
            const std::uint64_t id = ++next_id_;
            const std::uint64_t tenant = 1 + id % 1024;
            const Template& tpl = templates_[p.case_index];
            auto frame = encode(cases_[p.case_index],
                                std::span(tpl.input).first(p.n), tenant);
            stamp(frame, tenant, id);
            ph.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
            ph.planned.push_back(p);
            ph.frames.push_back(std::move(frame));
            ph.ids.push_back(id);
        }
        return ph;
    }

    /** Drive one phase over the connections; fills the results. */
    void run(Phase& ph, const std::vector<int>& fds)
    {
        const std::size_t total = ph.frames.size();
        ph.latency_us.assign(total, kFailedLatency);
        ph.lag_us.assign(total, 0.0);
        ph.flags.assign(total, 0);
        ph.batch.assign(total, 0);
        std::vector<std::deque<std::size_t>> fifo(fds.size());
        std::mutex fifo_mu;
        std::atomic<std::size_t> answered{0};
        std::atomic<bool> reader_failed{false};
        const std::int64_t start = now_ns() + 2'000'000;
        std::int64_t last_recv = start;

        std::jthread reader([&] {
            std::vector<pollfd> pfds;
            for (const int fd : fds)
                pfds.push_back({fd, POLLIN, 0});
            const std::int64_t give_up =
                start + ph.due_ns.back() + 10'000'000'000;
            while (answered.load() < total) {
                if (now_ns() > give_up || ::poll(pfds.data(), pfds.size(), 100) < 0)
                    break;
                for (std::size_t c = 0; c < pfds.size(); ++c) {
                    if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                        continue;
                    std::optional<std::vector<std::uint8_t>> reply;
                    try {
                        reply = ps::read_frame(fds[c]);
                    } catch (const ps::FrameError&) {
                    }
                    const std::int64_t now = now_ns();
                    if (!reply) {
                        reader_failed = true;
                        return;
                    }
                    std::size_t i = 0;
                    {
                        std::lock_guard<std::mutex> lock(fifo_mu);
                        if (fifo[c].empty()) {
                            // An answer nobody asked for.
                            reader_failed = true;
                            return;
                        }
                        i = fifo[c].front();
                        fifo[c].pop_front();
                    }
                    ScopedSpan span("client.check_response", ph.ids[i]);
                    const Planned& p = ph.planned[i];
                    const Answer a = check_response(
                        *reply, cases_[p.case_index].domain,
                        std::span(templates_[p.case_index].expected).first(p.n),
                        ph.ids[i]);
                    if (a.ok) {
                        ph.latency_us[i] =
                            static_cast<double>(now - (start + ph.due_ns[i])) * 1e-3;
                        ph.ok_elements += p.n;
                    }
                    ph.flags[i] = a.flags;
                    ph.batch[i] = a.batch;
                    last_recv = now;
                    ++answered;
                }
            }
        });

        std::size_t due_count = 0;
        std::int64_t next_sample = start;
        for (std::size_t i = 0; i < total && !reader_failed; ++i) {
            const std::int64_t due = start + ph.due_ns[i];
            // Spin: a sleeping sender wakes late whenever the server
            // keeps the cores busy, and that lag would be charged to
            // the server.
            while (now_ns() < due)
                __builtin_ia32_pause();
            const std::int64_t now = now_ns();
            ph.lag_us[i] = static_cast<double>(now - due) * 1e-3;
            // Due-but-unanswered backlog, sampled every millisecond.
            if (now >= next_sample) {
                while (due_count < total && start + ph.due_ns[due_count] <= now)
                    ++due_count;
                ph.backlog.push_back(static_cast<double>(due_count) -
                                     static_cast<double>(answered.load()));
                next_sample = now + 1'000'000;
            }
            const std::size_t c = i % fds.size();
            {
                std::lock_guard<std::mutex> lock(fifo_mu);
                fifo[c].push_back(i);
            }
            ScopedSpan span("transport.write_frame", ph.ids[i]);
            try {
                ps::write_frame(fds[c], ph.frames[i]);
            } catch (const ps::FrameError&) {
                reader_failed = true;
            }
            std::vector<std::uint8_t>().swap(ph.frames[i]);
        }
        reader.join();
        ph.wall_s = static_cast<double>(last_recv - start) * 1e-9;
    }

  private:
    plr::Rng rng_;
    std::vector<SigCase> cases_;
    std::size_t hot_ = 0;
    std::vector<Template> templates_;
    std::uint64_t next_id_ = 0;
};

/** Index of the case each request used, for the plan-cache replay. */
std::vector<std::size_t>
lookup_sequence(const Phase& ph)
{
    std::vector<std::size_t> seq;
    for (const Planned& p : ph.planned)
        seq.push_back(p.case_index);
    return seq;
}

}  // namespace

Outcome
run_serve_small(const Options& opts)
{
    Outcome o;
    SmallLoad load(opts);
    const Paths paths = server_paths(opts);
    // The ceiling first, on a quiet machine: the same 256 KiB memcpy
    // as serve_large (a 4 KiB copy is too short to time steadily).
    const MemcpyCeiling ceiling = measure_memcpy(kLargeN * 4, 31);

    // Whether a launch's threads land well on the cores shifts every
    // latency figure of that launch, so the run repeats launch, phase
    // (a) and ladder, and reports medians over launches.
    struct Launch {
        double setup_s = 0.0;
        double p50_us = 0.0;
        double p99_us = 0.0;
        double p99_effective = 0.0;
        double throughput = 0.0;
        double memcpy_fraction = 0.0;
        double max_rps = 0.0;
        double rss_mib = 0.0;
    };
    std::vector<Launch> launches;
    std::string ladders = "[";
    const double phase_s = 0.1 * opts.seconds;
    const double rung_s = 0.025 * opts.seconds;
    double mean_n = 0.0;
    std::size_t phase_requests = 0;
    Phase a;  // the last launch's phase (a), kept for the layer probes
    double trace_overhead = 1.0;
    double reject_rtt = 0.0;
    for (std::size_t l = 0; l < kLaunches; ++l) {
        Launch launch;
        {
            // Each launch's own ceiling (see serve_large).
            const double copy_s = memcpy_reused_s(kLargeN * 4, 31);
            const std::int64_t t0 = now_ns();
            ServerProcess server(opts.server, paths.socket, "", paths.log);
            const std::vector<int> fds = open_connections(server, kConnections);
            first_answers(fds[0], load.hot(), opts.seed + l, o.attempted, o.failed);
            launch.setup_s = since_s(t0);

            // Phase (a): the frozen rate R.
            a = load.plan(kRate, phase_s);
            load.run(a, fds);
            const std::size_t fa = failures(a.latency_us);
            o.attempted += a.latency_us.size();
            o.failed += fa;
            const auto ok = successes(a.latency_us);
            launch.p50_us = tail_percentile(ok, fa, 50).value;
            const Percentile p99 = blocked_percentile(a.latency_us, 99);
            launch.p99_us = p99.value;
            launch.p99_effective = p99.effective;
            launch.throughput = static_cast<double>(a.ok_elements) / a.wall_s;
            launch.memcpy_fraction =
                launch.throughput * 4.0 * copy_s / (kLargeN * 4.0);
            for (const Planned& p : a.planned)
                mean_n += static_cast<double>(p.n);
            phase_requests += a.planned.size();

            // Phase (b): the ladder R * 1.05^j until a rung misses.
            std::vector<Rung> rungs;
            std::string ladder = "[";
            for (std::size_t j = 0; j < kLadderRungs; ++j) {
                const double rate =
                    kRate * std::pow(kLadderStep, static_cast<double>(j));
                Phase ph = load.plan(rate, rung_s);
                load.run(ph, fds);
                o.attempted += ph.latency_us.size();
                o.failed += failures(ph.latency_us);
                const Rung r{rate, blocked_percentile(ph.latency_us, 99).value,
                             backlog_growing(ph.backlog)};
                rungs.push_back(r);
                ladder += (j ? ", " : "") + Json()
                                                .num("rate", r.rate)
                                                .num("p99_us", r.p99_us)
                                                .num("backlog_grows", r.backlog_grows)
                                                .render();
                if (r.p99_us > kSloUs || r.backlog_grows)
                    break;
            }
            launch.max_rps = max_rate_at_slo(rungs, kSloUs);
            ladders += (l ? ", " : "") + ladder + "]";

            if (opts.trace && l + 1 == kLaunches) {
                // Spans on for a second phase (a) on the same launch:
                // the ratio of the two p50s is what tracing costs.
                Phase traced = load.plan(kRate, phase_s);
                Trace::instance().enable(true);
                load.run(traced, fds);
                Trace::instance().enable(false);
                o.attempted += traced.latency_us.size();
                o.failed += failures(traced.latency_us);
                trace_overhead = median(successes(traced.latency_us)) /
                                 median(successes(a.latency_us));
                reject_rtt = reject_rtt_us(fds[0]);
            }
            close_all(fds);
            launch.rss_mib = server.stop();
        }
        launches.push_back(launch);
    }
    mean_n /= static_cast<double>(std::max<std::size_t>(phase_requests, 1));


    auto& e = o.end_to_end;
    e.set("setup_s", median_over(launches, &Launch::setup_s), "s");
    e.set("throughput_elems_per_s", median_over(launches, &Launch::throughput), "elem/s");
    e.set("memcpy_fraction", median_over(launches, &Launch::memcpy_fraction), "ratio");
    e.set("latency_p50_us", median_over(launches, &Launch::p50_us), "us");
    e.set("latency_p99_us", median_over(launches, &Launch::p99_us), "us");
    e.set("peak_rss_mib", median_over(launches, &Launch::rss_mib), "MiB");

    o.report.num("rate_R", kRate)
        .num("launches", kLaunches)
        .num("phase_a_requests", static_cast<double>(phase_requests))
        .num("mean_payload_elems", mean_n)
        .num("latency_p99_effective_pct", median_over(launches, &Launch::p99_effective))
        .num("lag_p99_us", tail_percentile(a.lag_us, 0, 99).value)
        .num("max_rps_at_slo", median_over(launches, &Launch::max_rps))
        .num("slo_p99_us", kSloUs)
        .raw("ladders", ladders + "]")
        .num("signatures", static_cast<double>(load.cases().size()))
        .raw("environment", environment_block({ceiling}));

    if (opts.trace) {
        LayerInputs in;
        in.cases = load.cases();
        in.payload_n = static_cast<std::size_t>(mean_n);
        in.lookups = lookup_sequence(a);
        for (std::size_t i = 0; i < 64; ++i) {
            const std::size_t c = i % in.cases.size();
            const auto input = make_input(in.cases[c].domain, in.payload_n, i);
            in.frames.push_back(encode(in.cases[c], input, 1));
            stamp(in.frames.back(), 1, i + 1);
        }
        flag_shares(a.flags, a.batch, in);
        in.socket_p50_us = launches.back().p50_us;
        in.reject_rtt_us = reject_rtt;
        in.lag_p99_us = tail_percentile(a.lag_us, 0, 99).value;
        in.trace_overhead = trace_overhead;
        layer_probes(in, opts, o.layers);
    }
    return o;
}

// ---------------------------------------------------------------------
// serve_large.

Outcome
run_serve_large(const Options& opts)
{
    const std::vector<SigCase> cases = {table1_case("prefix-sum"),
                                        table1_case("3-tuple-prefix-sum"),
                                        table1_case("2-stage-lowpass")};
    constexpr std::size_t kPerCase = 4;
    const auto templates = make_templates(cases, kLargeN, kPerCase, opts.seed);
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t t = 0; t < templates.size(); ++t)
        frames.push_back(encode(cases[t / kPerCase], templates[t].input, 1));

    // The ceiling first, on a quiet machine.
    const MemcpyCeiling ceiling = measure_memcpy(kLargeN * 4, 31);
    Outcome o;
    const Paths paths = server_paths(opts);

    struct Seen {
        std::vector<std::int64_t> sent_ns;
        std::vector<double> latency_us;
        std::vector<double> gap_us;
        std::vector<std::uint32_t> flags;
        std::vector<std::uint32_t> batch;
        std::size_t ok_elements = 0;
        std::vector<std::size_t> lookups;
        std::size_t resent = 0;
        std::size_t replayed = 0;
    };
    // Closed loop on every connection until @p seconds have passed or
    // each connection has sent @p requests (0: no limit). The main
    // thread drives the last connection, so the load process runs 4
    // threads; between its requests it samples the steal counter.
    auto drive = [&](const std::vector<int>& fds, double seconds, bool traced,
                     std::vector<Seen>& seen, std::vector<StealSample>& steal,
                     std::uint64_t requests) {
        Trace::instance().enable(traced);
        seen.assign(fds.size(), Seen{});
        steal.clear();
        const std::int64_t start = now_ns();
        steal.push_back({start, steal_ticks()});
        auto worker = [&](std::size_t c) {
            Seen& s = seen[c];
            plr::Rng pick(opts.seed * 131 + c + (traced ? 7 : 0));
            std::vector<std::uint8_t> frame;
            std::int64_t last = 0;
            std::uint64_t seq = 0;
            const bool sampler = c + 1 == fds.size();
            while (since_s(start) < seconds &&
                   (requests == 0 || seq < requests)) {
                if (sampler && now_ns() - steal.back().t_ns >= kStealEveryNs)
                    steal.push_back({now_ns(), steal_ticks()});
                const auto t = static_cast<std::size_t>(
                    pick.uniform_int(0, static_cast<std::int64_t>(frames.size()) - 1));
                const std::uint64_t id = (std::uint64_t{c} << 40) + ++seq;
                frame = frames[t];
                stamp(frame, c + 1, id);
                ScopedSpan request("client.request", id);
                const std::int64_t t0 = now_ns();
                if (last != 0)
                    s.gap_us.push_back(static_cast<double>(t0 - last) * 1e-3);
                std::optional<std::vector<std::uint8_t>> reply;
                try {
                    {
                        ScopedSpan span("transport.write_frame", id);
                        ps::write_frame(fds[c], frame);
                    }
                    ScopedSpan span("transport.read_frame", id);
                    reply = ps::read_frame(fds[c]);
                } catch (const ps::FrameError&) {
                }
                const std::int64_t t1 = now_ns();
                last = t1;
                const Template& tpl = templates[t];
                ScopedSpan check("client.check_response", id);
                std::vector<std::uint32_t> payload;
                const Answer a =
                    reply ? check_response(*reply, cases[t / kPerCase].domain,
                                           tpl.expected, id, &payload)
                          : Answer{};
                s.sent_ns.push_back(t0);
                s.latency_us.push_back(a.ok ? static_cast<double>(t1 - t0) * 1e-3
                                            : kFailedLatency);
                s.flags.push_back(a.flags);
                s.batch.push_back(a.batch);
                s.lookups.push_back(t / kPerCase);
                if (a.ok)
                    s.ok_elements += kLargeN;
                if (!reply)
                    break;
                if (a.ok && pick.uniform_double() < kResendShare) {
                    // The same request again: the replay cache must
                    // answer it, flagged replayed and bit-identical.
                    ++s.resent;
                    std::optional<std::vector<std::uint8_t>> again;
                    try {
                        ps::write_frame(fds[c], frame);
                        again = ps::read_frame(fds[c]);
                    } catch (const ps::FrameError&) {
                    }
                    std::vector<std::uint32_t> replayed;
                    const Answer r =
                        again ? check_response(*again, cases[t / kPerCase].domain,
                                               tpl.expected, id, &replayed)
                              : Answer{};
                    if (r.ok && (r.flags & ps::kResponseFlagReplayed) &&
                        replayed == payload)
                        ++s.replayed;
                }
            }
        };
        {
            std::vector<std::jthread> threads;
            for (std::size_t c = 0; c + 1 < fds.size(); ++c)
                threads.emplace_back(worker, c);
            worker(fds.size() - 1);
        }
        steal.push_back({now_ns(), steal_ticks()});
        Trace::instance().enable(false);
        return since_s(start);
    };

    // Median over launches, as in serve_small: a launch's placement on
    // the cores moves all of its figures together.
    struct Launch {
        double setup_s = 0.0;
        double throughput = 0.0;
        double memcpy_fraction = 0.0;
        double requests_per_s = 0.0;
        double rss_mib = 0.0;
    };
    std::vector<Launch> launches;
    std::vector<LatencyBlock> blocks;
    std::vector<StealSample> steal;
    std::vector<double> gaps;
    std::vector<std::uint32_t> flags;
    std::vector<std::uint32_t> batch;
    std::vector<std::size_t> lookups;
    std::size_t resent = 0;
    std::size_t replayed = 0;
    double trace_overhead = 1.0;
    double reject_rtt = 0.0;
    const double window = opts.seconds / kLaunches;
    for (std::size_t l = 0; l < kLaunches; ++l) {
        Launch launch;
        // Each launch's own ceiling, so that the ratio cancels what
        // the host's clock does between launches.
        const double copy_s = memcpy_reused_s(kLargeN * 4, 31);
        const std::int64_t t0 = now_ns();
        ServerProcess server(opts.server, paths.socket, "", paths.log);
        const std::vector<int> fds = open_connections(server, kConnections);
        first_answers(fds[0], cases, opts.seed + l, o.attempted, o.failed);
        launch.setup_s = since_s(t0);

        std::vector<Seen> seen;
        drive(fds, kWarmupCapS, false, seen, steal, kWarmupRequests);
        for (const Seen& s : seen) {
            o.attempted += s.latency_us.size() + s.resent;
            o.failed += failures(s.latency_us) + s.resent - s.replayed;
        }
        const double wall = drive(fds, window, false, seen, steal, 0);
        std::vector<std::pair<std::int64_t, double>> timeline;
        std::size_t ok_elements = 0;
        for (const Seen& s : seen) {
            for (std::size_t i = 0; i < s.latency_us.size(); ++i)
                timeline.push_back({s.sent_ns[i], s.latency_us[i]});
            gaps.insert(gaps.end(), s.gap_us.begin(), s.gap_us.end());
            flags.insert(flags.end(), s.flags.begin(), s.flags.end());
            batch.insert(batch.end(), s.batch.begin(), s.batch.end());
            lookups.insert(lookups.end(), s.lookups.begin(), s.lookups.end());
            ok_elements += s.ok_elements;
            o.attempted += s.resent;
            o.failed += s.resent - s.replayed;
            resent += s.resent;
            replayed += s.replayed;
        }
        std::sort(timeline.begin(), timeline.end());
        std::vector<std::int64_t> sent_ns;
        std::vector<double> latency;
        for (const auto& [sent, us] : timeline) {
            sent_ns.push_back(sent);
            latency.push_back(us);
        }
        const std::size_t f = failures(latency);
        o.attempted += latency.size();
        o.failed += f;
        for (const LatencyBlock& b : latency_blocks(sent_ns, latency, steal))
            blocks.push_back(b);
        launch.throughput = static_cast<double>(ok_elements) / wall;
        launch.memcpy_fraction = launch.throughput * 4.0 * copy_s / (kLargeN * 4.0);
        launch.requests_per_s = static_cast<double>(latency.size() - f) / wall;

        if (opts.trace && l + 1 == kLaunches) {
            std::vector<Seen> traced;
            const double traced_wall =
                drive(fds, window, true, traced, steal, 0);
            std::size_t traced_elements = 0;
            for (const Seen& s : traced) {
                traced_elements += s.ok_elements;
                o.attempted += s.latency_us.size() + s.resent;
                o.failed += failures(s.latency_us) + s.resent - s.replayed;
            }
            trace_overhead = launch.throughput /
                             (static_cast<double>(traced_elements) / traced_wall);
            reject_rtt = reject_rtt_us(fds[0]);
        }
        close_all(fds);
        launch.rss_mib = server.stop();
        launches.push_back(launch);
    }

    const QuietLatency quiet = quiet_latency(blocks);
    auto& e = o.end_to_end;
    e.set("setup_s", median_over(launches, &Launch::setup_s), "s");
    e.set("throughput_elems_per_s", median_over(launches, &Launch::throughput), "elem/s");
    e.set("memcpy_fraction", median_over(launches, &Launch::memcpy_fraction), "ratio");
    e.set("latency_p50_us", quiet.p50_us, "us");
    e.set("latency_p99_us", quiet.p99_us, "us");
    e.set("peak_rss_mib", median_over(launches, &Launch::rss_mib), "MiB");
    o.report.num("payload_elems", kLargeN)
        .num("frame_bytes", static_cast<double>(frames.front().size()))
        .num("launches", kLaunches)
        .num("warmup_requests_per_connection",
             static_cast<double>(kWarmupRequests))
        .num("requests_per_s", median_over(launches, &Launch::requests_per_s))
        .num("resent", static_cast<double>(resent))
        .num("replayed", static_cast<double>(replayed))
        .num("latency_blocks", static_cast<double>(quiet.blocks))
        .num("latency_blocks_kept", static_cast<double>(quiet.kept))
        .num("steal_ticks_per_s_median_block", quiet.median_steal_per_s)
        .num("latency_p99_effective_pct", quiet.p99_effective)
        .raw("environment", environment_block({ceiling}));

    if (opts.trace) {
        LayerInputs in;
        in.cases = cases;
        in.payload_n = kLargeN;
        in.lookups = lookups;
        for (std::size_t t = 0; t < frames.size(); ++t) {
            in.frames.push_back(frames[t]);
            stamp(in.frames.back(), 1, t + 1);
        }
        flag_shares(flags, batch, in);
        in.replayed_share =
            resent == 0 ? 0.0 : static_cast<double>(replayed) / resent;
        in.socket_p50_us = quiet.p50_us;
        in.reject_rtt_us = reject_rtt;
        in.lag_p99_us = tail_percentile(gaps, 0, 99).value;
        in.trace_overhead = trace_overhead;
        layer_probes(in, opts, o.layers);
    }
    return o;
}

}  // namespace perfbench
