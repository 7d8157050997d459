/**
 * @file
 * The `stream_durable` workload: the durable write path. 64 sessions,
 * each a distinct tenant (half prefix-sum int32, half 2-stage lowpass
 * float), send 1024-element chunks to a plr_server running with
 * --session-store; 4 connections each loop over their 16 sessions in
 * a closed loop. 5% of chunks are resent with the same request id and
 * must come back flagged replayed and bit-identical. Every answer is
 * checked against the serial oracle carried over the whole stitched
 * stream of its session. Set-up is the restart-and-resume time: kill
 * the server, relaunch it on the populated store, and wait for the
 * first correct resumed answer of all 64 sessions.
 */

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.h"
#include "kernels/serial.h"
#include "kernels/stream_state.h"
#include "server/transport.h"
#include "server/wire.h"
#include "stats.h"
#include "trace.h"
#include "util/ring.h"
#include "util/rng.h"

namespace perfbench {

namespace pk = plr::kernels;
namespace ps = plr::server;

namespace {

constexpr std::size_t kSessions = 64;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kChunkN = 1024;
/** Distinct input chunks per session; the stream cycles through them. */
constexpr std::size_t kRing = 16;
constexpr double kResendShare = 0.05;
/** Restarts per run (medians over them). */
constexpr std::size_t kLaunches = 5;

/** Serial oracle of the next chunk, seeded with the stream's tails. */
template <typename Ring>
std::vector<std::uint32_t>
oracle_next(const plr::Signature& sig, std::vector<std::uint32_t>& y_tail,
            std::vector<std::uint32_t>& x_tail,
            std::span<const std::uint32_t> input)
{
    using V = typename Ring::value_type;
    auto values = [](std::span<const std::uint32_t> bits) {
        std::vector<V> v(bits.size());
        for (std::size_t i = 0; i < bits.size(); ++i)
            v[i] = pk::bits_value<V>(bits[i]);
        return v;
    };
    const auto x = values(input);
    const auto yt = values(y_tail);
    const auto xt = values(x_tail);
    std::vector<V> y(x.size());
    pk::serial_recurrence_seeded_into<Ring>(sig, yt, xt, x, y);
    std::vector<std::uint32_t> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        out[i] = pk::value_bits(y[i]);
    // Tails are newest first.
    y_tail.assign(sig.order(), 0);
    for (std::size_t d = 0; d < sig.order(); ++d)
        y_tail[d] = out[out.size() - 1 - d];
    x_tail.assign(sig.fir_taps(), 0);
    for (std::size_t d = 0; d < sig.fir_taps(); ++d)
        x_tail[d] = input[input.size() - 1 - d];
    return out;
}

struct Session {
    std::size_t case_index = 0;
    std::uint64_t tenant = 0;
    std::vector<std::vector<std::uint32_t>> inputs;  // kRing chunks
    std::vector<std::vector<std::uint8_t>> frames;   // sealed, per chunk
    std::uint64_t next_id = 0;
    std::uint64_t chunks = 0;
    std::vector<std::uint32_t> y_tail;
    std::vector<std::uint32_t> x_tail;
};

/** What one connection saw. */
struct Tally {
    std::vector<std::int64_t> sent_ns;
    std::vector<double> latency_us;
    std::vector<double> gap_us;
    std::vector<std::uint32_t> flags;
    std::vector<std::uint32_t> batch;
    std::vector<std::size_t> lookups;
    std::size_t ok_elements = 0;
    std::size_t resent = 0;
    std::size_t replayed = 0;
    /** The connection died; the loop stops (its request counts failed). */
    bool lost = false;
};

class StreamLoad {
  public:
    explicit StreamLoad(const Options& opts) : opts_(opts)
    {
        cases_ = {table1_case("prefix-sum"), table1_case("2-stage-lowpass")};
        for (std::size_t s = 0; s < kSessions; ++s) {
            Session session;
            session.case_index = s % 2;
            session.tenant = s + 1;
            const SigCase& c = cases_[session.case_index];
            for (std::size_t r = 0; r < kRing; ++r) {
                session.inputs.push_back(
                    make_input(c.domain, kChunkN, opts.seed * 104729 + s * kRing + r));
                session.frames.push_back(
                    encode(c, session.inputs.back(), session.tenant, 1));
            }
            sessions_.push_back(std::move(session));
        }
    }

    const std::vector<SigCase>& cases() const { return cases_; }

    /**
     * Closed loop on connection @p conn over its 16 sessions until
     * @p seconds pass or each session sent @p max_chunks more chunks.
     */
    void drive(std::size_t conn, int fd, double seconds, std::uint64_t max_chunks,
               Tally& t)
    {
        plr::Rng resend(opts_.seed * 7 + conn * 1000 + sessions_[conn].chunks);
        const std::int64_t start = now_ns();
        std::int64_t last = 0;
        for (std::uint64_t round = 0; round < max_chunks; ++round) {
            for (std::size_t s = conn; s < kSessions; s += kConnections) {
                Session& session = sessions_[s];
                const SigCase& c = cases_[session.case_index];
                const std::size_t slot = session.chunks % kRing;
                const std::uint64_t id = ++session.next_id;
                auto frame = session.frames[slot];
                stamp(frame, session.tenant, id);
                const auto expected =
                    c.domain == pk::Domain::kInt
                        ? oracle_next<plr::IntRing>(c.sig, session.y_tail,
                                                    session.x_tail, session.inputs[slot])
                        : oracle_next<plr::FloatRing>(c.sig, session.y_tail,
                                                      session.x_tail, session.inputs[slot]);
                std::vector<std::uint32_t> original;
                const Answer a = exchange(fd, frame, c, expected, id, t, last, &original);
                ++session.chunks;
                if (t.lost)
                    return;
                if (a.ok)
                    t.ok_elements += kChunkN;
                if (resend.uniform_double() < kResendShare) {
                    // Same request id: must replay the committed answer.
                    ++t.resent;
                    std::vector<std::uint32_t> again;
                    const Answer r = exchange(fd, frame, c, expected, id, t, last, &again);
                    if (t.lost)
                        return;
                    if (r.ok && (r.flags & ps::kResponseFlagReplayed) &&
                        again == original)
                        ++t.replayed;
                    else if (r.ok)
                        t.latency_us.back() = kFailedLatency;
                }
            }
            if (since_s(start) >= seconds)
                break;
        }
    }

  private:
    Answer exchange(int fd, const std::vector<std::uint8_t>& frame,
                    const SigCase& c, const std::vector<std::uint32_t>& expected,
                    std::uint64_t id, Tally& t, std::int64_t& last,
                    std::vector<std::uint32_t>* payload)
    {
        ScopedSpan request("client.request", id);
        const std::int64_t t0 = now_ns();
        if (last != 0)
            t.gap_us.push_back(static_cast<double>(t0 - last) * 1e-3);
        std::optional<std::vector<std::uint8_t>> reply;
        try {
            {
                ScopedSpan span("transport.write_frame", id);
                ps::write_frame(fd, frame);
            }
            ScopedSpan span("transport.read_frame", id);
            reply = ps::read_frame(fd);
        } catch (const ps::FrameError&) {
        }
        const std::int64_t t1 = now_ns();
        last = t1;
        ScopedSpan check("client.check_response", id);
        const Answer a = reply ? check_response(*reply, c.domain, expected, id, payload)
                               : Answer{};
        t.sent_ns.push_back(t0);
        t.latency_us.push_back(a.ok ? static_cast<double>(t1 - t0) * 1e-3
                                    : kFailedLatency);
        t.flags.push_back(a.flags);
        t.batch.push_back(a.batch);
        t.lookups.push_back(c.domain == pk::Domain::kInt ? 0 : 1);
        t.lost = !reply;
        return a;
    }

    const Options& opts_;
    std::vector<SigCase> cases_;
    std::vector<Session> sessions_;
};

/** Every connection drives its sessions in parallel (main + 3). */
std::vector<Tally>
drive_all(StreamLoad& load, const std::vector<int>& fds, double seconds,
          std::uint64_t max_chunks)
{
    std::vector<Tally> tallies(fds.size());
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 0; c + 1 < fds.size(); ++c)
            threads.emplace_back([&, c] {
                load.drive(c, fds[c], seconds, max_chunks, tallies[c]);
            });
        const std::size_t last = fds.size() - 1;
        load.drive(last, fds[last], seconds, max_chunks, tallies[last]);
    }
    return tallies;
}

void
count(const std::vector<Tally>& tallies, Outcome& o)
{
    for (const Tally& t : tallies) {
        o.attempted += t.latency_us.size();
        o.failed += failures(t.latency_us);
    }
}

}  // namespace

Outcome
run_stream_durable(const Options& opts)
{
    // The ceiling first, on a quiet machine: the same 256 KiB memcpy
    // as the serving workloads (a 4 KiB copy is too short to time
    // steadily).
    constexpr std::size_t kCeilingBytes = 256 * 1024;
    const MemcpyCeiling ceiling = measure_memcpy(kCeilingBytes, 31);
    Outcome o;
    StreamLoad load(opts);
    const Paths paths = server_paths(opts);
    const std::string store = opts.work_dir + "/store-" + std::to_string(getpid());
    std::filesystem::remove_all(store);

    // Populate the store: two chunks per session.
    std::optional<ServerProcess> server;
    server.emplace(opts.server, paths.socket, store, paths.log);
    std::vector<int> fds = open_connections(*server, kConnections);
    count(drive_all(load, fds, 1e9, 2), o);
    close_all(fds);

    // kLaunches times: kill -9, relaunch on the populated store, time
    // until every session answered its first resumed chunk correctly
    // (set-up), then a measured window. Medians over the launches.
    struct Launch {
        double setup_s = 0.0;
        double throughput = 0.0;
        double memcpy_fraction = 0.0;
        double p50_us = 0.0;
        double p99_us = 0.0;
        double p99_effective = 0.0;
        double requests_per_s = 0.0;
        double rss_mib = 0.0;
    };
    std::vector<Launch> launches;
    Tally all;
    double trace_overhead = 1.0;
    double reject_rtt = 0.0;
    const double window = opts.seconds / kLaunches;
    for (std::size_t l = 0; l < kLaunches; ++l) {
        Launch launch;
        server.reset();
        // Each launch's own ceiling (see serve_large).
        const double copy_s = memcpy_reused_s(kCeilingBytes, 31);
        const std::int64_t t0 = now_ns();
        server.emplace(opts.server, paths.socket, store, paths.log);
        fds = open_connections(*server, kConnections);
        count(drive_all(load, fds, 1e9, 1), o);
        launch.setup_s = since_s(t0);

        const std::int64_t t1 = now_ns();
        const auto tallies = drive_all(load, fds, window, UINT64_MAX);
        const double wall = since_s(t1);
        count(tallies, o);
        std::vector<std::pair<std::int64_t, double>> timeline;
        std::size_t ok_elements = 0;
        for (const Tally& t : tallies) {
            for (std::size_t i = 0; i < t.latency_us.size(); ++i)
                timeline.push_back({t.sent_ns[i], t.latency_us[i]});
            all.gap_us.insert(all.gap_us.end(), t.gap_us.begin(), t.gap_us.end());
            all.flags.insert(all.flags.end(), t.flags.begin(), t.flags.end());
            all.batch.insert(all.batch.end(), t.batch.begin(), t.batch.end());
            all.lookups.insert(all.lookups.end(), t.lookups.begin(), t.lookups.end());
            all.resent += t.resent;
            all.replayed += t.replayed;
            ok_elements += t.ok_elements;
        }
        std::sort(timeline.begin(), timeline.end());
        std::vector<double> latency;
        for (const auto& [sent, us] : timeline)
            latency.push_back(us);
        const std::size_t f = failures(latency);
        const auto ok = successes(latency);
        const Percentile p99 = blocked_percentile(latency, 99);
        launch.throughput = static_cast<double>(ok_elements) / wall;
        launch.memcpy_fraction =
            launch.throughput * 4.0 * copy_s / static_cast<double>(kCeilingBytes);
        launch.p50_us = tail_percentile(ok, f, 50).value;
        launch.p99_us = p99.value;
        launch.p99_effective = p99.effective;
        launch.requests_per_s = static_cast<double>(ok.size()) / wall;

        if (opts.trace && l + 1 == kLaunches) {
            Trace::instance().enable(true);
            const std::int64_t t2 = now_ns();
            const auto traced = drive_all(load, fds, window, UINT64_MAX);
            const double traced_wall = since_s(t2);
            Trace::instance().enable(false);
            count(traced, o);
            std::size_t traced_elements = 0;
            for (const Tally& t : traced)
                traced_elements += t.ok_elements;
            trace_overhead = launch.throughput /
                             (static_cast<double>(traced_elements) / traced_wall);
            reject_rtt = reject_rtt_us(fds[0]);
        }
        close_all(fds);
        launch.rss_mib = server->stop();
        launches.push_back(launch);
    }
    server.reset();
    std::filesystem::remove_all(store);

    auto& e = o.end_to_end;
    e.set("setup_s", median_over(launches, &Launch::setup_s), "s");
    e.set("throughput_elems_per_s", median_over(launches, &Launch::throughput), "elem/s");
    e.set("memcpy_fraction", median_over(launches, &Launch::memcpy_fraction), "ratio");
    e.set("latency_p50_us", median_over(launches, &Launch::p50_us), "us");
    e.set("latency_p99_us", median_over(launches, &Launch::p99_us), "us");
    e.set("peak_rss_mib", median_over(launches, &Launch::rss_mib), "MiB");
    o.report.num("sessions", kSessions)
        .num("chunk_elems", kChunkN)
        .num("launches", kLaunches)
        .num("requests_per_s", median_over(launches, &Launch::requests_per_s))
        .num("resent", static_cast<double>(all.resent))
        .num("replayed", static_cast<double>(all.replayed))
        .num("latency_p99_effective_pct", median_over(launches, &Launch::p99_effective))
        .raw("environment", environment_block({ceiling}));

    if (opts.trace) {
        LayerInputs in;
        in.cases = load.cases();
        in.payload_n = kChunkN;
        in.lookups = all.lookups;
        // Stateless frames of the same shape: session frames would
        // open sessions in the in-process server under probe ids.
        for (std::size_t i = 0; i < 32; ++i) {
            const SigCase& c = in.cases[i % 2];
            in.frames.push_back(encode(c, make_input(c.domain, kChunkN, i), 1));
            stamp(in.frames.back(), 1, i + 1);
        }
        flag_shares(all.flags, all.batch, in);
        in.socket_p50_us = launches.back().p50_us;
        in.reject_rtt_us = reject_rtt;
        in.replayed_share = all.resent == 0
                                ? 0.0
                                : static_cast<double>(all.replayed) / all.resent;
        in.lag_p99_us = tail_percentile(all.gap_us, 0, 99).value;
        in.trace_overhead = trace_overhead;
        layer_probes(in, opts, o.layers);
    }
    return o;
}

}  // namespace perfbench
