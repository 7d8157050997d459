/**
 * @file
 * Per-layer probes for the traced run. Each probe times calls into one
 * module's public functions from outside, on data shaped like the
 * workload's, inside spans; the per-layer metrics are medians over
 * those spans. Load-side figures (plan-cache hits, batch sizes, replay
 * flags, socket latency) come from the workload itself.
 */

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/static/analyzer.h"
#include "bench.h"
#include "core/plan.h"
#include "kernels/checkpoint.h"
#include "kernels/runner.h"
#include "kernels/serial.h"
#include "kernels/stream.h"
#include "kernels/stream_state.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "server/session_store.h"
#include "server/wire.h"
#include "spec_loop.h"
#include "stats.h"
#include "trace.h"
#include "util/ring.h"

namespace perfbench {

namespace pk = plr::kernels;
namespace ps = plr::server;
namespace sa = plr::static_analysis;

namespace {

/** Probes that run per signature use at most this many cases. */
constexpr std::size_t kProbeCases = 4;
/** Chunk length of the stream and session-store probes. */
constexpr std::size_t kChunk = 1024;
/** Sessions in the session-store probe (the stream_durable count). */
constexpr std::size_t kSessions = 64;

double
span_median(const char* name)
{
    return median(Trace::instance().durations(name));
}

/** Time @p fn as one span called @p name; returns nanoseconds. */
template <typename Fn>
std::int64_t
timed(const char* name, Fn&& fn)
{
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    Trace::instance().record(name, t0, t1);
    return t1 - t0;
}

sa::ValueDomain
value_domain(pk::Domain d)
{
    return d == pk::Domain::kInt ? sa::ValueDomain::kInt32
                                 : sa::ValueDomain::kFloat32;
}

void
core_probe(const std::vector<SigCase>& cases, std::size_t n)
{
    const std::size_t reps = cases.size() > 16 ? 3 : 20;
    for (const SigCase& c : cases)
        for (std::size_t r = 0; r < reps; ++r) {
            std::optional<plr::Signature> sig;
            timed("core.parse", [&] { sig.emplace(plr::Signature::parse(c.text)); });
            timed("core.plan", [&] { (void)plr::make_plan(*sig, n); });
            timed("analysis.analyze",
                  [&] { (void)sa::analyze(*sig, value_domain(c.domain)); });
        }
}

/** Replays the workload's lookup sequence; returns the hit ratio. */
double
plan_cache_probe(const std::vector<SigCase>& cases,
                 const std::vector<std::size_t>& lookups)
{
    ps::PlanCache cache(ps::ServerConfig{}.plan_cache_capacity);
    std::size_t hits = 0;
    for (const std::size_t i : lookups) {
        bool hit = false;
        const std::int64_t t0 = now_ns();
        (void)cache.lookup(cases[i].text, cases[i].domain, &hit);
        const std::int64_t t1 = now_ns();
        Trace::instance().record(
            hit ? "plan_cache.lookup_hit" : "plan_cache.lookup_miss", t0, t1);
        hits += hit;
    }
    return lookups.empty() ? 0.0
                           : static_cast<double>(hits) / lookups.size();
}

template <typename Ring>
void
kernel_probe_typed(const SigCase& c, std::span<const std::uint32_t> bits)
{
    using V = typename Ring::value_type;
    std::vector<V> in(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        in[i] = pk::bits_value<V>(bits[i]);
    std::vector<V> out(in.size());
    const std::size_t reps = std::max<std::size_t>(5, (std::size_t{1} << 22) / std::max<std::size_t>(in.size(), 1));
    for (std::size_t r = 0; r < std::min<std::size_t>(reps, 200); ++r) {
        timed("kernels.run_recurrence", [&] {
            (void)pk::run_recurrence(c.sig, std::span<const V>(in),
                                     pk::Backend::kCpu);
        });
        if (spec_loop_covers(c.sig))
            timed("kernels.spec_loop",
                  [&] { spec_loop<V>(c.sig, std::span<const V>(in), std::span<V>(out)); });
        timed("kernels.oracle", [&] {
            (void)pk::serial_recurrence<Ring>(c.sig, std::span<const V>(in));
        });
    }
    const std::size_t bytes = in.size() * sizeof(V);
    const MemcpyCeiling m = measure_memcpy(bytes, 9);
    const std::int64_t t0 = now_ns();
    Trace::instance().record("kernels.memcpy_fresh", t0,
                             t0 + static_cast<std::int64_t>(m.fresh_s * 1e9));
    Trace::instance().record("kernels.memcpy_reused", t0,
                             t0 + static_cast<std::int64_t>(m.reused_s * 1e9));
}

template <typename Ring>
std::vector<std::uint8_t>
stream_probe_typed(const SigCase& c, std::uint64_t seed)
{
    using V = typename Ring::value_type;
    pk::StreamSession<Ring> session(c.sig, nullptr, pk::RunOptions{});
    const auto bits = make_input(c.domain, kChunk, seed);
    std::vector<V> chunk(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i)
        chunk[i] = pk::bits_value<V>(bits[i]);
    std::vector<std::uint8_t> sealed;
    for (int r = 0; r < 64; ++r) {
        timed("kernels.stream_feed",
              [&] { (void)session.feed(std::span<const V>(chunk)); });
        timed("kernels.checkpoint_seal",
              [&] { sealed = pk::serialize_checkpoint(session.checkpoint()); });
        timed("kernels.checkpoint_parse",
              [&] { (void)pk::parse_checkpoint(sealed); });
    }
    return sealed;
}

/**
 * SessionStore save/list/load on records shaped like stream_durable's
 * (a sealed checkpoint plus a 1024-element sealed response), and the
 * resume of all 64 sessions from disk.
 */
double
session_store_probe(const SigCase& c, const std::vector<std::uint8_t>& ckpt,
                    const Options& opts)
{
    const std::string dir = opts.work_dir + "/probe-store-" +
                            std::to_string(getpid());
    std::filesystem::remove_all(dir);
    ps::SessionStore store(dir);
    ps::ResponseFrame response;
    response.payload = make_input(c.domain, kChunk, 7);
    ps::SessionRecord rec;
    rec.checkpoint = ckpt;
    rec.response = ps::encode_response(response);
    double record_bytes = 0.0;
    for (std::size_t s = 0; s < kSessions; ++s) {
        rec.tenant = s + 1;
        rec.session = 1;
        rec.last_request_id = s;
        record_bytes = static_cast<double>(ps::serialize_session_record(rec).size());
        timed("session_store.save", [&] { store.save(rec); });
    }
    for (std::size_t s = 0; s < kSessions; ++s)
        timed("session_store.load", [&] { (void)store.load(s + 1, 1); });
    for (int r = 0; r < 3; ++r)
        timed("session_store.resume", [&] {
            for (const auto& [tenant, session] : store.list()) {
                const auto loaded = store.load(tenant, session);
                const pk::Checkpoint cp = pk::parse_checkpoint(loaded->checkpoint);
                if (c.domain == pk::Domain::kInt)
                    (void)pk::StreamSession<plr::IntRing>::resume_from(
                        cp, c.sig, nullptr, pk::RunOptions{});
                else
                    (void)pk::StreamSession<plr::FloatRing>::resume_from(
                        cp, c.sig, nullptr, pk::RunOptions{});
            }
        });
    std::filesystem::remove_all(dir);
    return record_bytes;
}

struct WireSplit {
    std::vector<double> residual_ns;
    std::vector<double> parse_gbps;
};

/**
 * parse_request / encode_response on the workload's frames, then the
 * same frames through an in-process Server::handle (default config,
 * one caller) and the residual of handle over its parts. Handles run
 * back to back after a warm pass, so the batcher is awake and every
 * plan is cached: what is left is the server's own per-request cost.
 */
WireSplit
wire_probe(const std::vector<std::vector<std::uint8_t>>& frames)
{
    ps::PlanCache cache(ps::ServerConfig{}.plan_cache_capacity);
    ps::Server server;
    for (const auto& frame : frames) {
        auto warm = frame;
        stamp(warm, 1, 1ull << 62);
        (void)server.handle(warm);
        (void)cache.lookup(ps::parse_request(frame).signature_text,
                           ps::parse_request(frame).domain);
    }
    std::vector<std::int64_t> handle_ns;
    for (const auto& frame : frames)
        handle_ns.push_back(timed("server.handle", [&] { (void)server.handle(frame); }));

    WireSplit split;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto& frame = frames[i];
        ps::RequestFrame req;
        const std::int64_t parse = timed("wire.parse_request",
                                         [&] { req = ps::parse_request(frame); });
        std::shared_ptr<const ps::Plan> plan;
        const std::int64_t lookup = timed("plan_cache.lookup_warm", [&] {
            plan = cache.lookup(req.signature_text, req.domain);
        });
        const SigCase c{"frame", plan->sig, req.domain, req.signature_text};
        std::vector<std::uint32_t> out;
        const std::int64_t compute =
            timed("kernels.oracle_frame", [&] { out = oracle(c, req.payload); });
        ps::ResponseFrame resp;
        resp.request_id = req.request_id;
        resp.tenant = req.tenant;
        resp.batch = 1;
        resp.payload = std::move(out);
        const std::int64_t encode = timed("wire.encode_response",
                                          [&] { (void)ps::encode_response(resp); });
        split.residual_ns.push_back(static_cast<double>(
            handle_ns[i] - (parse + lookup + compute + encode)));
        split.parse_gbps.push_back(static_cast<double>(frame.size()) /
                                   static_cast<double>(parse));
    }
    return split;
}

}  // namespace

void
layer_probes(const LayerInputs& in, const Options& opts, Metrics& out)
{
    Trace::instance().enable(true);
    const std::vector<SigCase> few(
        in.cases.begin(),
        in.cases.begin() + std::min(in.cases.size(), kProbeCases));

    // Kernels: the call, its two memcpy ceilings, the specialized loop
    // and the oracle on the workload's payload shape.
    if (in.run_kernel_probe)
        for (std::size_t i = 0; i < few.size(); ++i) {
            const auto bits = make_input(few[i].domain, in.payload_n, opts.seed + i);
            if (few[i].domain == pk::Domain::kInt)
                kernel_probe_typed<plr::IntRing>(few[i], bits);
            else
                kernel_probe_typed<plr::FloatRing>(few[i], bits);
        }
    const double call_ns = span_median("kernels.run_recurrence");
    const double fresh_ns = span_median("kernels.memcpy_fresh");
    const double reused_ns = span_median("kernels.memcpy_reused");
    out.set("kernels.call_ms", call_ns * 1e-6, "ms");
    out.set("kernels.gbps_computed", 8.0 * in.payload_n / call_ns, "GB/s");
    out.set("kernels.memcpy_fresh_ms", fresh_ns * 1e-6, "ms");
    out.set("kernels.memcpy_reused_ms", reused_ns * 1e-6, "ms");
    out.set("kernels.first_touch_share", (fresh_ns - reused_ns) / call_ns,
            "ratio");
    out.set("kernels.spec_loop_ms", span_median("kernels.spec_loop") * 1e-6, "ms");
    out.set("kernels.oracle_ms", span_median("kernels.oracle") * 1e-6, "ms");

    // Streaming and checkpoints, then the durable store on records of
    // the same shape.
    std::vector<std::vector<std::uint8_t>> ckpts;
    for (std::size_t i = 0; i < few.size(); ++i)
        ckpts.push_back(
            few[i].domain == pk::Domain::kInt
                ? stream_probe_typed<plr::IntRing>(few[i], opts.seed + i)
                : stream_probe_typed<plr::FloatRing>(few[i], opts.seed + i));
    out.set("kernels.stream_feed_us", span_median("kernels.stream_feed") * 1e-3, "us");
    out.set("kernels.checkpoint_seal_us",
            span_median("kernels.checkpoint_seal") * 1e-3, "us");
    out.set("kernels.checkpoint_parse_us",
            span_median("kernels.checkpoint_parse") * 1e-3, "us");

    // Planning: parse, plan, analyze per distinct signature.
    core_probe(in.cases, in.payload_n);
    out.set("core.parse_us", span_median("core.parse") * 1e-3, "us");
    out.set("core.plan_us", span_median("core.plan") * 1e-3, "us");
    out.set("analysis.analyze_us", span_median("analysis.analyze") * 1e-3, "us");

    const double replay_hits = plan_cache_probe(in.cases, in.lookups);
    out.set("plan_cache.hit_ratio", in.hit_ratio >= 0.0 ? in.hit_ratio : replay_hits,
            "ratio");
    out.set("plan_cache.lookup_hit_us",
            span_median("plan_cache.lookup_hit") * 1e-3, "us");
    out.set("plan_cache.lookup_miss_us",
            span_median("plan_cache.lookup_miss") * 1e-3, "us");

    // Wire codec and in-process handle on the workload's frames (bulk
    // sends none: one 1 Mi-element frame per row stands in).
    std::vector<std::vector<std::uint8_t>> frames = in.frames;
    if (frames.empty())
        for (std::size_t i = 0; i < few.size(); ++i) {
            const std::size_t n = std::min<std::size_t>(in.payload_n, 1u << 20);
            frames.push_back(encode(few[i], make_input(few[i].domain, n, i), 1));
            stamp(frames.back(), 1, i + 1);
        }
    const WireSplit split = wire_probe(frames);
    const double parse_ns = span_median("wire.parse_request");
    const double handle_ns = span_median("server.handle");
    out.set("wire.parse_us", parse_ns * 1e-3, "us");
    out.set("wire.encode_us", span_median("wire.encode_response") * 1e-3, "us");
    out.set("wire.parse_gbps", median(split.parse_gbps), "GB/s");
    out.set("server.handle_us", handle_ns * 1e-3, "us");
    out.set("server.residual_us", median(split.residual_ns) * 1e-3, "us");

    out.set("transport.overhead_us",
            in.socket_p50_us > 0.0 ? in.socket_p50_us - handle_ns * 1e-3 : 0.0,
            "us");
    out.set("transport.reject_rtt_us", in.reject_rtt_us, "us");
    out.set("server.batch_mean", in.batch_mean, "count");
    out.set("server.fused_share", in.fused_share, "ratio");
    out.set("server.replayed_share", in.replayed_share, "ratio");

    const double record_bytes = session_store_probe(few.front(), ckpts.front(), opts);
    out.set("session_store.save_us", span_median("session_store.save") * 1e-3, "us");
    out.set("session_store.load_us", span_median("session_store.load") * 1e-3, "us");
    out.set("session_store.record_bytes", record_bytes, "bytes");
    out.set("session_store.resume_ms", span_median("session_store.resume") * 1e-6,
            "ms");

    out.set("loadgen.lag_p99_us", in.lag_p99_us, "us");
    out.set("trace.overhead", in.trace_overhead, "ratio");
}

}  // namespace perfbench
