#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the benchmark harness: run options, the result and
 * report shapes, the environment/ceiling block, the plr_server process
 * under test, the wire client, and the per-layer probes.
 */

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/signature.h"
#include "kernels/registry.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** plr_server executable (relative to the working directory). */
    std::string server = "plr_server";
    /** Scratch directory for sockets, session stores and traces. */
    std::string work_dir = "perfbench-run";
};

/** Flat JSON object built key by key (values are pre-rendered). */
class Json {
  public:
    Json& num(const std::string& key, double value);
    Json& str(const std::string& key, const std::string& value);
    Json& raw(const std::string& key, const std::string& json);
    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Render a double with every digit it has (non-finite -> kFailedLatency). */
std::string json_number(double value);

/** Metric name -> (value, unit), in insertion order. */
class Metrics {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    /** {"name": {"value": v, "unit": u}, ...} */
    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/** What one workload run produced. */
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics end_to_end;
    Metrics layers;
    /** Workload-specific report fields (sizes, phases, counts). */
    Json report;
};

// ---------------------------------------------------------------------
// Signatures.

/** One recurrence the workload runs, in its native domain. */
struct SigCase {
    std::string name;
    plr::Signature sig;
    plr::kernels::Domain domain = plr::kernels::Domain::kInt;
    /** DSL text as it travels on the wire (17 significant digits). */
    std::string text;
};

/** Build a SigCase; the text round-trips to the same coefficients. */
SigCase make_case(const std::string& name, const plr::Signature& sig,
                  plr::kernels::Domain domain);

/** The Table-1 row of testing::table1_corpus() called @p name. */
SigCase table1_case(const std::string& name);

/** Seeded input values (as bit patterns) for @p domain. */
std::vector<std::uint32_t> make_input(plr::kernels::Domain domain,
                                      std::size_t n, std::uint64_t seed);

/** serial_recurrence of @p input (bit patterns in, bit patterns out). */
std::vector<std::uint32_t> oracle(const SigCase& c,
                                  std::span<const std::uint32_t> input);

/** Mismatching elements of @p actual against the oracle's @p expected. */
std::size_t mismatches(plr::kernels::Domain domain,
                       std::span<const std::uint32_t> expected,
                       std::span<const std::uint32_t> actual);

// ---------------------------------------------------------------------
// Environment and ceilings.

/** Same-run memcpy of @p bytes: fresh and reused destination (seconds). */
struct MemcpyCeiling {
    std::size_t bytes = 0;
    double fresh_s = 0.0;
    double reused_s = 0.0;
};
MemcpyCeiling measure_memcpy(std::size_t bytes, std::size_t reps);

/** Best of @p reps timings of a memcpy of @p bytes into touched memory. */
double memcpy_reused_s(std::size_t bytes, std::size_t reps);

/** VmHWM of @p pid in MiB (0 when unreadable). */
double peak_rss_mib(pid_t pid);

/**
 * CPU time the hypervisor has given to others while this machine's
 * CPUs wanted to run: the steal column of /proc/stat summed over all
 * CPUs, in clock ticks (0 where the kernel does not report it).
 */
double steal_ticks();

/**
 * The environment and ceiling block of every report: nproc, cache
 * sizes, compiler and build type, the workload's same-run memcpy
 * ceilings, and a 1/2/4-core scaling probe of the bulk call.
 */
std::string environment_block(const std::vector<MemcpyCeiling>& ceilings);

// ---------------------------------------------------------------------
// The server under test and its wire client.

/** A plr_server child process. */
class ServerProcess {
  public:
    /** Launch with only --socket (and --session-store when non-empty). */
    ServerProcess(const std::string& exe, const std::string& socket,
                  const std::string& store, const std::string& log);
    ~ServerProcess();
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /** Connect to its socket, retrying until it listens (throws). */
    int connect() const;
    /** SIGKILL and reap; returns VmHWM (MiB) read just before. */
    double stop();

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** Encode a v2 idempotent stateless request for @p input. */
std::vector<std::uint8_t> encode(const SigCase& c,
                                 std::span<const std::uint32_t> input,
                                 std::uint64_t tenant,
                                 std::uint64_t session = 0);

/**
 * Set request id and tenant in a sealed request frame and reseal it
 * with the library's Fletcher-32 (one pass over the frame).
 */
void stamp(std::vector<std::uint8_t>& frame, std::uint64_t tenant,
           std::uint64_t request_id);

/** What the client saw in one response. */
struct Answer {
    bool ok = false;
    std::uint32_t flags = 0;
    std::uint32_t batch = 0;
};

/**
 * Parse a response and check it against @p expected; @p payload, when
 * non-null, receives the response payload.
 */
Answer check_response(std::span<const std::uint8_t> bytes,
                      plr::kernels::Domain domain,
                      std::span<const std::uint32_t> expected,
                      std::uint64_t request_id,
                      std::vector<std::uint32_t>* payload = nullptr);

/** Socket and log path of this run's server instance. */
struct Paths {
    std::string socket;
    std::string log;
};
Paths server_paths(const Options& opts);

/** @p count connections to @p server. */
std::vector<int> open_connections(const ServerProcess& server,
                                  std::size_t count);
void close_all(const std::vector<int>& fds);

/**
 * Median round trip (us) of a sealed-length garbage frame, which the
 * server answers kBadFrame without admission or compute.
 */
double reject_rtt_us(int fd);

/** Requests that failed (latency kFailedLatency) and the rest. */
std::size_t failures(const std::vector<double>& latency);
std::vector<double> successes(const std::vector<double>& latency);

struct LayerInputs;
/** batch_mean, fused_share and hit_ratio from response fields. */
void flag_shares(const std::vector<std::uint32_t>& flags,
                 const std::vector<std::uint32_t>& batch, LayerInputs& in);

// ---------------------------------------------------------------------
// Per-layer probes (traced run).

/** What a workload hands the layer probes. */
struct LayerInputs {
    std::vector<SigCase> cases;
    /** Elements per kernel call / payload in this workload. */
    std::size_t payload_n = 0;
    /** Signature sequence the plan cache saw (indices into cases). */
    std::vector<std::size_t> lookups;
    /** A sample of request frames as sent (stamped). */
    std::vector<std::vector<std::uint8_t>> frames;
    /** Load-side figures the workload measured (absent = 0). */
    double hit_ratio = -1.0;
    double socket_p50_us = 0.0;
    double reject_rtt_us = 0.0;
    double batch_mean = 0.0;
    double fused_share = 0.0;
    double replayed_share = 0.0;
    double lag_p99_us = 0.0;
    double trace_overhead = 1.0;
    /** false when the workload's own load already recorded the
        kernels.* spans (bulk), so the kernel probe is not rerun. */
    bool run_kernel_probe = true;
};

/** Run every layer probe and fill @p out with every per-layer metric. */
void layer_probes(const LayerInputs& in, const Options& opts, Metrics& out);

// ---------------------------------------------------------------------
// Workloads.

Outcome run_bulk(const Options& opts);
Outcome run_serve_small(const Options& opts);
Outcome run_serve_large(const Options& opts);
Outcome run_stream_durable(const Options& opts);

/** Seconds since @p start_ns (steady clock). */
double since_s(std::int64_t start_ns);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
