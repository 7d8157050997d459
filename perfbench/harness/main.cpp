/**
 * @file
 * The benchmark harness: one process that generates a workload's load
 * from a seed, drives the library or a plr_server child, checks every
 * answer against the serial oracle and prints the report.
 *
 *   perfbench --workload bulk|serve_small|serve_large|stream_durable
 *             --seed N --seconds S --trace 0|1
 *             [--server PATH] [--work-dir DIR]
 *
 * Standard output ends with one JSON line: {"correct", "attempted",
 * "failed", "metrics"}; with --trace 0 the metrics are the end-to-end
 * set, with --trace 1 the per-layer set. The line before it is the
 * report: seed, environment and ceiling block, workload sizes and
 * fail_share. The traced run also writes its spans, with self times,
 * to DIR/trace-<workload>-<seed>.json.
 */

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "trace.h"

namespace {

using namespace perfbench;

/** Documented second seed for holdout checks of later claims. */
constexpr std::uint64_t kHoldoutSeed = 7919;

Options
parse_args(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            opts.workload = value;
        else if (key == "--seed")
            opts.seed = std::stoull(value);
        else if (key == "--seconds")
            opts.seconds = std::stod(value);
        else if (key == "--trace")
            opts.trace = value == "1";
        else if (key == "--server")
            opts.server = value;
        else if (key == "--work-dir")
            opts.work_dir = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (argc % 2 != 1)
        throw std::invalid_argument("options come in --key value pairs");
    if (opts.seconds <= 0.0)
        throw std::invalid_argument("--seconds must be positive");
    return opts;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        const Options opts = parse_args(argc, argv);
        std::filesystem::create_directories(opts.work_dir);
        Outcome o;
        if (opts.workload == "bulk")
            o = run_bulk(opts);
        else if (opts.workload == "serve_small")
            o = run_serve_small(opts);
        else if (opts.workload == "serve_large")
            o = run_serve_large(opts);
        else if (opts.workload == "stream_durable")
            o = run_stream_durable(opts);
        else
            throw std::invalid_argument("unknown workload '" + opts.workload + "'");
        if (o.attempted == 0)
            throw std::runtime_error("the run attempted nothing");

        if (opts.trace)
            Trace::instance().write(opts.work_dir + "/trace-" + opts.workload +
                                    "-" + std::to_string(opts.seed) + ".json");
        o.report.str("workload", opts.workload)
            .num("seed", static_cast<double>(opts.seed))
            .num("holdout_seed", static_cast<double>(kHoldoutSeed))
            .num("seconds", opts.seconds)
            .num("traced", opts.trace ? 1 : 0)
            .num("fail_share", static_cast<double>(o.failed) /
                                   static_cast<double>(o.attempted));
        std::cout << Json().raw("report", o.report.render()).render() << "\n";
        std::cout << Json()
                         .raw("correct", o.failed == 0 ? "true" : "false")
                         .num("attempted", static_cast<double>(o.attempted))
                         .num("failed", static_cast<double>(o.failed))
                         .raw("metrics", opts.trace ? o.layers.render()
                                                    : o.end_to_end.render())
                         .render()
                  << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
