#include <dirent.h>
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "kernels/runner.h"
#include "kernels/serial.h"
#include "kernels/stream_state.h"
#include "stats.h"
#include "testing/corpus.h"
#include "trace.h"
#include "util/ring.h"

namespace perfbench {

namespace pk = plr::kernels;

// ---------------------------------------------------------------------
// JSON.

std::string
json_number(double value)
{
    if (!std::isfinite(value))
        value = kFailedLatency;
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << value;
    return os.str();
}

namespace {

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            out += ' ';
        else
            out += ch;
    }
    return out + "\"";
}

}  // namespace

Json&
Json::num(const std::string& key, double value)
{
    fields_.emplace_back(key, json_number(value));
    return *this;
}

Json&
Json::str(const std::string& key, const std::string& value)
{
    fields_.emplace_back(key, json_string(value));
    return *this;
}

Json&
Json::raw(const std::string& key, const std::string& json)
{
    fields_.emplace_back(key, json);
    return *this;
}

std::string
Json::render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
        out += (i ? ", " : "") + json_string(fields_[i].first) + ": " +
               fields_[i].second;
    return out + "}";
}

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    for (auto& item : items_)
        if (item.first == name) {
            item.second = {value, unit};
            return;
        }
    items_.push_back({name, {value, unit}});
}

std::string
Metrics::render() const
{
    Json json;
    for (const auto& [name, vu] : items_)
        json.raw(name, Json()
                           .num("value", vu.first)
                           .str("unit", vu.second)
                           .render());
    return json.render();
}

double
since_s(std::int64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Signatures, inputs and the oracle.

SigCase
make_case(const std::string& name, const plr::Signature& sig,
          pk::Domain domain)
{
    // Signature::to_string rounds; the wire needs every digit so the
    // server plans exactly the recurrence the oracle evaluates.
    std::ostringstream os;
    os << std::setprecision(17) << "(";
    for (std::size_t i = 0; i < sig.a().size(); ++i)
        os << (i ? ", " : "") << sig.a()[i];
    os << " :";
    for (std::size_t i = 0; i < sig.b().size(); ++i)
        os << (i ? "," : "") << " " << sig.b()[i];
    os << ")";
    return {name, plr::Signature::parse(os.str()), domain, os.str()};
}

SigCase
table1_case(const std::string& name)
{
    for (const auto& entry : plr::testing::table1_corpus())
        if (entry.name == "table1/" + name)
            return make_case(name, entry.sig, entry.domain);
    throw std::runtime_error("no Table-1 row " + name);
}

std::vector<std::uint32_t>
make_input(pk::Domain domain, std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> out(n);
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
    for (auto& word : out) {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        if (domain == pk::Domain::kInt) {
            word = pk::value_bits(static_cast<std::int32_t>(z % 201) - 100);
        } else {
            const float u = static_cast<float>(z >> 40) * 0x1.0p-24f;
            word = pk::value_bits(2.0f * u - 1.0f);
        }
    }
    return out;
}

namespace {

template <typename Ring>
std::vector<std::uint32_t>
oracle_in(const plr::Signature& sig, std::span<const std::uint32_t> input)
{
    using V = typename Ring::value_type;
    std::vector<V> values(input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
        values[i] = pk::bits_value<V>(input[i]);
    const auto out = pk::serial_recurrence<Ring>(sig, values);
    std::vector<std::uint32_t> bits(out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        bits[i] = pk::value_bits(out[i]);
    return bits;
}

}  // namespace

std::vector<std::uint32_t>
oracle(const SigCase& c, std::span<const std::uint32_t> input)
{
    if (c.domain == pk::Domain::kInt)
        return oracle_in<plr::IntRing>(c.sig, input);
    return oracle_in<plr::FloatRing>(c.sig, input);
}

std::size_t
mismatches(pk::Domain domain, std::span<const std::uint32_t> expected,
           std::span<const std::uint32_t> actual)
{
    if (domain == pk::Domain::kInt)
        return count_bit_mismatches(expected, actual);
    auto floats = [](std::span<const std::uint32_t> bits) {
        std::vector<float> v(bits.size());
        std::memcpy(v.data(), bits.data(), bits.size_bytes());
        return v;
    };
    return count_float_mismatches(floats(expected), floats(actual));
}

// ---------------------------------------------------------------------
// Ceilings and the environment block.

namespace {

/** Source and destination buffers for one memcpy ceiling. */
class CopyArena {
  public:
    explicit CopyArena(std::size_t bytes)
        : bytes_(bytes),
          // Source and destination at a fixed page offset from each
          // other: the copy speed of small payloads depends on it (4K
          // aliasing).
          span_((bytes + 4095) / 4096 * 4096),
          arena_(static_cast<std::uint8_t*>(std::aligned_alloc(4096, 2 * span_)),
                 &std::free)
    {
        if (!arena_)
            throw std::runtime_error("memcpy ceiling: out of memory");
        for (std::size_t i = 0; i < bytes; ++i)
            src()[i] = static_cast<std::uint8_t>(i * 131 + 7);
        std::memset(dst(), 1, bytes);
    }
    std::uint8_t* src() { return arena_.get(); }
    std::uint8_t* dst() { return arena_.get() + span_; }
    /** Copies per timing: 64 MiB, so small payloads are not timer noise. */
    std::size_t inner() const
    {
        return std::max<std::size_t>(1, (std::size_t{64} << 20) / std::max<std::size_t>(bytes_, 1));
    }

  private:
    std::size_t bytes_;
    std::size_t span_;
    std::unique_ptr<std::uint8_t, decltype(&std::free)> arena_;
};

}  // namespace

double
memcpy_reused_s(std::size_t bytes, std::size_t reps)
{
    CopyArena arena(bytes);
    const std::size_t inner = arena.inner();
    volatile std::uint8_t sink = 0;
    // Let the core leave its idle clock before the first timing.
    for (const std::int64_t warm = now_ns(); since_s(warm) < 0.05;)
        std::memcpy(arena.dst(), arena.src(), bytes);
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < inner; ++i) {
            std::memcpy(arena.dst(), arena.src(), bytes);
            sink = sink + arena.dst()[i % bytes];
        }
        const double s = since_s(t0) / static_cast<double>(inner);
        // The ceiling is the best copy seen: interference only slows it.
        best = r == 0 ? s : std::min(best, s);
    }
    return best;
}

MemcpyCeiling
measure_memcpy(std::size_t bytes, std::size_t reps)
{
    const double reused = memcpy_reused_s(bytes, reps);
    // Fresh pages: a new mapping per copy pays first-touch, like a
    // freshly returned large std::vector does. Page faults dominate,
    // so a few timings suffice.
    CopyArena arena(bytes);
    const std::size_t inner = arena.inner();
    volatile std::uint8_t sink = 0;
    double best = 0.0;
    for (std::size_t r = 0; r < std::min<std::size_t>(reps, 5); ++r) {
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < inner; ++i) {
            void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (map == MAP_FAILED)
                throw std::runtime_error("mmap failed");
            auto* fresh = static_cast<std::uint8_t*>(map);
            std::memcpy(fresh, arena.src(), bytes);
            sink = sink + fresh[i % bytes];
            munmap(map, bytes);
        }
        const double s = since_s(t0) / static_cast<double>(inner);
        best = r == 0 ? s : std::min(best, s);
    }
    return {bytes, best, reused};
}

double
peak_rss_mib(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
steal_ticks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    // user nice system idle iowait irq softirq steal
    double field[8] = {};
    in >> cpu;
    for (double& f : field)
        in >> f;
    return cpu == "cpu" && in ? field[7] : 0.0;
}

namespace {

std::string
read_line(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Cache sizes as lscpu reads them (sysfs, cpu0). */
std::string
cache_block()
{
    Json json;
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        const std::string level = read_line(dir + "/level");
        if (level.empty())
            break;
        std::string type = read_line(dir + "/type");
        const std::string tag =
            "L" + level + (type == "Data" ? "d" : type == "Instruction" ? "i" : "");
        json.str(tag, read_line(dir + "/size"));
    }
    return json.render();
}

/** Pin every thread of this process to the first @p cores CPUs. */
void
pin_process(std::size_t cores)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (std::size_t c = 0; c < cores; ++c)
        CPU_SET(c, &mask);
    if (DIR* dir = opendir("/proc/self/task")) {
        while (const dirent* entry = readdir(dir)) {
            const int tid = std::atoi(entry->d_name);
            if (tid > 0)
                sched_setaffinity(tid, sizeof(mask), &mask);
        }
        closedir(dir);
    }
}

/**
 * The bulk call (prefix sum, int32, Backend::kCpu) with the process
 * confined to 1, 2 and 4 cores: whether thread counts mean anything on
 * this box. Sized at 2^25 elements (128 MiB per array) to keep every
 * report cheap.
 */
std::string
scaling_probe()
{
    const std::size_t n = std::size_t{1} << 25;
    const auto bits = make_input(pk::Domain::kInt, n, 0x5CA1E);
    const std::span<const std::int32_t> input(
        reinterpret_cast<const std::int32_t*>(bits.data()), n);
    const plr::Signature sig({1.0}, {1.0});
    const std::size_t nproc =
        static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
    Json json;
    json.num("n", static_cast<double>(n)).num("bytes", 4.0 * n);
    double one = 0.0;
    for (const std::size_t cores : {1, 2, 4}) {
        if (cores > nproc)
            break;
        pin_process(cores);
        std::vector<double> ms;
        for (int rep = 0; rep < 3; ++rep) {
            const std::int64_t t0 = now_ns();
            const auto out = pk::run_recurrence(sig, input, pk::Backend::kCpu);
            ms.push_back(since_s(t0) * 1e3);
        }
        const double m = median(ms);
        if (cores == 1)
            one = m;
        json.num("ms_" + std::to_string(cores) + "core", m);
        json.num("speedup_" + std::to_string(cores) + "core", one / m);
    }
    pin_process(nproc);
    return json.render();
}

}  // namespace

std::string
environment_block(const std::vector<MemcpyCeiling>& ceilings)
{
    Json json;
    json.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.raw("caches", cache_block());
    json.str("compiler", std::string("g++ ") + __VERSION__);
    json.str("build_type", PERFBENCH_BUILD_TYPE);
    std::string rows = "[";
    for (std::size_t i = 0; i < ceilings.size(); ++i) {
        const MemcpyCeiling& m = ceilings[i];
        const double bytes = static_cast<double>(m.bytes);
        rows += (i ? ", " : "") + Json()
                                      .num("bytes", bytes)
                                      .num("fresh_gbps", bytes / m.fresh_s * 1e-9)
                                      .num("reused_gbps", bytes / m.reused_s * 1e-9)
                                      .render();
    }
    json.raw("memcpy", rows + "]");
    json.raw("scaling_probe", scaling_probe());
    return json.render();
}

}  // namespace perfbench
