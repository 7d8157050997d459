#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "kernels/verify.h"
#include "server/transport.h"
#include "server/wire.h"
#include "stats.h"
#include "trace.h"

extern char** environ;

namespace perfbench {

namespace ps = plr::server;

namespace {
int connect_unix(const std::string& path);
}  // namespace

ServerProcess::ServerProcess(const std::string& exe, const std::string& socket,
                             const std::string& store, const std::string& log)
    : socket_(socket)
{
    std::vector<std::string> args = {exe, "--socket", socket};
    if (!store.empty()) {
        args.push_back("--session-store");
        args.push_back(store);
    }
    std::vector<char*> argv;
    for (auto& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        throw std::runtime_error("cannot start " + exe + ": " +
                                 std::strerror(rc));
}

ServerProcess::~ServerProcess()
{
    stop();
}

int
ServerProcess::connect() const
{
    const std::int64_t start = now_ns();
    for (;;) {
        const int fd = connect_unix(socket_);
        if (fd >= 0)
            return fd;
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_)
            throw std::runtime_error("plr_server exited before listening");
        if (since_s(start) > 30.0)
            throw std::runtime_error("plr_server did not listen on " + socket_);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

double
ServerProcess::stop()
{
    if (pid_ <= 0)
        return 0.0;
    const double rss = peak_rss_mib(pid_);
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(socket_.c_str());
    return rss;
}

namespace {

/** Open an AF_UNIX stream connection to @p path (-1 on failure). */
int
connect_unix(const std::string& path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

}  // namespace

std::vector<std::uint8_t>
encode(const SigCase& c, std::span<const std::uint32_t> input,
       std::uint64_t tenant, std::uint64_t session)
{
    ps::RequestFrame frame;
    frame.wire_version = 2;
    frame.tenant = tenant;
    frame.session = session;
    frame.domain = c.domain;
    frame.flags = ps::kRequestFlagIdempotent;
    frame.signature_text = c.text;
    frame.payload.assign(input.begin(), input.end());
    return ps::encode_request(frame);
}

namespace {

void
put_u64(std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

void
stamp(std::vector<std::uint8_t>& frame, std::uint64_t tenant,
      std::uint64_t request_id)
{
    // Request id at offset 8, tenant at 16 (server/wire.h); the seal is
    // the last word, Fletcher-32 over every word before it.
    put_u64(frame, 8, request_id);
    put_u64(frame, 16, tenant);
    const std::size_t words = frame.size() / 4 - 1;
    std::vector<std::uint32_t> body(words);
    std::memcpy(body.data(), frame.data(), words * 4);
    const std::uint32_t seal = plr::kernels::fletcher32(body.data(), words);
    std::memcpy(frame.data() + words * 4, &seal, 4);
}

Answer
check_response(std::span<const std::uint8_t> bytes, plr::kernels::Domain domain,
               std::span<const std::uint32_t> expected, std::uint64_t request_id,
               std::vector<std::uint32_t>* payload)
{
    Answer answer;
    try {
        const ps::ResponseFrame r = ps::parse_response(bytes);
        answer.flags = r.flags;
        answer.batch = r.batch;
        answer.ok = r.status == ps::kStatusOk && r.request_id == request_id &&
                    mismatches(domain, expected, r.payload) == 0;
        if (payload != nullptr)
            *payload = r.payload;
    } catch (const ps::FrameError&) {
        answer.ok = false;
    }
    return answer;
}

Paths
server_paths(const Options& opts)
{
    const std::string base = opts.work_dir + "/plr-" + std::to_string(getpid());
    return {base + ".sock", base + ".log"};
}

double
reject_rtt_us(int fd)
{
    std::vector<std::uint8_t> garbage(64, 0xA5);
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
        const std::int64_t t0 = now_ns();
        ps::write_frame(fd, garbage);
        const auto reply = ps::read_frame(fd);
        us.push_back(since_s(t0) * 1e6);
        if (!reply)
            throw std::runtime_error("server closed on a garbage frame");
        const auto r = ps::parse_response(*reply);
        if (r.status == ps::kStatusOk)
            throw std::runtime_error("garbage frame was answered ok");
    }
    return median(us);
}

std::size_t
failures(const std::vector<double>& latency)
{
    std::size_t f = 0;
    for (const double v : latency)
        f += v >= kFailedLatency;
    return f;
}

std::vector<double>
successes(const std::vector<double>& latency)
{
    std::vector<double> ok;
    for (const double v : latency)
        if (v < kFailedLatency)
            ok.push_back(v);
    return ok;
}

std::vector<int>
open_connections(const ServerProcess& server, std::size_t count)
{
    std::vector<int> fds;
    for (std::size_t c = 0; c < count; ++c)
        fds.push_back(server.connect());
    return fds;
}

void
close_all(const std::vector<int>& fds)
{
    for (const int fd : fds)
        ::close(fd);
}

void
flag_shares(const std::vector<std::uint32_t>& flags,
            const std::vector<std::uint32_t>& batch, LayerInputs& in)
{
    double batches = 0.0;
    std::size_t fused = 0;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < flags.size(); ++i) {
        batches += batch[i];
        fused += (flags[i] & ps::kResponseFlagFusedBatch) != 0;
        hits += (flags[i] & ps::kResponseFlagPlanCacheHit) != 0;
    }
    const double n = static_cast<double>(std::max<std::size_t>(flags.size(), 1));
    in.batch_mean = batches / n;
    in.fused_share = static_cast<double>(fused) / n;
    in.hit_ratio = static_cast<double>(hits) / n;
}


}  // namespace perfbench
