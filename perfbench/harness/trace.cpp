#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

/** Indices of the spans open on this thread, innermost last. */
thread_local std::vector<std::int64_t> open_stack;

}  // namespace

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::int64_t>
self_times(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start_ns, s.end_ns});
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.start_ns;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.end_ns);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

Trace&
Trace::instance()
{
    static Trace trace;
    return trace;
}

std::int64_t
Trace::open(const char* name, std::uint64_t op)
{
    Span span;
    span.name = name;
    span.parent = open_stack.empty() ? -1 : open_stack.back();
    span.op = op;
    std::int64_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(std::move(span));
    }
    open_stack.push_back(index);
    // Stamp the start last so the bookkeeping above is not inside it.
    const std::int64_t start = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].start_ns = start;
    return index;
}

void
Trace::close(std::int64_t index)
{
    const std::int64_t end = now_ns();
    if (!open_stack.empty() && open_stack.back() == index)
        open_stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void
Trace::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t op)
{
    if (!enabled_)
        return;
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.parent = open_stack.empty() ? -1 : open_stack.back();
    span.op = op;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<double>
Trace::durations(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_)
        if (s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
}

void
Trace::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto self = self_times(spans_);
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << ",\"self_ns\":" << self[i] << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

}  // namespace perfbench
