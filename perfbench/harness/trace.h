#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory spans for the traced run. A span has a name, start, end,
 * parent and operation id; spans nest per thread. Recording is off
 * unless enabled, so untraced runs pay one branch per span site. Self
 * time is a span's duration minus the part of it its children cover.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are steady-clock nanoseconds. */
struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span in the same trace, or -1. */
    std::int64_t parent = -1;
    /** Operation (request, call) the span belongs to. */
    std::uint64_t op = 0;
};

/**
 * Self time of every span, in nanoseconds: its duration minus the union
 * of its direct children's intervals clipped to it.
 */
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/** Steady-clock nanoseconds. */
std::int64_t now_ns();

/** Process-wide span store. */
class Trace {
  public:
    static Trace& instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span on this thread; returns its index (-1 when off). */
    std::int64_t open(const char* name, std::uint64_t op);
    void close(std::int64_t index);
    /** Record a span timed by the caller (no-op when off). */
    void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t op = 0);

    /** Durations (ns) of every closed span named @p name. */
    std::vector<double> durations(const std::string& name) const;

    /** Write every span with its self time as one JSON array. */
    void write(const std::string& path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class ScopedSpan {
  public:
    ScopedSpan(const char* name, std::uint64_t op = 0)
        : index_(Trace::instance().enabled()
                     ? Trace::instance().open(name, op)
                     : -1)
    {
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            Trace::instance().close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    std::int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
