#ifndef PERFBENCH_SPEC_LOOP_H_
#define PERFBENCH_SPEC_LOOP_H_

/**
 * @file
 * The order-specialized scalar loop: the second ceiling every kernel
 * is judged against. The feedback tap count is a template parameter,
 * so the loop is what a hand-written recurrence would be; the int ring
 * wraps in uint32. Covers the shapes the benchmark runs (orders 1..3,
 * no feed-forward taps beyond a0).
 */

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "core/signature.h"

namespace perfbench {

template <typename V, std::size_t K>
void
spec_loop_k(const plr::Signature& sig, std::span<const V> x, std::span<V> y)
{
    using A = std::conditional_t<std::is_same_v<V, float>, float, std::uint32_t>;
    auto coeff = [](double c) {
        if constexpr (std::is_same_v<A, float>)
            return static_cast<float>(c);
        else
            return static_cast<std::uint32_t>(static_cast<std::int64_t>(c));
    };
    A b[K];
    for (std::size_t j = 0; j < K; ++j)
        b[j] = coeff(sig.b()[j]);
    const A a0 = coeff(sig.a()[0]);
    A hist[K] = {};
    for (std::size_t i = 0; i < x.size(); ++i) {
        A acc = a0 * static_cast<A>(x[i]);
        for (std::size_t j = 0; j < K; ++j)
            acc += b[j] * hist[j];
        for (std::size_t j = K - 1; j > 0; --j)
            hist[j] = hist[j - 1];
        hist[0] = acc;
        y[i] = static_cast<V>(acc);
    }
}

/** True when spec_loop covers @p sig. */
inline bool
spec_loop_covers(const plr::Signature& sig)
{
    return !sig.is_max_plus() && sig.fir_taps() == 0 && sig.order() >= 1 &&
           sig.order() <= 3;
}

template <typename V>
void
spec_loop(const plr::Signature& sig, std::span<const V> x, std::span<V> y)
{
    switch (spec_loop_covers(sig) ? sig.order() : 0) {
      case 1: spec_loop_k<V, 1>(sig, x, y); break;
      case 2: spec_loop_k<V, 2>(sig, x, y); break;
      case 3: spec_loop_k<V, 3>(sig, x, y); break;
      default: throw std::runtime_error("spec loop: unsupported shape");
    }
}

}  // namespace perfbench

#endif  // PERFBENCH_SPEC_LOOP_H_
