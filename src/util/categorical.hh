/**
 * @file
 * Exact, branch-free sampling of a discrete distribution.
 *
 * The trace and program generators draw each event's kind by
 * subtracting the category weights from a uniform u in order and
 * stopping at the first running difference that goes negative.  That
 * early exit lands at a random place, so the branch predictor misses
 * it on most draws.  CategoricalSampler returns the same category
 * without the exit: with weights >= 0, IEEE subtraction is monotone,
 * so once a running difference is negative it stays negative, and the
 * first negative one sits at index "number of non-negative ones".  A
 * zero weight leaves u unchanged and can never be that first one, so
 * zero weights are dropped.  The subtractions run in the same order
 * as the early-exit loop's, so every rounding step, and therefore
 * every result, is bit-identical to it.
 */

#ifndef SUIT_UTIL_CATEGORICAL_HH
#define SUIT_UTIL_CATEGORICAL_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <string_view>

#include "util/logging.hh"

namespace suit::util {

/** Samples ids 0..N-1 by their weights; see the file comment. */
template <typename Id, std::size_t N>
class CategoricalSampler
{
  public:
    /**
     * @param weights per-id weights: finite, >= 0, at least one
     *        positive (asserted, naming @p owner).
     * @param fallback id returned when u outlasts every weight
     *        (rounding leftovers, or u >= the weights' sum).
     * @param owner names the profile or mix in assertion messages.
     */
    CategoricalSampler(std::span<const double, N> weights, Id fallback,
                       std::string_view owner)
    {
        for (std::size_t i = 0; i < N; ++i) {
            SUIT_ASSERT(std::isfinite(weights[i]) && weights[i] >= 0.0,
                        "%.*s: weight %zu is %g; weights must be "
                        "finite and >= 0",
                        static_cast<int>(owner.size()), owner.data(), i,
                        weights[i]);
            if (weights[i] > 0.0) {
                weights_[n_] = weights[i];
                ids_[n_] = static_cast<Id>(i);
                ++n_;
            }
        }
        SUIT_ASSERT(n_ > 0, "%.*s has no positive weight",
                    static_cast<int>(owner.size()), owner.data());
        ids_[n_] = fallback;
    }

    /** As above, falling back to the id of the last positive weight. */
    CategoricalSampler(std::span<const double, N> weights,
                       std::string_view owner)
        : CategoricalSampler(weights, Id{}, owner)
    {
        ids_[n_] = ids_[n_ - 1];
    }

    /**
     * The first id whose running difference u - w0 - w1 - ... goes
     * negative, or the fallback if none does.  @p u >= 0 (a uniform
     * draw, possibly scaled): below 0 the early-exit loop would stop
     * at a zero weight, which this sampler has dropped.
     */
    Id
    sample(double u) const
    {
        std::size_t count = 0;
        for (std::size_t i = 0; i < n_; ++i) {
            u -= weights_[i];
            count += u >= 0.0;
        }
        return ids_[count];
    }

  private:
    std::array<double, N> weights_{}; //!< the positive weights, in order
    std::array<Id, N + 1> ids_{};     //!< their ids, then the fallback
    std::size_t n_ = 0;               //!< number of positive weights
};

} // namespace suit::util

#endif // SUIT_UTIL_CATEGORICAL_HH
