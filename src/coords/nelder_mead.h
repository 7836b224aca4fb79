// Nelder–Mead downhill-simplex minimizer.
//
// GNP [1] computes each host's coordinate by minimizing the latency
// embedding error with the Simplex Downhill method; this is that method,
// over a fixed dimension N so the simplex lives in std::array values and a
// call allocates nothing.  Tests exercise it on known analytic functions.
//
// The arithmetic order is part of the contract: the GNP coordinates every
// utility score reads are pinned bit for bit (tests/coords_test.cc), so the
// vertex scan, the centroid summation order and the affine step below must
// not be reassociated.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>

#include "util/require.h"

namespace groupcast::coords {

struct NelderMeadOptions {
  std::size_t max_iterations = 400;
  double initial_step = 50.0;   // simplex spread around the starting point
  double tolerance = 1e-6;      // stop when the simplex f-spread drops below
  double reflection = 1.0;
  double expansion = 2.0;
  double contraction = 0.5;
  double shrink = 0.5;
};

template <std::size_t N>
struct NelderMeadResult {
  std::array<double, N> x{};
  double value = 0.0;
  std::size_t iterations = 0;
};

namespace detail {

/// origin + t * (towards - origin), per coordinate.
template <std::size_t N>
std::array<double, N> affine(const std::array<double, N>& origin,
                             const std::array<double, N>& towards, double t) {
  std::array<double, N> out;
  for (std::size_t d = 0; d < N; ++d) {
    out[d] = origin[d] + t * (towards[d] - origin[d]);
  }
  return out;
}

}  // namespace detail

/// Minimizes `f`, called as f(const std::array<double, N>&) -> double,
/// starting from `start`.
template <std::size_t N, class F>
NelderMeadResult<N> nelder_mead(F&& f, std::array<double, N> start,
                                const NelderMeadOptions& options = {}) {
  static_assert(N > 0, "the simplex needs at least one dimension");
  GC_REQUIRE(options.initial_step > 0.0);
  using Point = std::array<double, N>;
  constexpr std::size_t kVertices = N + 1;

  // Initial simplex: the start point plus one vertex offset per axis.
  std::array<Point, kVertices> simplex;
  simplex[0] = start;
  for (std::size_t d = 0; d < N; ++d) {
    simplex[d + 1] = start;
    simplex[d + 1][d] += options.initial_step;
  }
  std::array<double, kVertices> values;
  for (std::size_t i = 0; i < kVertices; ++i) values[i] = f(simplex[i]);

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Identify best, worst, second-worst.
    std::size_t best = 0, worst = 0, second = 0;
    for (std::size_t i = 1; i < kVertices; ++i) {
      if (values[i] < values[best]) best = i;
      if (values[i] > values[worst]) worst = i;
    }
    second = best;
    for (std::size_t i = 0; i < kVertices; ++i) {
      if (i != worst && values[i] > values[second]) second = i;
    }

    if (std::abs(values[worst] - values[best]) < options.tolerance) break;

    // Centroid of every vertex but the worst: summed in index order, then
    // scaled once.
    Point center{};
    for (std::size_t i = 0; i < kVertices; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < N; ++d) center[d] += simplex[i][d];
    }
    const double k = 1.0 / static_cast<double>(N);
    for (auto& x : center) x *= k;

    const Point reflected =
        detail::affine(center, simplex[worst], -options.reflection);
    const double reflected_value = f(reflected);

    if (reflected_value < values[best]) {
      const Point expanded = detail::affine(
          center, simplex[worst], -options.reflection * options.expansion);
      const double expanded_value = f(expanded);
      if (expanded_value < reflected_value) {
        simplex[worst] = expanded;
        values[worst] = expanded_value;
      } else {
        simplex[worst] = reflected;
        values[worst] = reflected_value;
      }
    } else if (reflected_value < values[second]) {
      simplex[worst] = reflected;
      values[worst] = reflected_value;
    } else {
      const Point contracted =
          detail::affine(center, simplex[worst], options.contraction);
      const double contracted_value = f(contracted);
      if (contracted_value < values[worst]) {
        simplex[worst] = contracted;
        values[worst] = contracted_value;
      } else {
        // Shrink the whole simplex towards the best vertex.
        for (std::size_t i = 0; i < kVertices; ++i) {
          if (i == best) continue;
          simplex[i] =
              detail::affine(simplex[best], simplex[i], options.shrink);
          values[i] = f(simplex[i]);
        }
      }
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < kVertices; ++i) {
    if (values[i] < values[best]) best = i;
  }
  return NelderMeadResult<N>{simplex[best], values[best], iter};
}

}  // namespace groupcast::coords
