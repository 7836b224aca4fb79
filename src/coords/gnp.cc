#include "coords/gnp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>

#include "coords/nelder_mead.h"
#include "util/parallel.h"
#include "util/require.h"

namespace groupcast::coords {

namespace {

/// Hosts per worker thread in the host phase.  A solve takes tens of
/// microseconds, so a grain amortizes a thread start many times over, and
/// worlds below two grains (the small test worlds) run inline.
constexpr std::size_t kHostGrain = 1024;

/// Relative-error objective GNP minimizes: sum of ((est-real)/real)^2.
double relative_error_sq(double estimated, double measured) {
  if (measured <= 0.0) return estimated * estimated;
  const double e = (estimated - measured) / measured;
  return e * e;
}

}  // namespace

GnpEmbedding::GnpEmbedding(std::size_t host_count, const LatencyOracle& oracle,
                           util::Rng& rng, const GnpOptions& options) {
  GC_REQUIRE(host_count >= 2);
  const std::size_t n_landmarks = std::min(options.landmarks, host_count);
  GC_REQUIRE(n_landmarks >= 2);

  // Landmark selection: uniform sample.  (GNP found random landmark picks
  // within a few percent of optimized picks.)
  landmarks_ = rng.sample_indices(host_count, n_landmarks);

  // Measured landmark-to-landmark latencies.
  std::vector<std::vector<double>> lm_dist(n_landmarks,
                                           std::vector<double>(n_landmarks));
  for (std::size_t i = 0; i < n_landmarks; ++i) {
    for (std::size_t j = i + 1; j < n_landmarks; ++j) {
      const double d = oracle(landmarks_[i], landmarks_[j]);
      lm_dist[i][j] = lm_dist[j][i] = d;
    }
  }

  // Phase 1: joint landmark embedding by spring relaxation.  Each landmark
  // starts at a random point; every round moves each landmark along the
  // summed error gradient of its springs.  This converges to the same local
  // minima the Simplex search finds for the joint objective and is far
  // cheaper in the joint (landmarks × dims) space.
  std::vector<Coord> lm(n_landmarks);
  for (auto& c : lm) {
    for (std::size_t d = 0; d < kDims; ++d) c[d] = rng.uniform(-200.0, 200.0);
  }
  for (std::size_t round = 0; round < options.landmark_iterations; ++round) {
    // Step size decays so the system settles.
    const double step =
        0.25 * (1.0 - static_cast<double>(round) /
                          static_cast<double>(options.landmark_iterations));
    for (std::size_t i = 0; i < n_landmarks; ++i) {
      Coord force;
      for (std::size_t j = 0; j < n_landmarks; ++j) {
        if (i == j) continue;
        const double est = lm[i].distance_to(lm[j]);
        const double target = lm_dist[i][j];
        if (est < 1e-9) {
          // Coincident points: push apart along a pseudo-random axis.
          Coord jitter;
          jitter[(i + j) % kDims] = 1.0;
          force += jitter * target;
          continue;
        }
        // Spring: positive error (too far) pulls together.
        const double err = target - est;
        Coord direction = lm[i] - lm[j];
        direction *= (1.0 / est);
        force += direction * err;
      }
      lm[i] += force * step;
    }
  }

  // Phase 2: every host (landmarks keep their phase-1 coordinates) solves
  // its coordinate against the landmarks with Nelder–Mead.
  coords_.resize(host_count);
  for (std::size_t i = 0; i < n_landmarks; ++i) {
    coords_[landmarks_[i]] = lm[i];
  }
  std::vector<char> is_landmark(host_count, 0);
  for (const auto l : landmarks_) is_landmark[l] = 1;

  // Every probe is taken here, on the calling thread and in host order,
  // so the oracle is never shared between threads.
  std::vector<double> probes(host_count * n_landmarks);
  for (std::size_t host = 0; host < host_count; ++host) {
    if (is_landmark[host]) continue;
    for (std::size_t j = 0; j < n_landmarks; ++j) {
      probes[host * n_landmarks + j] = oracle(host, landmarks_[j]);
    }
  }

  // Each solve reads only the landmark coordinates and its own probe row
  // and writes only coords_[host]: no RNG, no shared state, no reduction,
  // so the coordinates do not depend on the thread count or the schedule.
  NelderMeadOptions nm;
  nm.max_iterations = options.host_nm_iterations;
  nm.initial_step = 40.0;
  const auto solve = [&](std::size_t host) {
    if (is_landmark[host]) return;
    const double* row = probes.data() + host * n_landmarks;
    const auto objective = [&](const std::array<double, kDims>& x) {
      double total = 0.0;
      for (std::size_t j = 0; j < n_landmarks; ++j) {
        double acc = 0.0;
        for (std::size_t d = 0; d < kDims; ++d) {
          const double diff = x[d] - lm[j][d];
          acc += diff * diff;
        }
        total += relative_error_sq(std::sqrt(acc), row[j]);
      }
      return total;
    };
    // Start at the closest landmark's coordinate — a good initial guess.
    std::size_t nearest = 0;
    for (std::size_t j = 1; j < n_landmarks; ++j) {
      if (row[j] < row[nearest]) nearest = j;
    }
    std::array<double, kDims> start;
    for (std::size_t d = 0; d < kDims; ++d) start[d] = lm[nearest][d];
    coords_[host] = Coord(nelder_mead(objective, start, nm).x);
  };
  const std::size_t jobs = std::min<std::size_t>(
      std::thread::hardware_concurrency(), host_count / kHostGrain);
  util::parallel_for(host_count, jobs, solve);
}

double GnpEmbedding::median_relative_error(const LatencyOracle& oracle,
                                           util::Rng& rng,
                                           std::size_t sample_pairs) const {
  GC_REQUIRE(coords_.size() >= 2);
  std::vector<double> errors;
  errors.reserve(sample_pairs);
  for (std::size_t s = 0; s < sample_pairs; ++s) {
    const auto a = rng.uniform_index(coords_.size());
    auto b = rng.uniform_index(coords_.size());
    if (a == b) continue;
    const double real = oracle(a, b);
    if (real <= 0.0) continue;
    const double est = coords_[a].distance_to(coords_[b]);
    errors.push_back(std::abs(est - real) / real);
  }
  if (errors.empty()) return 0.0;
  std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                   errors.end());
  return errors[errors.size() / 2];
}

}  // namespace groupcast::coords
