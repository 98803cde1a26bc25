// Tests for the numerical optimizers used by the CNF filter design.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/optimizers.hpp"

namespace ff {
namespace {

double sq(double x) { return x * x; }

TEST(NelderMead, MinimizesQuadraticBowl) {
  const auto f = [](const std::vector<double>& x) {
    return sq(x[0] - 3.0) + 2.0 * sq(x[1] + 1.5);
  };
  const auto r = opt::nelder_mead(f, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
  EXPECT_NEAR(r.x[1], -1.5, 1e-4);
  EXPECT_NEAR(r.value, 0.0, 1e-7);
}

TEST(NelderMead, HandlesRosenbrock) {
  const auto f = [](const std::vector<double>& x) {
    return 100.0 * sq(x[1] - x[0] * x[0]) + sq(1.0 - x[0]);
  };
  opt::NelderMeadOptions o;
  o.max_iterations = 5000;
  const auto r = opt::nelder_mead(f, {-1.2, 1.0}, o);
  EXPECT_NEAR(r.x[0], 1.0, 2e-3);
  EXPECT_NEAR(r.x[1], 1.0, 4e-3);
}

TEST(NelderMead, WorksInHigherDimensions) {
  const auto f = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      acc += sq(x[i] - static_cast<double>(i));
    return acc;
  };
  const auto r = opt::nelder_mead(f, std::vector<double>(6, 0.0),
                                  {.max_iterations = 10000, .initial_step = 1.0});
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(r.x[i], static_cast<double>(i), 1e-2);
}

TEST(NelderMead, MaximizesDeterminantProxy) {
  // The CNF MIMO shape: maximize |a + b e^{j theta}| over theta, expressed
  // as minimizing the negative; optimum aligns the phases.
  const auto f = [](const std::vector<double>& x) {
    const double re = 2.0 + 1.5 * std::cos(x[0]);
    const double im = 1.5 * std::sin(x[0]);
    return -std::sqrt(re * re + im * im);
  };
  const auto r = opt::nelder_mead(f, {2.5});
  EXPECT_NEAR(-r.value, 3.5, 1e-6);
}

}  // namespace
}  // namespace ff
