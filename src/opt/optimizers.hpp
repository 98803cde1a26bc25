// Generic numerical optimizers.
//
// The CNF MIMO filter problem (Eq. 2 in the paper) is non-convex; the paper
// solves it with a generic non-linear technique. Derivative-free
// Nelder-Mead is that technique here: relay/cnf_design.cpp runs it over a
// Givens/phase parameterization of the unitary filter.
#pragma once

#include <functional>
#include <vector>

namespace ff::opt {

using Objective = std::function<double(const std::vector<double>&)>;

struct NelderMeadOptions {
  std::size_t max_iterations = 2000;
  double initial_step = 0.5;
  double tolerance = 1e-10;  // stop when simplex value spread drops below this
};

struct OptResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t iterations = 0;
};

/// Minimize `f` starting from `x0` with the Nelder-Mead simplex method.
OptResult nelder_mead(const Objective& f, std::vector<double> x0,
                      const NelderMeadOptions& opts = {});

}  // namespace ff::opt
