// Dense primal simplex for small linear programs.
//
//   maximise  c^T x
//   subject to A x <= b,  x >= 0.
//
// The paper solves its core-allocation LP with CVXOPT (§5.4.2); this repo
// solves it natively via bisection + min-cost flow (solver/allocation.hpp).
// This simplex is the test oracle: tests/solver_test.cpp solves the LP
// formulation directly with it and cross-checks that solver.
// Bland's rule guards against cycling; sizes here are tiny (hundreds of
// variables at most), so the dense tableau is the simplest correct choice.
#pragma once

#include <optional>
#include <vector>

namespace tlb::solver {

struct LinearProgram {
  // Row-major m x n constraint matrix.
  std::vector<std::vector<double>> a;
  std::vector<double> b;  // m right-hand sides
  std::vector<double> c;  // n objective coefficients
};

struct SimplexSolution {
  std::vector<double> x;
  double objective = 0.0;
};

/// Solves the LP; returns std::nullopt when unbounded. Infeasibility cannot
/// arise for b >= 0 (the origin is feasible); callers must ensure b >= 0,
/// which every formulation in this repo satisfies by construction.
std::optional<SimplexSolution> solve_lp(const LinearProgram& lp);

}  // namespace tlb::solver
