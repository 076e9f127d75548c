#include "simplex.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace tlb::solver {

namespace {
constexpr double kEps = 1e-9;
}

std::optional<SimplexSolution> solve_lp(const LinearProgram& lp) {
  const int m = static_cast<int>(lp.a.size());
  const int n = m > 0 ? static_cast<int>(lp.a[0].size())
                      : static_cast<int>(lp.c.size());
  assert(static_cast<int>(lp.b.size()) == m);
  assert(static_cast<int>(lp.c.size()) == n);
#ifndef NDEBUG
  for (double bi : lp.b) assert(bi >= -kEps && "solve_lp requires b >= 0");
#endif

  // Tableau: m rows of [A | I | b], objective row of [-c | 0 | 0].
  const int cols = n + m + 1;
  std::vector<std::vector<double>> t(
      static_cast<std::size_t>(m + 1),
      std::vector<double>(static_cast<std::size_t>(cols), 0.0));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) t[i][static_cast<std::size_t>(j)] = lp.a[i][static_cast<std::size_t>(j)];
    t[i][static_cast<std::size_t>(n + i)] = 1.0;
    t[i][static_cast<std::size_t>(cols - 1)] = lp.b[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < n; ++j) t[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] = -lp.c[static_cast<std::size_t>(j)];

  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) basis[static_cast<std::size_t>(i)] = n + i;

  while (true) {
    // Bland's rule: entering variable = smallest index with negative
    // reduced cost.
    int pivot_col = -1;
    for (int j = 0; j < n + m; ++j) {
      if (t[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] < -kEps) {
        pivot_col = j;
        break;
      }
    }
    if (pivot_col < 0) break;  // optimal

    // Ratio test; Bland tie-break on smallest basis index.
    int pivot_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m; ++i) {
      const double aij = t[static_cast<std::size_t>(i)][static_cast<std::size_t>(pivot_col)];
      if (aij > kEps) {
        const double ratio = t[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols - 1)] / aij;
        if (ratio < best_ratio - kEps ||
            (std::abs(ratio - best_ratio) <= kEps && pivot_row >= 0 &&
             basis[static_cast<std::size_t>(i)] <
                 basis[static_cast<std::size_t>(pivot_row)])) {
          best_ratio = ratio;
          pivot_row = i;
        }
      }
    }
    if (pivot_row < 0) return std::nullopt;  // unbounded

    // Pivot.
    const double pivot = t[static_cast<std::size_t>(pivot_row)][static_cast<std::size_t>(pivot_col)];
    for (double& v : t[static_cast<std::size_t>(pivot_row)]) v /= pivot;
    for (int i = 0; i <= m; ++i) {
      if (i == pivot_row) continue;
      const double factor = t[static_cast<std::size_t>(i)][static_cast<std::size_t>(pivot_col)];
      if (std::abs(factor) <= kEps) continue;
      for (int j = 0; j < cols; ++j) {
        t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -=
            factor * t[static_cast<std::size_t>(pivot_row)][static_cast<std::size_t>(j)];
      }
    }
    basis[static_cast<std::size_t>(pivot_row)] = pivot_col;
  }

  SimplexSolution sol;
  sol.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<std::size_t>(i)] < n) {
      sol.x[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] =
          t[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols - 1)];
    }
  }
  sol.objective = t[static_cast<std::size_t>(m)][static_cast<std::size_t>(cols - 1)];
  return sol;
}

}  // namespace tlb::solver
