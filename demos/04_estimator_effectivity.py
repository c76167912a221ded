"""Error estimation without the exact solution.

Evaluates the explicit-constant estimator next to the true max-in-time L2
error on the smooth case, prints the effectivity index kappa across a tau
ladder, and splits the estimator into its jump and consistency parts.  A
reliable estimator keeps kappa >= 1; a useful one keeps it bounded.
"""

import numpy as np

from waveslab import (
    TensorSpace,
    TimeGrid,
    compute_errors,
    effectivity,
    estimate,
    make_case,
    march,
    problem_data,
)

case = make_case("case1")
data = problem_data(case)
space = TensorSpace(5, 5, 2)

print(f"{'tau':>7s} {'error':>11s} {'eta':>11s} {'eta1':>11s} {'osc':>11s} {'kappa':>7s}")
for tau in (0.2, 0.1, 0.05, 0.025):
    sol = march(data, space, TimeGrid.uniform(1.0, round(1.0 / tau), 2))
    report = estimate(sol, data)
    errs = compute_errors(sol, case)
    kappa = effectivity(report, errs.Linf_L2)
    print(f"{tau:7.4f} {errs.Linf_L2:11.4e} {report.eta:11.4e}"
          f" {report.eta1:11.4e} {report.osc:11.4e} {kappa:7.2f}")

print("\nper-slab indicators localize where the error sits (localized mode):")
sol = march(data, space, TimeGrid.uniform(1.0, 5, 2))
local = estimate(sol, data, localized=True)
for n, val in enumerate(local.local_n):
    bar = "#" * int(60 * (val / local.local_n.max()))  # the largest bar is always full
    print(f"  slab {n}: {val:9.3e} {bar}")
print(f"  sum of indicators = {local.local_n.sum():.6e} = eta = {local.eta:.6e}")
print(f"  (slabs past the target m = {local.m} carry nothing by construction)")
