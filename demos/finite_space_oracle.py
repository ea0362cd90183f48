"""Ground-truth playground: enumerate multidimensional fixed points on a
tiny finite ordered metric space, check the theorem's hypotheses
exhaustively, and confirm the iteration engine lands on the oracle's point.

Two operators are shown: one passing every hypothesis (so the theorem
certifies its unique fixed tuple) and one whose contraction check fails,
demonstrating that the checker never claims more than it verified.
"""

import numpy as np

from mixedfp import IterationConfig, ProductOperator, solve
from mixedfp.contraction import ContractionTriple, DeclaredProperties
from mixedfp.oracle import FiniteSpace, check_theorem_hypotheses, enumerate_fixed_points
from mixedfp.order import Partition, UpsilonTuple

# chain lo < mid < hi with |i - j| distances
idx = np.arange(3)
space = FiniteSpace(
    ("lo", "mid", "hi"),
    np.abs(idx[:, None] - idx[None, :]).astype(float),
    idx[:, None] <= idx[None, :],
)

partition = Partition(2, [1])
upsilon = UpsilonTuple(partition, [(1, 2), (2, 1)])
triple = ContractionTriple(lambda x: x, lambda x: 0.5 * x, lambda x: 0.0,
                           DeclaredProperties(True, True, True, True))


def show(name, F):
    print(f"\noperator: {name}")
    points = enumerate_fixed_points(space, F, upsilon)
    print("  fixed tuples by exhaustive enumeration:",
          [tuple(space.labels[i] for i in p) for p in points])
    rep = check_theorem_hypotheses(space, F, upsilon, triple)
    print(f"  contraction on all ordered pairs: {rep.contraction_ok}")
    print(f"  valid starting tuple exists:      {bool(rep.start_point)}")
    print(f"  mixed monotone:                   {rep.mixed_monotone_ok}")
    print(f"  pairwise product-order bounds:    {rep.upper_bounds_ok}")
    if rep.all_pass:
        sol = solve(
            ProductOperator(2, F), upsilon, rep.start_point,
            IterationConfig(tol_step=1e-9, tol_residual=1e-9, max_iters=50),
            triple, dist=space.d, leq=space.le,
        )
        print(f"  engine converged to {sol.fixed_point} in {sol.iterations} "
              f"sweeps; oracle agrees: {sol.fixed_point in rep.fixed_points}")
    else:
        print("  hypotheses incomplete; theorem conclusion not asserted")


# collapses everything to mid: a legitimate factor-0 contraction
show("constant mid", lambda a, b: 1)

# identity in the first argument: unit distances survive, so the factor-1/2
# contraction bound cannot hold
show("first projection", lambda a, b: a)
