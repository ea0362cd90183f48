"""Altering-distance triples (psi, theta, phi) and contraction diagnostics.

The contraction inequality being checked is

    psi(d(F(x), F(z))) <= theta(d_k(x, z)) - phi(d_k(x, z))

for ordered pairs x <=_k z, with psi an altering distance function,
theta(0) = phi(0) = 0 and psi(x) - theta(x) + phi(x) > 0 for x > 0.

Semi-continuity of theta/phi is not numerically decidable; triples carry
declared flags and the solver trusts them (built-ins declare truthfully).
"""

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from .engine import IterationReport, ProductOperator, _images

__all__ = [
    "DeclaredProperties",
    "ContractionTriple",
    "ContractionSampleReport",
    "UnsupportedDiagnosticError",
    "builtin_log_triple",
    "verify_contraction_sampled",
    "gain_bound_sequence",
]

log = logging.getLogger(__name__)

ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class DeclaredProperties:
    psi_altering: bool = False
    theta_usc: bool = False
    phi_lsc: bool = False
    zero_at_zero: bool = False


@dataclass(frozen=True)
class ContractionTriple:
    psi: ScalarFn
    theta: ScalarFn
    phi: ScalarFn
    declared: DeclaredProperties = field(default_factory=DeclaredProperties)

    def gap(self, x: float) -> float:
        """psi(x) - theta(x) + phi(x); must be positive for x > 0."""
        return self.psi(x) - self.theta(x) + self.phi(x)

    def warn_if_undeclared(self):
        d = self.declared
        if not (d.psi_altering and d.theta_usc and d.phi_lsc and d.zero_at_zero):
            log.warning(
                "contraction triple has unverified analytic declarations: %s", d
            )


def builtin_log_triple() -> ContractionTriple:
    """psi(x) = x, theta(x) = log(1+x), phi(x) = 0.

    gap(x) = x - log(1+x) > 0 for all x > 0, so the triple is admissible.
    """
    return ContractionTriple(
        psi=lambda x: x,
        theta=lambda x: math.log1p(x),
        phi=lambda x: 0.0,
        declared=DeclaredProperties(True, True, True, True),
    )


@dataclass(frozen=True)
class ContractionSampleReport:
    slacks: Tuple[float, ...]          # theta(dk) - phi(dk) - psi(d(Fx, Fz)) per pair
    rejected_pairs: Tuple[int, ...]    # indices of pairs failing the order precondition
    tol_slack: float

    @property
    def min_slack(self) -> float:
        return min(self.slacks) if self.slacks else math.inf

    @property
    def passed(self) -> bool:
        return not self.rejected_pairs and all(s >= -self.tol_slack for s in self.slacks)


def verify_contraction_sampled(
    F,
    pairs: Sequence[Tuple[Sequence, Sequence]],
    triple: ContractionTriple,
    dist: Callable[[object, object], float],
    dist_k: Callable[[Sequence, Sequence], float],
    ordered: Callable[[Sequence, Sequence], bool],
    tol_slack: float = 1e-12,
) -> ContractionSampleReport:
    """Check the contraction inequality on sampled ordered pairs.

    ``F`` is an ``engine.ProductOperator`` or a callable taking one
    argument tuple, ``F(x)``.  Pairs failing the order precondition are
    rejected before any operator evaluation and reported separately.  The
    accepted pairs are then evaluated in one batch, prepared for them and
    dropped (``engine._images``), whose elements are their tuples laid end
    to end, x then z, which an ``engine.OperatorEvaluationError``'s
    ``component`` indexes.  Every tuple must have the operator's k
    components, or, for a plain callable, as many as the first pair's x;
    any other raises ValueError before any evaluation, as in
    ``engine.iterate_step``.
    """
    accepted: List[Tuple[Sequence, Sequence]] = []
    dks: List[float] = []
    rejected: List[int] = []
    k = F.k if isinstance(F, ProductOperator) else None
    for idx, (x, z) in enumerate(pairs):
        k = len(x) if k is None else k
        if not len(x) == len(z) == k:
            raise ValueError("dimension mismatch between operator, tuple and point")
        if not ordered(x, z):
            rejected.append(idx)
            continue
        accepted.append((x, z))
        dks.append(dist_k(x, z))
    slacks: List[float] = []
    if accepted:
        op = F if isinstance(F, ProductOperator) else ProductOperator(k, lambda *x: F(x))
        elements = [c for x, z in accepted for c in (*x, *z)]
        rows = [tuple(range(r * k + 1, r * k + k + 1)) for r in range(2 * len(accepted))]
        images = _images(op, rows, elements)
        for i, dk in enumerate(dks):
            lhs = triple.psi(dist(images[2 * i], images[2 * i + 1]))
            slacks.append(triple.theta(dk) - triple.phi(dk) - lhs)
    return ContractionSampleReport(tuple(slacks), tuple(rejected), tol_slack)


class UnsupportedDiagnosticError(RuntimeError):
    """The requested diagnostic needs an inverse of psi that is not available."""


def _psi_is_identity(triple: ContractionTriple) -> bool:
    probes = (0.0, 1e-9, 0.37, 1.0, 42.5, 1e4)
    return all(triple.psi(x) == x for x in probes)


def gain_bound_sequence(d0: float, n: int, triple: ContractionTriple) -> List[float]:
    """A-priori majorant of step displacements: d_{j+1} = theta(d_j) - phi(d_j).

    Only valid when psi is the identity (the recurrence otherwise needs
    psi^{-1}, which is not provided in general).
    """
    if not d0 >= 0:  # NaN too
        raise ValueError(f"d0 must be nonnegative, got {d0}")
    if not _psi_is_identity(triple):
        raise UnsupportedDiagnosticError(
            "gain bound requires psi to be the identity"
        )
    seq = [float(d0)]
    for _ in range(n):
        seq.append(max(0.0, triple.theta(seq[-1]) - triple.phi(seq[-1])))
    return seq


def majorant_for(report: IterationReport, triple: ContractionTriple) -> List[float]:
    """Gain-bound sequence seeded by the first recorded displacement."""
    return gain_bound_sequence(report.step_history[0], len(report.step_history) - 1, triple)
