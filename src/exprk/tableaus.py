"""Tableaus for explicit exponential Runge-Kutta methods.

A coefficient a_ij or b_i is a linear combination of phi functions at
scaled arguments: sum over terms of weight * phi_order(-scale * tau * A).
Each term carries its own scale because the built-in third-order scheme
mixes arguments -tau*A/2 and -tau*A inside a single coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Tuple

import numpy as np

from .errors import ContractError, ParameterError
from .matfuncs import MAX_PHI_ORDER, phi_matrices

# The claims {condition: form} a scheme of stiff order p must satisfy;
# condition 5 only needs to hold weakly for stiff order three.
ORDER_CLAIMS = {
    1: {1: "strong"},
    2: {1: "strong", 2: "strong", 3: "strong"},
    3: {1: "strong", 2: "strong", 3: "strong", 4: "strong", 5: "weak"},
}


@dataclass(frozen=True)
class PhiTerm:
    scale: float   # node multiplier: argument is scale * Z with Z = -tau*A
    order: int     # phi index k
    weight: float


@dataclass(frozen=True)
class PhiCombo:
    terms: Tuple[PhiTerm, ...]

    @property
    def keys(self):
        """The (order, scale) pairs of the phi_order(scale Z) this combo reads."""
        return {(t.order, t.scale) for t in self.terms}

    def eval_matrix(self, Z):
        return self.combine(phi_matrices(Z, self.keys), np.zeros((len(Z), len(Z))))

    def combine(self, phi, zero):
        """The combo from a table {(order, scale): phi_order(scale Z)}; zero has its shape."""
        return sum((t.weight * phi[t.order, t.scale] for t in self.terms), zero)

    def at_zero(self) -> float:
        """Classical (A = 0) weight: phi_k(0) = 1/k!."""
        return sum(t.weight / math.factorial(t.order) for t in self.terms)


def _combo(*terms) -> PhiCombo:
    return PhiCombo(terms=tuple(PhiTerm(*t) for t in terms))


@dataclass(frozen=True)
class Tableau:
    """Explicit exponential Runge-Kutta tableau.

    a maps (i, j) with 1 <= j < i <= s to the stage coefficient combo;
    claims records which stiff order conditions the scheme is built to
    satisfy and in which form ('strong' or 'weak').
    """

    name: str
    c: Tuple[float, ...]
    a: Mapping[Tuple[int, int], PhiCombo]
    b: Tuple[PhiCombo, ...]
    claims: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        s = len(self.c)
        if s < 1 or self.c[0] != 0.0:
            raise ContractError("first node must be 0")
        for ci in self.c:
            if not (0.0 <= ci <= 1.0):
                raise ContractError(f"node {ci} outside [0, 1]")
        if len(self.b) != s:
            raise ContractError("b must have one combo per stage")
        for (i, j) in self.a:
            if not (1 <= j < i <= s):
                raise ContractError(f"a[{i}][{j}] violates explicit lower-triangular structure")
        for combo in list(self.a.values()) + list(self.b):
            for t in combo.terms:
                if not (0.0 <= t.scale <= 1.0):
                    raise ContractError(f"phi argument scale {t.scale} outside [0, 1]")
                if t.order not in range(MAX_PHI_ORDER + 1):
                    raise ContractError(f"phi order {t.order} is not one of 0..{MAX_PHI_ORDER}")
                if not math.isfinite(t.weight):
                    raise ContractError("non-finite coefficient weight")

    @property
    def s(self) -> int:
        return len(self.c)

    @property
    def phi_keys(self):
        """Every (k, scale) of the phi_k(scale Z) one step reads: phi_0 at 1 and
        at each node after the first (I at a 0), and every a and b combo's keys."""
        keys = {(0, 1.0)} | {(0, c) for c in self.c[1:]}
        return keys.union(*(combo.keys for combo in (*self.a.values(), *self.b)))


def exponential_euler() -> Tableau:
    """One-stage scheme: u+ = e^{-tau A} u + tau phi_1(-tau A) B u."""
    return Tableau(
        name="euler",
        c=(0.0,),
        a={},
        b=(_combo((1.0, 1, 1.0)),),
        claims=ORDER_CLAIMS[1],
    )


def second_order(c: float) -> Tableau:
    """One-parameter family of two-stage second-order schemes.

    b_2 = (1/c) phi_2, b_1 = phi_1 - (1/c) phi_2, a_21 = c phi_1(-c tau A).
    """
    if not 0.0 < c <= 1.0:
        raise ParameterError(f"node c must be in (0, 1], got {c}")
    return Tableau(
        name=f"rk2(c={c:g})",
        c=(0.0, c),
        a={(2, 1): _combo((c, 1, c))},
        b=(
            _combo((1.0, 1, 1.0), (1.0, 2, -1.0 / c)),
            _combo((1.0, 2, 1.0 / c)),
        ),
        claims=ORDER_CLAIMS[2],
    )


def third_order() -> Tableau:
    """Three-stage third-order scheme with nodes (0, 1/2, 1).

    Satisfies stiff order conditions 1-4 in strong form and condition 5
    weakly (with the b coefficients evaluated at the zero matrix).
    """
    half, one = 0.5, 1.0
    return Tableau(
        name="rk3paper",
        c=(0.0, 0.5, 1.0),
        a={
            (2, 1): _combo((half, 1, 0.5)),
            (3, 1): _combo((one, 1, 1.0), (half, 2, -2.0), (one, 2, -2.0)),
            (3, 2): _combo((half, 2, 2.0), (one, 2, 2.0)),
        },
        b=(
            _combo((one, 1, 1.0), (one, 2, -3.0), (one, 3, 4.0)),
            _combo((one, 2, 4.0), (one, 3, -8.0)),
            _combo((one, 2, -1.0), (one, 3, 4.0)),
        ),
        claims=ORDER_CLAIMS[3],
    )


# The built-in schemes by name, each a factory of the rk2 family's free node c.
BUILTIN_SCHEMES = {"euler": lambda c: exponential_euler(), "rk2": second_order,
                   "rk3paper": lambda c: third_order()}


def resolve_scheme(name: str, c: float) -> Tableau:
    if name not in BUILTIN_SCHEMES:
        raise ParameterError(f"unknown scheme {name!r}; built-ins are {', '.join(BUILTIN_SCHEMES)}")
    return BUILTIN_SCHEMES[name](c)
