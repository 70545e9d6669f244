"""Named functionals on metric graphs, each packaged three ways.

A functional carries a scalar evaluator (for single metric graphs), a
min-of-linear-forms descriptor per graph type (for exact integration), and
an optional vectorized kernel over batches of length rows (for Monte
Carlo).  A property test pins the kernel to the scalar route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

import numpy as np

from . import invariants
from .graphs import TrivalentGraph, bridges, simple_cycles


@dataclass(frozen=True)
class Functional:
    name: str
    scalar: Callable
    forms_for: Callable
    kernel: Optional[Callable] = None


def integer_forms(forms) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, d) with forms = M / d: each form's coefficients as Python ints
    over the least common denominator d of all of them, one row per form."""
    if not forms:
        raise ValueError("need at least one linear form")
    d = lcm(*(Fraction(c).denominator for form in forms for c in form))
    return tuple(tuple(int(c * d) for c in form) for form in forms), d


_cycle_matrices: dict[TrivalentGraph, np.ndarray] = {}


def cycle_forms(graph: TrivalentGraph) -> tuple[tuple[Fraction, ...], ...]:
    """Incidence vectors of all simple cycles; the systole is their minimum."""
    ncols = graph.num_edges
    forms = []
    for cyc in simple_cycles(graph):
        row = [Fraction(0)] * ncols
        for e in cyc:
            row[e] = Fraction(1)
        forms.append(tuple(row))
    return tuple(forms)


def _cycle_matrix(graph: TrivalentGraph) -> np.ndarray:
    mat = _cycle_matrices.get(graph)
    if mat is None:
        mat = np.array([[float(c) for c in f] for f in cycle_forms(graph)])
        _cycle_matrices[graph] = mat
    return mat


def _systole_kernel(graph: TrivalentGraph, rows: np.ndarray) -> np.ndarray:
    # reduce across the sample axis, contiguous for block-ordered chunks
    return (_cycle_matrix(graph) @ rows.T).min(axis=0)


def _bridge_constant(graph: TrivalentGraph) -> int:
    return 1 if bridges(graph) else 0


def _bridge_forms(graph: TrivalentGraph):
    c = Fraction(_bridge_constant(graph))
    # on the volume-one simplex a constant c equals the linear form c * sum(x)
    return ((c,) * graph.num_edges,)


def _unit_forms(graph: TrivalentGraph):
    n = graph.num_edges
    return tuple(
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        for i in range(n)
    )


SYSTOLE = Functional(
    name="systole",
    scalar=invariants.systole,
    forms_for=cycle_forms,
    kernel=_systole_kernel,
)

BRIDGE = Functional(
    name="bridge",
    scalar=lambda mg: _bridge_constant(mg.graph),
    forms_for=_bridge_forms,
    kernel=lambda graph, rows: np.full(len(rows), float(_bridge_constant(graph))),
)

MINEDGE = Functional(
    name="minedge",
    scalar=invariants.min_edge_length,
    forms_for=_unit_forms,
    kernel=lambda graph, rows: rows.min(axis=1),
)

FUNCTIONALS = {f.name: f for f in (SYSTOLE, BRIDGE, MINEDGE)}


def get_functional(name: str) -> Functional:
    try:
        return FUNCTIONALS[name]
    except KeyError:
        raise KeyError(
            f"unknown functional {name!r}; available: {sorted(FUNCTIONALS)}"
        ) from None
