"""Named functionals on metric graphs, each a minimum of linear forms.

A functional carries a scalar evaluator (the oracle for single metric
graphs) and its linear forms per graph type, from which every batch path
is derived: ``form_minimum`` in float64 (the default kernel) and
``integer_minimum`` exactly over integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import Callable, Optional

from . import invariants
from ._lazy import np
from .graphs import TrivalentGraph, simple_cycles


@dataclass(frozen=True)
class Functional:
    name: str
    scalar: Optional[Callable]
    forms_for: Callable
    # kernel(graph, rows) on float length rows; a field, so callers can wrap it
    kernel: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kernel is None:
            object.__setattr__(self, "kernel", partial(form_minimum, self.forms_for))


def integer_forms(forms, n_edges: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, d) with forms = M / d: each form's coefficients as Python ints
    over the least common denominator d of all of them, one row per form;
    ValueError unless there are forms, each of ``n_edges`` coefficients."""
    forms = [[Fraction(c) for c in form] for form in forms]
    if not forms:
        raise ValueError("need at least one linear form")
    if any(len(form) != n_edges for form in forms):
        raise ValueError("forms must have one coefficient per edge")
    d = lcm(*(c.denominator for form in forms for c in form))
    return tuple(tuple(c.numerator * d // c.denominator for c in form) for form in forms), d


@lru_cache(maxsize=None)
def _graph_forms(forms_for: Callable, graph: TrivalentGraph):
    """``integer_forms`` of ``forms_for(graph)``, converted and checked once
    per pair for every path that scores a Functional."""
    return integer_forms(forms_for(graph), graph.num_edges)


@lru_cache(maxsize=None)
def _float_forms(forms_for: Callable, graph: TrivalentGraph) -> tuple[np.ndarray, float]:
    """(M - m, m) for the float matrix M of ``forms_for(graph)``, each entry
    c / d correctly rounded as float(Fraction(c, d)) is, and its least
    coefficient m; read-only, as every caller shares it."""
    rows, den = _graph_forms(forms_for, graph)
    mat = np.array([[c / den for c in row] for row in rows])
    low = float(mat.min())
    mat -= low
    mat.flags.writeable = False
    return mat, low


def form_minimum(forms_for: Callable, graph: TrivalentGraph,
                 rows: np.ndarray) -> np.ndarray:
    """min_j(L_j . x) over the forms of ``forms_for(graph)`` for each row x,
    a point of the volume-one simplex, as min_j((L_j - m) . x) + m, so a
    constant form (c, ..., c) gives exactly c."""
    mat, low = _float_forms(forms_for, graph)
    # reduce across the sample axis, contiguous for block-ordered chunks
    return (mat @ rows.T).min(axis=0) + low


def integer_matrix(rows, norm: int) -> np.ndarray:
    """M^T for the integer rows M of ``integer_forms``, int64 when
    max|M| * norm < 2^63 and Python ints otherwise, so the values M_j . x
    and their sums stay exact while the rows x summed have L1-norms adding
    up to at most ``norm``."""
    bound = max(abs(c) for row in rows for c in row) * norm
    return np.array(rows, dtype=np.int64 if bound < 2 ** 63 else object).T


def integer_minimum(mat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """min_j(M_j . counts[i]) per row i, for the matrix M^T of
    ``integer_matrix``, in its dtype.

    Each form is summed over the count columns it uses into one reused
    vector: a zero coefficient skips its column, 1 adds it, any other is
    multiplied in first.  The forms fold into a running minimum, so no
    (rows x forms) product is built.  Exact in int64 and object dtype on
    any layout, and fastest when each column of ``counts`` is contiguous."""
    cols = counts.astype(mat.dtype, copy=False).T
    best = np.empty(len(counts), dtype=mat.dtype)
    value, term = np.empty_like(best), np.empty_like(best)
    for j, form in enumerate(mat.T.tolist()):
        out = value if j else best
        used = [(c, col) for c, col in zip(form, cols) if c]
        if not used:
            out.fill(0)
        for i, (c, col) in enumerate(used):
            col = col if c == 1 else np.multiply(col, c, out=term)
            if i:
                out += col
            else:
                np.copyto(out, col)
        if j:
            np.minimum(best, value, out=best)
    return best


def cycle_forms(graph: TrivalentGraph) -> tuple[tuple[int, ...], ...]:
    """Incidence vectors of all simple cycles; the systole is their minimum."""
    cycles = map(frozenset, simple_cycles(graph))
    return tuple(tuple(int(e in cyc) for e in range(graph.num_edges)) for cyc in cycles)


def _bridge_forms(graph: TrivalentGraph):
    # on the volume-one simplex a constant c equals the linear form c * sum(x)
    return ((invariants.bridge_indicator(graph),) * graph.num_edges,)


def _unit_forms(graph: TrivalentGraph):
    edges = range(graph.num_edges)
    return tuple(tuple(int(j == i) for j in edges) for i in edges)


SYSTOLE = Functional(name="systole", scalar=invariants.systole, forms_for=cycle_forms)

BRIDGE = Functional(
    name="bridge",
    scalar=lambda mg: invariants.bridge_indicator(mg.graph),
    forms_for=_bridge_forms,
)

MINEDGE = Functional(name="minedge", scalar=invariants.min_edge_length,
                     forms_for=_unit_forms)

FUNCTIONALS = {f.name: f for f in (SYSTOLE, BRIDGE, MINEDGE)}


def get_functional(name: str) -> Functional:
    try:
        return FUNCTIONALS[name]
    except KeyError:
        raise KeyError(
            f"unknown functional {name!r}; available: {sorted(FUNCTIONALS)}"
        ) from None
