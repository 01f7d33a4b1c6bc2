"""The three workloads: what each operation calls and how it is checked.

A workload's ``setup`` builds everything held across operations and returns
the operations of one pass.  ``run`` is the timed call into schemeres;
``check`` runs outside the timed region and returns a list of problems,
empty when the output agrees with the references in ``checks``.  References
are computed once per operation, on its first check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import schemeres as sr
from schemeres import cli

import checks as ref


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _reference(family: str, size, class_names) -> ref.Expected:
    """Reference table for a preset with unit conductance on class 1."""
    if family == "cycle":
        return ref.cycle_expected(size)
    if family == "hypercube":
        return ref.biggs_expected(*ref.hypercube_array(size))
    if family == "triangular":
        return ref.biggs_expected(*ref.triangular_array(size))
    if family in ("square", "hexagonal"):
        neighbours = (ref.SQUARE_NEIGHBOURS if family == "square"
                      else ref.TRIANGULAR_NEIGHBOURS)
        return ref.torus_expected(size, neighbours,
                                  [ref.parse_vector(x) for x in class_names[1:]])
    if family == "z5z5":
        return ref.z5z5_expected(class_names)
    return ref.s4_expected(class_names)


def _preset(family: str, size):
    """make_preset_scheme keywords: cycles, hypercubes and triangular schemes
    take n; square and hexagonal lattices take m; the rest take nothing."""
    if family in ("square", "hexagonal"):
        return {"m": size}
    return {"n": size}


def _label(family, size) -> str:
    return family if size is None else f"{family}-{size}"


# --------------------------------------------------------------------------
# resist-pipeline: one in-process `schemeres resist` per operation
# --------------------------------------------------------------------------

RESIST_LADDER = (
    ("s4", None), ("s4-refined-a", None), ("s4-refined-b", None), ("z5z5", None),
    ("cycle", 24), ("cycle", 64),
    ("hypercube", 6), ("hypercube", 7), ("hypercube", 8),
    ("triangular", 12), ("triangular", 24),
    ("square", 9), ("square", 12),
    ("hexagonal", 9), ("hexagonal", 12),
)
#: the `schemeres resist` defaults
RESIST_METHODS = ("oracle", "spectral")


def _resist_op(family, size) -> Op:
    label = _label(family, size)
    kwargs = _preset(family, size)

    def run():
        scheme = cli.make_preset_scheme(family, **kwargs)
        report = cli.run_resist(scheme, sr.unit_class_one(scheme), list(RESIST_METHODS),
                                tol=cli.DEFAULT_AGREEMENT_TOL, preset=family)
        return scheme.class_names, report

    @functools.cache
    def expected(class_names):
        return _reference(family, size, class_names)

    def check(result):
        class_names, report = result
        problems = [f"{label}: program check {c['name']} failed"
                    for c in report.checks if not c["pass"]]
        methods = tuple(t.method for t in report.tables)
        if methods != RESIST_METHODS:
            problems.append(f"{label}: tables {methods}, expected {RESIST_METHODS}")
        for table in report.tables:
            problems += ref.check_table(table.values, expected(class_names),
                                        f"{label} [{table.method}]")
        return problems

    return Op(label, run, check)


def setup_resist_pipeline(seed: int) -> list:
    return [_resist_op(family, size) for family, size in RESIST_LADDER]


# --------------------------------------------------------------------------
# exact-drg: exact engines on distance-regular networks built in set-up
# --------------------------------------------------------------------------

POLYNOMIAL_LADDER = (
    ("cycle", 16), ("cycle", 32), ("cycle", 48), ("cycle", 64),
    ("hypercube", 3), ("hypercube", 4), ("hypercube", 5),
    ("hypercube", 6), ("hypercube", 7), ("hypercube", 8),
    ("triangular", 5), ("triangular", 8), ("triangular", 12),
    ("triangular", 16), ("triangular", 20), ("triangular", 24),
)
#: drg_closed_table covers diameters up to 5
CLOSED_LADDER = (
    ("cycle", 8), ("cycle", 10),
    ("hypercube", 3), ("hypercube", 4), ("hypercube", 5),
    ("triangular", 5), ("triangular", 12), ("triangular", 20), ("triangular", 24),
)


def _exact_check(label, family, size):
    expected = functools.cache(lambda: _reference(family, size, None))

    def check(table):
        if not table.exact or not all(isinstance(v, Fraction) for v in table.values):
            return [f"{label}: table is not exact"]
        return ref.check_table(table.values, expected(), label)

    return check


def setup_exact_drg(seed: int) -> list:
    schemes = {key: getattr(sr, f"build_{key[0]}")(key[1])
               for key in dict.fromkeys(POLYNOMIAL_LADDER + CLOSED_LADDER)}
    arrays = {key: sr.check_distance_regular(schemes[key]) for key in CLOSED_LADDER}
    ops = []
    for family, size in POLYNOMIAL_LADDER:
        label = f"polynomial {_label(family, size)}"
        scheme = schemes[(family, size)]
        ops.append(Op(label, functools.partial(sr.resistance_polynomial, scheme),
                      _exact_check(label, family, size)))
    for family, size in CLOSED_LADDER:
        label = f"closed {_label(family, size)}"
        run = functools.partial(sr.drg_closed_table, arrays[(family, size)],
                                schemes[(family, size)].n)
        ops.append(Op(label, run, _exact_check(label, family, size)))
    return ops


# --------------------------------------------------------------------------
# query-mix: conductance queries on held schemes, plus quadratures
# --------------------------------------------------------------------------

QUERY_SCHEMES = (
    ("s4", None), ("s4-refined-a", None), ("s4-refined-b", None), ("z5z5", None),
    ("cycle", 32), ("hypercube", 6), ("hypercube", 7),
    ("triangular", 10), ("triangular", 16), ("square", 10), ("hexagonal", 9),
)
QUERIES_PER_SCHEME = 7
LINE_QUERIES = 2
MAX_LINE_SEPARATION = 40
#: fixed inputs that fail today: unit class-1 conductance scaled by t
SCALED_QUERIES = (("s4", Fraction(1, 10**7)), ("z5z5", Fraction(1, 10**9)))


def _connected(classmap: np.ndarray, support) -> bool:
    adj = np.isin(classmap, list(support))
    seen = np.zeros(len(classmap), dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        reach = adj[frontier].any(axis=0) & ~seen
        seen |= reach
        frontier = list(np.flatnonzero(reach))
    return bool(seen.all())


def _random_conductances(rng, classmap, d) -> tuple:
    """Rational conductances p/q (1 <= p, q <= 9) on a random connected support."""
    while True:
        values = tuple(
            Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            if rng.random() < 0.5 else Fraction(0) for _ in range(d))
        support = [l for l, v in enumerate(values, start=1) if v]
        if support and _connected(classmap, support):
            return values


def _query_op(label, scheme, spectral, conductances, expected) -> Op:
    def run():
        oracle = sr.resistance_oracle(scheme, conductances)
        spec = sr.resistance_spectral(scheme, spectral, conductances)
        return (oracle, spec, sr.foster_sum(scheme, conductances, oracle),
                sr.foster_sum(scheme, conductances, spec))

    def check(result):
        oracle, spec, foster_oracle, foster_spec = result
        problems = []
        for table in (oracle, spec):
            problems += ref.check_table(table.values, expected(), f"{label} [{table.method}]")
        if not (foster_oracle.passed and foster_spec.passed):
            problems.append(f"{label}: program sum rule failed")
        return problems

    return Op(label, run, check)


def setup_query_mix(seed: int) -> list:
    rng = np.random.default_rng(seed)
    held = {}
    for family, size in QUERY_SCHEMES:
        scheme = cli.make_preset_scheme(family, **_preset(family, size))
        held[_label(family, size)] = (scheme, sr.spectral_data(scheme))

    ops = []
    for name, (scheme, spectral) in held.items():
        for q in range(QUERIES_PER_SCHEME):
            cond = _random_conductances(rng, scheme.classmap, scheme.d)
            expected = functools.cache(functools.partial(
                ref.classmap_expected, scheme.classmap, cond))
            ops.append(_query_op(f"query {name} #{q}", scheme, spectral, cond, expected))

    for family, t in SCALED_QUERIES:
        scheme, spectral = held[family]
        unit = (Fraction(1),) + (Fraction(0),) * (scheme.d - 1)
        cond = tuple(t * v for v in unit)
        expected = functools.cache(lambda s=scheme, u=unit, t=t: ref.scaled(
            ref.classmap_expected(s.classmap, u), t))
        ops.append(_query_op(f"scaled {family} x{float(t):g}", scheme, spectral,
                             cond, expected))

    for kind, l1, l2 in ref.LATTICE_VALUES:
        run = functools.partial(sr.infinite_lattice_resistance, kind, l1, l2,
                                tol=ref.LATTICE_TOL)
        check = functools.partial(ref.check_lattice, kind, l1, l2)
        ops.append(Op(f"infinite {kind} ({l1},{l2})", run, check))
    for q in range(LINE_QUERIES):
        l = int(rng.integers(1, MAX_LINE_SEPARATION + 1))
        ops.append(Op(f"infinite line #{q} ({l})", functools.partial(sr.infinite_line_resistance, l),
                      functools.partial(ref.check_line, l)))
    return ops


SETUPS = {
    "resist-pipeline": setup_resist_pipeline,
    "exact-drg": setup_exact_drg,
    "query-mix": setup_query_mix,
}
