"""The benchmark's correctness checks accept the program's output and reject
the same output perturbed by a relative 1e-6 or with two classes swapped.

    python3 -m pytest bench/test_checks.py
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import schemeres as sr  # noqa: E402

import checks as ref  # noqa: E402
import workloads  # noqa: E402


def perturbed(values, i):
    out = list(values)
    bump = Fraction(1, 10**6) if isinstance(out[i], Fraction) else 1e-6
    out[i] = out[i] * (1 + bump)
    return tuple(out)


def swapped(values):
    """Classes 1 and the first class whose value differs from it, swapped."""
    out = list(values)
    j = next(j for j in range(1, len(out))
             if abs(float(out[j]) - float(out[0])) > 1e-3 * abs(float(out[0])))
    out[0], out[j] = out[j], out[0]
    return tuple(out)


def _oracle(scheme, conductances=None):
    return sr.resistance_oracle(scheme, conductances or sr.unit_class_one(scheme)).values


def _s4(partition):
    scheme = sr.build_s4_scheme(partition)
    return _oracle(scheme), ref.s4_expected(scheme.class_names)


def _torus(builder, m, neighbours):
    scheme = builder(m)
    vectors = [ref.parse_vector(x) for x in scheme.class_names[1:]]
    return _oracle(scheme), ref.torus_expected(m, neighbours, vectors)


def _query(scheme, conductances):
    data = sr.spectral_data(scheme)
    table = sr.resistance_spectral(scheme, data, conductances)
    return table.values, ref.classmap_expected(scheme.classmap, conductances)


def _scaled(scheme, t):
    unit = sr.unit_class_one(scheme).values
    table = sr.resistance_spectral(scheme, sr.spectral_data(scheme), [t * c for c in unit])
    return table.values, ref.scaled(ref.classmap_expected(scheme.classmap, unit), t)


CASES = {
    "cycle exact": lambda: (sr.resistance_polynomial(sr.build_cycle(12)).values,
                            ref.cycle_expected(12)),
    "cycle float": lambda: (_oracle(sr.build_cycle(12)), ref.cycle_expected(12)),
    "hypercube biggs": lambda: (sr.resistance_polynomial(sr.build_hypercube(5)).values,
                                ref.biggs_expected(*ref.hypercube_array(5))),
    "triangular biggs": lambda: (
        sr.drg_closed_table(sr.check_distance_regular(sr.build_triangular(7)), 21).values,
        ref.biggs_expected(*ref.triangular_array(7))),
    "square torus": lambda: _torus(sr.build_square_lattice, 6, ref.SQUARE_NEIGHBOURS),
    "hexagonal torus": lambda: _torus(sr.build_hexagonal_lattice, 6,
                                      ref.TRIANGULAR_NEIGHBOURS),
    "s4": lambda: _s4("conjugacy"),
    "s4-refined-a": lambda: _s4("stabilizer"),
    "s4-refined-b": lambda: _s4("stabilizer-4c"),
    "z5z5": lambda: (_oracle(sr.build_orbit_scheme_z5z5()),
                     ref.z5z5_expected(sr.build_orbit_scheme_z5z5().class_names)),
    "query": lambda: _query(sr.build_orbit_scheme_z5z5(),
                            (Fraction(1, 2), Fraction(3), Fraction(0), Fraction(2, 7))),
    "scaled query": lambda: _scaled(sr.build_s4_scheme("conjugacy"), Fraction(1, 10**7)),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    return request.param, *CASES[request.param]()


def test_program_output_passes(case):
    name, got, expected = case
    assert ref.check_table(got, expected, name) == []


def test_each_perturbed_class_is_rejected(case):
    name, got, expected = case
    for i in range(len(got)):
        assert ref.check_table(perturbed(got, i), expected, name), f"class {i + 1}"


def test_wrong_class_order_is_rejected(case):
    name, got, expected = case
    assert ref.check_table(swapped(got), expected, name)


def test_sum_rule_alone_rejects_both(case):
    """With the reference values made equal to the bad table, only the sum
    rule is left to catch it; class 1 carries conductance in every case."""
    name, got, expected = case
    for bad in (perturbed(got, 0), swapped(got)):
        blind = dataclasses.replace(expected, values=bad)
        problems = ref.check_table(bad, blind, name)
        assert problems and all("sum rule" in p for p in problems)


def test_biggs_sum_reproduces_the_cycle_formula():
    for k in range(2, 12):
        b = (2,) + (1,) * (k - 1)
        c = (1,) * (k - 1) + (2,)
        assert ref.biggs_expected(b, c).values == ref.cycle_expected(2 * k).values


@pytest.mark.parametrize("point", sorted(ref.LATTICE_VALUES))
def test_lattice_check(point):
    kind, l1, l2 = point
    value = sr.infinite_lattice_resistance(kind, l1, l2, tol=ref.LATTICE_TOL)
    assert ref.check_lattice(kind, l1, l2, value) == []
    assert ref.check_lattice(kind, l1, l2, value * (1 + 1e-6))
    other = next(p for p in sorted(ref.LATTICE_VALUES) if p[0] == kind and p != point)
    assert ref.check_lattice(*other, value)


def test_line_check():
    for l in (1, 7, 40):
        value = sr.infinite_line_resistance(l)
        assert ref.check_line(l, value) == []
        assert ref.check_line(l, value * (1 + 1e-6))
        assert ref.check_line(l + 1, value)


def _first(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def test_workload_checks_reject_tampered_tables():
    """The checks the runs apply, fed the program's result and a bad copy."""
    op = _first(workloads.setup_resist_pipeline(0), "s4-refined-a")
    names, report = op.run()
    assert op.check((names, report)) == []
    oracle = report.tables[0]
    report.tables[0] = dataclasses.replace(oracle, values=swapped(oracle.values))
    assert op.check((names, report))

    op = _first(workloads.setup_exact_drg(0), "polynomial hypercube-4")
    table = op.run()
    assert op.check(table) == []
    assert op.check(dataclasses.replace(table, values=perturbed(table.values, 2)))
    floats = dataclasses.replace(table, values=table.as_floats(), exact=False)
    assert op.check(floats)

    ops = workloads.setup_query_mix(0)
    op = _first(ops, "query hexagonal-9")
    oracle, spec, f1, f2 = op.run()
    assert op.check((oracle, spec, f1, f2)) == []
    bad = dataclasses.replace(spec, values=perturbed(spec.values, 1))
    assert op.check((oracle, bad, f1, f2))
    op = _first(ops, "scaled s4")
    with pytest.raises(AssertionError):  # the oracle's absolute spread tolerance
        op.run()
