"""Command-line front end.

Thin shell over the library: build preset schemes to JSON, run any subset of
the resistance engines with automatic cross-checks, and evaluate the
infinite-lattice integrals.  Every number printed here comes from a library
call that the test suite exercises directly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .builders import (
    build_cycle,
    build_hexagonal_lattice,
    build_hypercube,
    build_orbit_scheme_z5z5,
    build_s4_scheme,
    build_square_lattice,
    build_triangular,
)
from .errors import (
    BadParameter,
    MethodPreconditionViolated,
    SchemeresError,
    UnknownBuilder,
)
from .lattice import finite_lattice_resistance_formula, infinite_lattice_resistance, \
    infinite_line_resistance
from .reference import REFERENCE_TABLES, compare_reference, triangular_reference
from .resistance import (
    ConductanceVector,
    ResistanceTable,
    drg_closed_table,
    foster_sum,
    require_unit_class_one,
    resistance_oracle,
    resistance_polynomial,
    resistance_spectral,
    unit_class_one,
)
from .scheme import (
    AssociationScheme,
    check_distance_regular,
    scheme_from_dict,
    scheme_to_dict,
    spectral_data,
)

DEFAULT_AGREEMENT_TOL = 1e-8

_PARAM_PRESETS = {
    "cycle": ("n", build_cycle),
    "hypercube": ("n", build_hypercube),
    "triangular": ("n", build_triangular),
    "square": ("m", build_square_lattice),
    "hexagonal": ("m", build_hexagonal_lattice),
}
_FIXED_PRESETS = {
    "s4": lambda: build_s4_scheme("conjugacy"),
    "s4-refined-a": lambda: build_s4_scheme("stabilizer"),
    "s4-refined-b": lambda: build_s4_scheme("stabilizer-4c"),
    "z5z5": build_orbit_scheme_z5z5,
}


def make_preset_scheme(name: str, n: Optional[int] = None,
                       m: Optional[int] = None) -> AssociationScheme:
    """Construct a scheme from a builder/preset name and its parameters."""
    if name in _FIXED_PRESETS:
        return _FIXED_PRESETS[name]()
    if name in _PARAM_PRESETS:
        flag, builder = _PARAM_PRESETS[name]
        value = n if flag == "n" else m
        if value is None:
            raise BadParameter(f"builder {name!r} needs --{flag}")
        return builder(value)
    raise UnknownBuilder(f"unknown builder {name!r}")


@dataclass
class RunReport:
    """Everything one `resist` invocation produced."""

    scheme_summary: dict
    tables: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    reference: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme_summary,
            "tables": [_table_json(t) for t in self.tables],
            "checks": self.checks,
            "reference": [
                {"class": r.class_index, "documented": str(r.documented),
                 "computed": str(r.computed), "status": r.status}
                for r in self.reference],
            "timings": self.timings,
        }


def _table_json(table: ResistanceTable) -> dict:
    values = []
    for l in range(1, table.d + 1):
        v = table.value(l)
        if table.exact:
            values.append({"class": l, "num": v.numerator, "den": v.denominator,
                           "float": float(v)})
        else:
            values.append({"class": l, "num": None, "den": None, "float": float(v)})
    return {"method": table.method, "values": values}


def table_csv_rows(scheme: AssociationScheme, table: ResistanceTable) -> list:
    rows = []
    for l in range(1, scheme.d + 1):
        v = table.value(l)
        if table.exact:
            rows.append([l, scheme.valencies[l], v.numerator, v.denominator,
                         float(v), table.method])
        else:
            rows.append([l, scheme.valencies[l], "", "", float(v), table.method])
    return rows


def _scheme_summary(scheme: AssociationScheme) -> dict:
    out = {
        "n": scheme.n,
        "d": scheme.d,
        "valencies": list(scheme.valencies),
        "class_names": list(scheme.class_names),
    }
    array = check_distance_regular(scheme)
    out["distance_regular"] = array is not None
    if array is not None:
        out["intersection_array"] = {"b": list(array.b), "c": list(array.c)}
    return out


def _parse_conductances(text: Optional[str],
                        scheme: AssociationScheme) -> ConductanceVector:
    if text is None:
        return unit_class_one(scheme)
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        return ConductanceVector.coerce([Fraction(p) for p in parts], scheme.d)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"invalid conductances {text!r}: {exc}") from exc


def _fmt_value(v, exact: bool) -> str:
    if exact:
        return f"{v.numerator}/{v.denominator} = {float(v):.12g}"
    return f"{float(v):.12g}"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_build(args) -> int:
    t0 = time.perf_counter()
    scheme = make_preset_scheme(args.builder, n=args.n, m=args.m)
    summary = _scheme_summary(scheme)
    elapsed = time.perf_counter() - t0

    out = Path(args.out) if args.out else Path(f"{args.builder}.scheme.json")
    try:
        out.write_text(json.dumps(scheme_to_dict(scheme)) + "\n")
    except OSError as exc:
        raise BadParameter(f"cannot write {out}: {exc.strerror or exc}") from exc
    print(f"scheme: N={summary['n']} d={summary['d']} "
          f"valencies={tuple(summary['valencies'])}")
    if summary["distance_regular"]:
        arr = summary["intersection_array"]
        print(f"distance-regular: yes  {{b: {arr['b']}; c: {arr['c']}}}")
    else:
        print("distance-regular: no")
    print(f"wrote {out}  ({elapsed:.3f}s)")
    return 0


def _load_scheme_argument(args) -> tuple:
    target = args.scheme
    path = Path(target)
    if path.is_file():  # a directory falls through to the preset names
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise BadParameter(f"cannot read {target}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # not JSON, or bytes that are not text
            raise BadParameter(f"{target} is not valid JSON: {exc}") from exc
        try:
            return scheme_from_dict(doc), None
        except (KeyError, TypeError, ValueError) as exc:
            raise BadParameter(f"{target} is not a scheme document: {exc}") from exc
    try:
        scheme = make_preset_scheme(target, n=args.n, m=args.m)
        return scheme, target
    except UnknownBuilder:
        raise BadParameter(
            f"{target!r} is neither a scheme file nor a preset name")


def run_resist(scheme: AssociationScheme, conductances: ConductanceVector,
               methods, tol: float, preset: Optional[str] = None) -> RunReport:
    """Compute the requested tables and the automatic cross-checks."""
    report = RunReport(scheme_summary=_scheme_summary(scheme))
    timings = report.timings

    spec = None
    if "spectral" in methods:
        t0 = time.perf_counter()
        spec = spectral_data(scheme)
        timings["spectral_data"] = time.perf_counter() - t0

    for method in methods:
        t0 = time.perf_counter()
        if method == "oracle":
            table = resistance_oracle(scheme, conductances)
        elif method == "spectral":
            table = resistance_spectral(scheme, spec, conductances)
        elif method == "polynomial":
            require_unit_class_one(scheme, conductances)
            table = resistance_polynomial(scheme)
        elif method == "closed":
            require_unit_class_one(scheme, conductances)
            array = check_distance_regular(scheme)
            if array is None:
                raise MethodPreconditionViolated(
                    "closed forms need a distance-regular scheme")
            table = drg_closed_table(array, scheme.n)
        else:
            raise BadParameter(f"unknown method {method!r}")
        timings[method] = time.perf_counter() - t0
        report.tables.append(table)

    t0 = time.perf_counter()
    for table in report.tables:
        fr = foster_sum(scheme, conductances, table)
        report.checks.append({"name": f"foster[{table.method}]",
                              "pass": fr.passed, "residual": fr.residual})
    if len(report.tables) >= 2:
        worst = 0.0
        for i in range(len(report.tables)):
            for j in range(i + 1, len(report.tables)):
                a = report.tables[i].as_floats()
                b = report.tables[j].as_floats()
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
        report.checks.append({"name": "method-agreement", "pass": worst <= tol,
                              "residual": worst})
    timings["checks"] = time.perf_counter() - t0

    documented = None
    if preset in REFERENCE_TABLES:
        documented = REFERENCE_TABLES[preset]
    elif preset == "triangular":
        base = round((1 + (1 + 8 * scheme.n) ** 0.5) / 2)  # N = base(base-1)/2
        documented = triangular_reference(base)
    if documented:
        best = next((t for t in report.tables if t.exact), report.tables[0])
        report.reference = compare_reference(documented, best)
    return report


def cmd_resist(args) -> int:
    scheme, preset = _load_scheme_argument(args)
    conductances = _parse_conductances(args.conductances, scheme)
    report = run_resist(scheme, conductances, args.method,
                        tol=args.tolerance, preset=preset)

    s = report.scheme_summary
    print(f"scheme: N={s['n']} d={s['d']} valencies={tuple(s['valencies'])}")
    print(f"conductances: {[str(v) for v in conductances.values]}")
    for table in report.tables:
        cells = ", ".join(f"R({l})={_fmt_value(table.value(l), table.exact)}"
                          for l in range(1, scheme.d + 1))
        print(f"[{table.method}] {cells}")
    for chk in report.checks:
        flag = "pass" if chk["pass"] else "FAIL"
        print(f"check {chk['name']}: {flag} (residual {chk['residual']:.3e})")
    for ref in report.reference:
        print(f"reference class {ref.class_index}: documented "
              f"{ref.documented} -> {ref.status}")

    if args.out:
        path = Path(args.out)
        try:
            if args.format == "csv":
                with path.open("w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["class", "kappa", "R_exact_num", "R_exact_den",
                                     "R_float", "method"])
                    for table in report.tables:
                        writer.writerows(table_csv_rows(scheme, table))
            else:
                path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
        except OSError as exc:
            raise BadParameter(f"cannot write {path}: {exc.strerror or exc}") from exc
        print(f"wrote {path}")
    return 0 if report.all_passed else 1


def cmd_infinite(args) -> int:
    tol = args.tolerance
    if len(args.l) != (1 if args.kind == "line" else 2):
        raise BadParameter("line takes one separation, e.g. --l 5; "
                           "square/hexagonal take two, e.g. --l 1 0")
    try:
        if args.kind == "line":
            value, err = infinite_line_resistance(args.l[0], tol=min(tol, 1e-9),
                                                  with_error=True)
        else:
            value, err = infinite_lattice_resistance(args.kind, *args.l, tol=tol,
                                                     with_error=True)
    except ValueError as exc:
        raise BadParameter(str(exc)) from exc
    if args.kind == "line":
        print(f"infinite line R({args.l[0]}) = {value:.12f} "
              f"(err<={err:.1e}, tol {tol:g})")
        return 0
    l1, l2 = args.l
    print(f"infinite {args.kind} R({l1},{l2}) = {value:.10f} "
          f"(err<={err:.1e}, tol {tol:g})")
    for m in (50, 100, 200):
        finite = finite_lattice_resistance_formula(m, l1, l2, kind=args.kind)
        print(f"  finite m={m}: {finite:.10f} (diff {abs(finite - value):.2e})")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemeres",
        description="Resistor networks on association schemes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a scheme and write JSON")
    p_build.add_argument("builder")
    p_build.add_argument("--n", type=int, default=None)
    p_build.add_argument("--m", type=int, default=None)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_res = sub.add_parser("resist", help="compute per-class resistances")
    p_res.add_argument("scheme", help="scheme JSON file or preset name")
    p_res.add_argument("--n", type=int, default=None)
    p_res.add_argument("--m", type=int, default=None)
    p_res.add_argument("--conductances", default=None,
                       help="comma list, rational or decimal literals")
    p_res.add_argument("--method", nargs="+", default=["oracle", "spectral"],
                       choices=["oracle", "spectral", "polynomial", "closed"])
    p_res.add_argument("--out", default=None)
    p_res.add_argument("--format", choices=["json", "csv"], default="json")
    p_res.add_argument("--tolerance", type=float, default=DEFAULT_AGREEMENT_TOL)
    p_res.set_defaults(func=cmd_resist)

    p_inf = sub.add_parser("infinite", help="infinite-lattice resistances")
    p_inf.add_argument("kind", choices=["line", "square", "hexagonal"])
    p_inf.add_argument("--l", type=int, nargs="+", required=True)
    p_inf.add_argument("--tolerance", type=float, default=1e-5)
    p_inf.set_defaults(func=cmd_infinite)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemeresError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
