"""Bundled reference resistance values for the preset networks.

These are externally documented per-class values shipped for
cross-validation.  ``compare_reference`` marks each entry CONFIRMED or
UNCONFIRMED against a computed table; a handful of documented entries are
refuted by all engines at once (they violate the resistance sum rule or the
series bound), and the comparison reports exactly that instead of forcing
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .resistance import ResistanceTable

REFERENCE_TABLES = {
    "s4": {
        1: Fraction(23, 72),
        2: Fraction(35, 96),
        3: Fraction(3, 8),
        4: Fraction(145, 36),
    },
    "s4-refined-a": {
        1: Fraction(23, 36),
        2: Fraction(33, 36),
        3: Fraction(89, 90),
        4: Fraction(187, 180),
        5: Fraction(21, 20),
        6: Fraction(16, 15),
    },
    "z5z5": {
        1: Fraction(24, 75),
        2: Fraction(112, 275),
        3: Fraction(327, 825),
        4: Fraction(2942, 275),
    },
}


def triangular_reference(n: int) -> dict:
    """Documented closed fractions for the triangular scheme on n points."""
    nn = n * (n - 1)
    return {
        1: Fraction(nn - 2, nn * (n - 2)),
        2: Fraction(nn + 6, nn * (n - 3)),
    }


@dataclass(frozen=True)
class ReferenceStatus:
    """One documented value versus the computed one."""

    class_index: int
    documented: Fraction
    computed: object
    status: str  # CONFIRMED | UNCONFIRMED


def compare_reference(documented: dict, table: ResistanceTable,
                      tol: float = 1e-9) -> list:
    """CONFIRMED/UNCONFIRMED status per documented class value."""
    out = []
    for class_index in sorted(documented):
        doc = documented[class_index]
        got = table.value(class_index)
        if table.exact:
            ok = got == doc
        else:
            ok = abs(float(got) - float(doc)) <= tol
        out.append(ReferenceStatus(class_index=class_index, documented=doc,
                                   computed=got,
                                   status="CONFIRMED" if ok else "UNCONFIRMED"))
    return out
