"""Numerical stress test of the hypergeometric closed form for multiple sums.

For m copies, the sum weights the product of m table entries (all at the same
label) by (kappa^{j1+1} - kappa^{-j1-1}) lambda^{j2+j3}.  The candidate closed
form for the leading term assigns to index vectors i^(1), ..., i^(m) (one
(i12, i13, i23) per copy) the rational number

    (-1)^{sum i23} 4^{-sum i}
      * G(2*sum i + 2) / G(sum(i12 + i13 + 2 i23) + 2)
      * prod_a [ G(3/2) / G(i12^a + i13^a + i23^a + 3/2) ]
      * G(sum(i12 + i23) + 1) G(sum(i13 + i23) + 1) / prod_a G(i12+1)G(i13+1)G(i23+1)

(G = Gamma; the half-integer factors cancel to a rational through
G(z+1) = z G(z)).  The checker extracts the actual leading-pole coefficients
via the residue machinery and compares under two readings of the candidate's
monomials: literal (index vector = exponent vector) and exponent-doubled
(exponent vector = twice the index vector).  The output is evidence, never an
assertion: the comparison table records matches and mismatches per
coefficient, plus the kappa-profile used for normalization.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .expansion import ExpansionSet, unvalidated_message
from .klocal import KLocal
from .laurent import LaurentPoly3
from .poles import leading_pole_coefficient
from .series import exponents_upto

IndexVec = tuple[int, int, int]


def conjecture_coeff(vectors: list[IndexVec]) -> Fraction:
    """Exact value of the candidate coefficient for one tuple of index vectors."""
    if not vectors:
        raise ValueError("need at least one index vector")
    for v in vectors:
        if len(v) != 3 or min(v) < 0:
            raise ValueError(f"invalid index vector {v}")
    total = sum(sum(v) for v in vectors)
    sum_23 = sum(v[2] for v in vectors)
    sum_12_13_2x23 = sum(v[0] + v[1] + 2 * v[2] for v in vectors)
    sum_12_23 = sum(v[0] + v[2] for v in vectors)
    sum_13_23 = sum(v[1] + v[2] for v in vectors)

    value = Fraction((-1) ** sum_23, 4 ** total)
    value *= Fraction(math.factorial(2 * total + 1),
                      math.factorial(sum_12_13_2x23 + 1))
    for v in vectors:
        s = sum(v)
        # Gamma(3/2) / Gamma(s + 3/2) = 2^s / (2s+1)!! = 4^s s! / (2s+1)!
        value *= Fraction(4 ** s * math.factorial(s), math.factorial(2 * s + 1))
    value *= Fraction(math.factorial(sum_12_23) * math.factorial(sum_13_23))
    for v in vectors:
        value /= math.factorial(v[0]) * math.factorial(v[1]) * math.factorial(v[2])
    return value


def _index_tuples(copies: int, max_total: int) -> list[tuple[IndexVec, ...]]:
    """All tuples of per-copy index vectors with combined weight <= max_total."""
    out = []
    for combo in itertools.product(exponents_upto(max_total), repeat=copies):
        if sum(sum(v) for v in combo) <= max_total:
            out.append(combo)
    return sorted(out)


class ConjectureReport:
    def __init__(self, copies: int, order: int, normalization: KLocal,
                 records: list[dict]):
        self.copies = copies
        self.order = order
        self.normalization = normalization
        self.records = records

    def summary(self) -> dict:
        out = {}
        for reading in ("literal", "doubled"):
            recs = [r for r in self.records if r["reading"] == reading]
            out[reading] = {
                "compared": len(recs),
                "matches": sum(r["match"] for r in recs),
                "mismatches": sum(not r["match"] for r in recs),
            }
        return out

    def serialize(self) -> dict:
        return {
            "suite": "conjecture",
            "copies": self.copies,
            "order": self.order,
            "normalization": self.normalization.serialize(),
            "records": self.records,
            "summary": self.summary(),
        }


def conjecture_check(copies: int, order: int,
                     expansions: ExpansionSet) -> ConjectureReport:
    """Compare extracted leading-pole coefficients against the candidate.

    ``order`` bounds the total degree of the compared monomials, so
    ``expansions`` must reach it.  The per-copy coefficient families
    (``LaurentPoly3`` values in the labels, fitted by ``expansions``) multiply
    into one label polynomial per exponent tuple; extraction then follows the
    single-sum machinery.  Extracted values are normalized by the degree-0
    kappa-profile (recorded in the report) and must be kappa-free afterwards
    to count as comparable.  Each value is normalized through the exact
    reciprocal of the profile, taken once; a profile that vanishes or is not
    a unit of ``KLocal``'s ring raises ``ValueError``.  A family validated
    on fewer than ``expansion.VALIDATION_MARGIN`` labels raises
    ``ValueError`` naming the table level that ``order`` needs.
    """
    if copies < 1:
        raise ValueError("need at least one copy")

    # a product of families does not depend on the order of its factors, so
    # the extracted values are keyed on the sorted tuple of monomials
    extracted: dict[tuple[IndexVec, ...], KLocal] = {}

    def extract(mvecs: tuple[IndexVec, ...]) -> KLocal:
        key = tuple(sorted(mvecs))
        if key not in extracted:
            p = LaurentPoly3.one()
            for mvec in mvecs:
                family = expansions.fit_family(mvec)
                if family.unvalidated:
                    raise ValueError(unvalidated_message(family, order))
                p = p * family.polynomial
            shift = sum(sum(v) for v in mvecs)
            value, _ = leading_pole_coefficient(p, "-", shift)
            extracted[key] = value
        return extracted[key]

    zero_tuple = tuple((0, 0, 0) for _ in range(copies))
    normalization = extract(zero_tuple)
    if not normalization:
        raise ValueError("vanishing degree-0 coefficient; cannot normalize")
    try:
        inverse = 1 / normalization
    except ZeroDivisionError:
        raise ValueError("degree-0 coefficient is not a unit; cannot "
                         f"normalize by {normalization.serialize()}") from None

    records: list[dict] = []
    for reading, scalefactor in (("literal", 1), ("doubled", 2)):
        for combo in _index_tuples(copies, order // scalefactor):
            monomials = tuple(
                tuple(scalefactor * x for x in vec) for vec in combo)
            value = extract(monomials) * inverse
            predicted = conjecture_coeff(list(combo))
            rec = {
                "reading": reading,
                "indices": [list(v) for v in combo],
                "monomials": [list(v) for v in monomials],
                "conjecture": str(predicted),
            }
            if value.is_constant():
                actual = value.as_fraction()
                rec["extracted"] = str(actual)
                rec["match"] = actual == predicted
            else:
                rec["extracted"] = value.serialize()
                rec["match"] = False
                rec["note"] = "kappa-dependent after normalization"
            records.append(rec)
    return ConjectureReport(copies, order, normalization, records)
