"""Genus-two Schur polynomial table built by the Pieri recursion.

A triple of nonnegative integers (j1, j2, j3) is admissible when it satisfies
the triangle inequality |j1 - j2| <= j3 <= j1 + j2 and j1 + j2 + j3 is even.
The table holds one Laurent polynomial per admissible triple up to a level
(level = j1 + j2 + j3), constructed level by level from the three Pieri-type
recursions

    (x12 + 1/x12) phi_{j1,j2,j3} = sum_{a,b} K_{a,b}(j1,j2,j3) phi_{j1+a,j2+b,j3}
    (x13 + 1/x13) phi_{j1,j2,j3} = sum_{a,b} K_{a,b}(j1,j3,j2) phi_{j1+a,j2,j3+b}
    (x23 + 1/x23) phi_{j1,j2,j3} = sum_{a,b} K_{a,b}(j2,j3,j1) phi_{j1,j2+a,j3+b}

with phi_{0,0,0} = 1 and phi = 0 on non-admissible triples.  Each new entry is
solved from one predecessor equation and every other applicable predecessor
equation is then asserted exactly, so an inconsistent system cannot slip
through construction.

Residuals of the recursions (``SchurTable.pieri_residual``) and the unit-value
check of a loaded file run on integer numerators over one common denominator
(``LaurentPoly3.cleared``); a nonzero residual comes back as the exact Laurent
polynomial.  The table file is the ``json.dumps(..., indent=1)`` layout of the
entries, written directly by ``canonical_json``; the ``json.dumps`` route is
the test oracle for it.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

from .laurent import Exp, LaurentPoly3, x_plus_inv

Triple = tuple[int, int, int]

FORMAT_VERSION = 1


class TableError(Exception):
    """Failure while constructing, saving or loading a table."""


class FalsificationError(AssertionError):
    """An exactly-provable identity failed; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def is_admissible(j1: int, j2: int, j3: int) -> bool:
    """Triangle inequality plus even total parity; negatives are rejected."""
    if j1 < 0 or j2 < 0 or j3 < 0:
        return False
    if (j1 + j2 + j3) % 2:
        return False
    return abs(j1 - j2) <= j3 <= j1 + j2


def enumerate_level(level: int) -> list[Triple]:
    """All admissible triples with j1 + j2 + j3 == level, in lexicographic order."""
    if level < 0 or level % 2:
        return []
    out = []
    for j1 in range(level + 1):
        for j2 in range(level - j1 + 1):
            j3 = level - j1 - j2
            if is_admissible(j1, j2, j3):
                out.append((j1, j2, j3))
    return out


def enumerate_through(max_level: int) -> list[Triple]:
    out: list[Triple] = []
    for level in range(0, max_level + 1, 2):
        out.extend(enumerate_level(level))
    return out


def pieri_coeff(a: int, b: int, j1: int, j2: int, j3: int) -> Fraction:
    """Recursion coefficient K_{a,b}(j1,j2,j3) for a, b in {-1,+1}.

    Vanishes exactly when the target triple (j1+a, j2+b, j3) is non-admissible.
    """
    if a not in (-1, 1) or b not in (-1, 1):
        raise ValueError("a and b must be +1 or -1")
    num = (a * j1 + b * j2 + j3 + a + b + 2) * (a * j1 + b * j2 - j3 + a + b)
    return Fraction(a * b * num, 4 * (j1 + 1) * (j2 + 1))


# The three recursions, normalized as (generator index, coefficient arguments,
# target increment).  For equation ``eq`` based at (j1,j2,j3):
#   eq=0: variable x12, K args (j1,j2,j3), target (j1+a, j2+b, j3)
#   eq=1: variable x13, K args (j1,j3,j2), target (j1+a, j2,   j3+b)
#   eq=2: variable x23, K args (j2,j3,j1), target (j1,   j2+a, j3+b)

def _pieri_terms(eq: int, base: Triple) -> list[tuple[Triple, Fraction]]:
    """Right-hand-side (triple, coefficient) pairs of one recursion at ``base``."""
    j1, j2, j3 = base
    out = []
    for a in (1, -1):
        for b in (1, -1):
            if eq == 0:
                coeff = pieri_coeff(a, b, j1, j2, j3)
                target = (j1 + a, j2 + b, j3)
            elif eq == 1:
                coeff = pieri_coeff(a, b, j1, j3, j2)
                target = (j1 + a, j2, j3 + b)
            else:
                coeff = pieri_coeff(a, b, j2, j3, j1)
                target = (j1, j2 + a, j3 + b)
            out.append((target, coeff))
    return out


#: exponent shift of the generator x + 1/x of each recursion
_SHIFT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def predecessor_equations(triple: Triple) -> list[tuple[int, Triple]]:
    """The recursions that reach ``triple`` from the level below, as (eq, base).

    Bases are tried in the order (j1-1,j2-1,j3), (j1-1,j2,j3-1),
    (j1,j2-1,j3-1); only admissible ones are kept.  The first pair is the
    solving equation of ``triple``: its right-hand side holds ``triple``
    itself and otherwise only entries of strictly lower levels.  The others
    hold as consequences.
    """
    j1, j2, j3 = triple
    candidates = [
        (0, (j1 - 1, j2 - 1, j3)),
        (1, (j1 - 1, j2, j3 - 1)),
        (2, (j1, j2 - 1, j3 - 1)),
    ]
    usable = [(eq, p) for eq, p in candidates if is_admissible(*p)]
    if not usable:
        raise TableError(f"no admissible predecessor for {triple}")
    return usable


def solve_entry(triple: Triple, entries: dict, generators):
    """Solve ``triple`` from its solving equation, in any ring.

    ``entries`` holds the values of the lower levels and ``generators[i]``
    the value of x_i + 1/x_i; values need ``*``, ``-`` and ``scale``.  The
    table runs this on Laurent polynomials and the expansions around x = 1
    run it on truncated power series.
    """
    eq, pred = predecessor_equations(triple)[0]
    rest = generators[eq] * entries[pred]
    lead_coeff = None
    for target, coeff in _pieri_terms(eq, pred):
        if not coeff or not is_admissible(*target):
            continue
        if target == triple:
            lead_coeff = coeff
        else:
            rest = rest - entries[target].scale(coeff)
    if not lead_coeff:
        raise TableError(f"vanishing leading coefficient solving {triple}")
    return rest.scale(1 / lead_coeff)


# layout of json.dumps(..., indent=1) for one entry and one term
_TRIPLE = '  {\n   "triple": [\n    %d,\n    %d,\n    %d\n   ],\n   "poly": '
_ENTRY = _TRIPLE + '[\n%s\n   ]\n  }'
_EMPTY_ENTRY = _TRIPLE + '[]\n  }'
_TERM = ('    {\n     "exp": [\n      %d,\n      %d,\n      %d\n     ],\n'
         '     "coeff": "%s"\n    }')


def text_checksum(text: str) -> str:
    """SHA-256 of a table file text, the ``table_checksum`` of the reports."""
    return hashlib.sha256(text.encode()).hexdigest()


class SchurTable:
    """Immutable map from admissible triples to their Laurent polynomials."""

    def __init__(self, max_level: int, entries: dict[Triple, LaurentPoly3]):
        self.max_level = max_level
        self.entries = entries
        self._cleared: dict[Triple, tuple] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurTable):
            return NotImplemented
        return self.max_level == other.max_level and self.entries == other.entries

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, triple: Triple) -> LaurentPoly3:
        """Table entry; the zero polynomial for non-admissible or out-of-range triples."""
        return self.entries.get(triple, LaurentPoly3.zero())

    # -- verification helpers -------------------------------------------

    def _cleared_entry(self, triple: Triple) -> tuple[dict[Exp, int], int]:
        """``entry(triple).cleared()``, computed once per stored entry."""
        poly = self.entries.get(triple)
        if poly is None:
            return {}, 1
        hit = self._cleared.get(triple)
        if hit is None or hit[0] is not poly:
            hit = self._cleared[triple] = (poly, *poly.cleared())
        return hit[1], hit[2]

    def pieri_residual(self, eq: int, base: Triple) -> LaurentPoly3:
        """LHS minus RHS of recursion ``eq`` based at ``base`` (zero iff it holds).

        Accumulates integer numerators at the lcm of the entry and ``K``
        denominators; multiplying by x + 1/x is two exponent shifts.
        """
        rhs = []
        den = 1
        for target, coeff in _pieri_terms(eq, base):
            if coeff and is_admissible(*target):
                nums, d = self._cleared_entry(target)
                d *= coeff.denominator
                rhs.append((nums, coeff.numerator, d))
                den = lcm(den, d)
        base_nums, base_den = self._cleared_entry(base)
        den = lcm(den, base_den)
        acc: dict[Exp, int] = {}
        get = acc.get
        w = den // base_den
        s1, s2, s3 = _SHIFT[eq]
        for (e1, e2, e3), n in base_nums.items():
            n *= w
            key = (e1 + s1, e2 + s2, e3 + s3)
            acc[key] = get(key, 0) + n
            key = (e1 - s1, e2 - s2, e3 - s3)
            acc[key] = get(key, 0) + n
        for nums, num, d in rhs:
            w = num * (den // d)
            for key, n in nums.items():
                acc[key] = get(key, 0) - w * n
        return LaurentPoly3.from_cleared(acc, den)

    # -- persistence -----------------------------------------------------

    def canonical_json(self) -> str:
        """The table file text: ``json.dumps(payload, indent=1)`` plus a newline.

        The payload holds the format version, the level and one record per
        entry, ``{"triple": [...], "poly": [{"exp": [...], "coeff": "p/q"}]}``,
        triples and exponents sorted.  The text is written directly in that
        layout, one template per entry and per term.
        """
        records = []
        for t in sorted(self.entries):
            terms = ",\n".join([_TERM % (*e, c)
                                for e, c in self.entries[t].sorted_terms()])
            records.append(_ENTRY % (*t, terms) if terms else _EMPTY_ENTRY % t)
        body = ",\n".join(records)
        entries = f'[\n{body}\n ]' if body else "[]"
        return (f'{{\n "format_version": {FORMAT_VERSION},\n'
                f' "max_level": {self.max_level},\n'
                f' "entries": {entries}\n}}\n')

    def checksum(self) -> str:
        return text_checksum(self.canonical_json())

    def save(self, path) -> str:
        """Write the table file; returns its text."""
        text = self.canonical_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    @staticmethod
    def load(path) -> "SchurTable":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TableError(f"unreadable table file: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format_version") != FORMAT_VERSION:
            raise TableError(
                f"format version mismatch: expected {FORMAT_VERSION}, "
                f"got {payload.get('format_version')!r}")
        max_level = payload.get("max_level")
        if not isinstance(max_level, int) or max_level < 0 or max_level % 2:
            raise TableError(f"invalid max_level: {max_level!r}")
        entries: dict[Triple, LaurentPoly3] = {}
        for rec in payload.get("entries", []):
            t = tuple(rec["triple"])
            if len(t) != 3 or not all(isinstance(v, int) for v in t):
                raise TableError(f"malformed triple {rec['triple']!r}")
            if not is_admissible(*t):
                raise TableError(f"non-admissible triple {t} in table file")
            if sum(t) > max_level:
                raise TableError(f"triple {t} beyond declared max_level {max_level}")
            if t in entries:
                raise TableError(f"duplicate triple {t}")
            terms: dict[Exp, Fraction] = {}
            for term in rec["poly"]:
                e = tuple(term["exp"])
                if len(e) != 3 or not all(isinstance(v, int) for v in e):
                    raise TableError(f"malformed exponent {term['exp']!r}")
                try:
                    c = Fraction(term["coeff"])
                except (ValueError, ZeroDivisionError, TypeError) as exc:
                    raise TableError(f"malformed rational {term['coeff']!r}") from exc
                if not c:
                    raise TableError(f"stored zero coefficient at {t}, {e}")
                if e in terms:
                    raise TableError(f"duplicate exponent {e} in entry {t}")
                terms[e] = c
            entries[t] = LaurentPoly3(terms)
        expected = set(enumerate_through(max_level))
        missing = expected - set(entries)
        if missing:
            raise TableError(f"incomplete table: missing {sorted(missing)[0]} "
                             f"and {len(missing) - 1} more")
        extra = set(entries) - expected
        if extra:
            raise TableError(f"unexpected triples present: {sorted(extra)[:3]}")
        unit = entries[(0, 0, 0)]
        if unit != LaurentPoly3.one():
            raise TableError("entry (0,0,0) is not the constant 1")
        table = SchurTable(max_level, entries)
        for t in entries:
            nums, den = table._cleared_entry(t)
            if sum(nums.values()) != den:
                raise TableError(f"entry {t} does not evaluate to 1 at (1,1,1)")
        return table


def solve_table(max_level: int) -> SchurTable:
    """Build the table through ``max_level`` by level induction.

    Each new entry is solved from its solving equation (see
    ``predecessor_equations``) and the remaining applicable predecessor
    equations are asserted exactly.
    """
    if max_level < 0 or max_level % 2:
        raise ValueError("max_level must be a nonnegative even integer")
    entries: dict[Triple, LaurentPoly3] = {(0, 0, 0): LaurentPoly3.one()}
    table = SchurTable(max_level, entries)
    generators = [x_plus_inv(i) for i in range(3)]
    for level in range(2, max_level + 1, 2):
        for triple in enumerate_level(level):
            entries[triple] = solve_entry(triple, entries, generators)
            for other_eq, other_pred in predecessor_equations(triple)[1:]:
                residual = table.pieri_residual(other_eq, other_pred)
                if residual:
                    raise FalsificationError(
                        f"inconsistent recursion at {triple}: equation "
                        f"{other_eq + 1} based at {other_pred} fails",
                        witness=residual)
    return table


def leading_term(poly: LaurentPoly3, triple: Triple) -> tuple[Fraction, tuple[int, int, int]]:
    """Top total-degree part of a table entry, verified to be a single monomial.

    Returns (coefficient, exponents of (x12, x13, x23)); the exponents must be
    ((j1+j2-j3)/2, (j1-j2+j3)/2, (-j1+j2+j3)/2).
    """
    j1, j2, j3 = triple
    top = poly.top_part()
    if len(top.terms) != 1:
        raise FalsificationError(
            f"top degree part of entry {triple} is not a single monomial",
            witness=top)
    (exp, coeff), = top.terms.items()
    expected = ((j1 + j2 - j3) // 2, (j1 - j2 + j3) // 2, (-j1 + j2 + j3) // 2)
    if exp != expected:
        raise FalsificationError(
            f"leading exponents of entry {triple}: got {exp}, expected {expected}",
            witness=top)
    return coeff, exp


# Positions of the variable pairs under an index permutation sigma:
# the pair {i, j} of the permuted entry lands on the pair {sigma(i), sigma(j)}.
_PAIR_POS = {frozenset({1, 2}): 0, frozenset({1, 3}): 1, frozenset({2, 3}): 2}
_POS_PAIR = {0: (1, 2), 1: (1, 3), 2: (2, 3)}


def s3_check(table: SchurTable, sigma: tuple[int, int, int]) -> tuple[bool, Triple | None]:
    """Check equivariance under a simultaneous permutation of labels and variables.

    ``sigma`` maps index i to sigma[i-1].  Returns (ok, witness_triple).
    """
    pos_map = []
    for k in range(3):
        i, j = _POS_PAIR[k]
        pos_map.append(_PAIR_POS[frozenset({sigma[i - 1], sigma[j - 1]})])
    pos_map = tuple(pos_map)
    for triple in enumerate_through(table.max_level):
        permuted_labels = tuple(triple[sigma[i] - 1] for i in range(3))
        candidate = table.entry(permuted_labels).permute(pos_map)
        if candidate != table.entries[triple]:
            return False, triple
    return True, None


def verify_pieri(table: SchurTable) -> list[dict]:
    """The ``verify pieri`` suite: recursion identities, unit values, leading
    terms and their distinctness per level, and S3 equivariance."""
    triples = enumerate_through(table.max_level)
    checks = []
    for triple in triples:
        if sum(triple) > table.max_level - 2:
            continue
        for eq in (0, 1, 2):
            residual = table.pieri_residual(eq, triple)
            rec = {"check": "pieri", "triple": list(triple), "equation": eq + 1,
                   "status": "pass" if not residual else "fail"}
            if residual:
                rec["witness"] = repr(residual)
            checks.append(rec)
    for triple in triples:
        value = table.entries[triple].eval_ones()
        checks.append({"check": "unit-value", "triple": list(triple),
                       "status": "pass" if value == 1 else "fail"})
    seen_per_level: dict[int, set] = {}
    for triple in triples:
        try:
            _, exps = leading_term(table.entries[triple], triple)
            status = "pass"
        except FalsificationError:
            status, exps = "fail", None
        checks.append({"check": "leading-term", "triple": list(triple),
                       "status": status})
        if exps is not None:
            bucket = seen_per_level.setdefault(sum(triple), set())
            checks.append({"check": "leading-distinct", "triple": list(triple),
                           "status": "pass" if exps not in bucket else "fail"})
            bucket.add(exps)
    for sigma in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)):
        ok, witness = s3_check(table, sigma)
        rec = {"check": "s3-symmetry", "sigma": list(sigma),
               "status": "pass" if ok else "fail"}
        if witness:
            rec["witness"] = list(witness)
        checks.append(rec)
    return checks
