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

The table stores each entry in its integer form only: integer numerators
over one common denominator, reduced so that the denominator is positive and
coprime to the content (``LaurentPoly3.cleared``).  ``solve_table`` solves
each entry in that form, ``SchurTable.load`` reads it straight from the
``"p/q"`` coefficient texts and ``canonical_json`` writes the texts back from
it; the recursion residuals (``SchurTable.pieri_residual``), the unit-value,
leading-term and S3 checks compare numerators and denominators, and a nonzero
residual comes back as the exact Laurent polynomial.  The ``Fraction``
Laurent polynomial of an entry is built on demand, by ``entry`` or through
the ``entries`` mapping, which keeps what it builds and clears what is
assigned to it.

The table file is the ``json.dumps(..., indent=1)`` layout of the entries,
and ``canonical_json`` writes it directly, one template per entry and per
term.  ``load`` reads the file once and accepts that one layout and no other
JSON text (the reader is ``tablefile.read_table``), so a text it accepts is
byte for byte the ``canonical_json()`` of the table it yields, and the
SHA-256 of the file's bytes is the table's checksum.  The ``json.load``
route is the test oracle of the reader and the ``json.dumps`` route that of
the writer; ``roundtrip`` renders a loaded table and compares the bytes, the
cross-check of one against the other.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from fractions import Fraction
from math import gcd, lcm

from .errors import FalsificationError, TableError  # raised and re-exported here
from .laurent import Exp, LaurentPoly3

Triple = tuple[int, int, int]

FORMAT_VERSION = 1


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


#: integer form of an entry: numerators by exponent over one denominator
Cleared = tuple[dict[Exp, int], int]

_ZERO: Cleared = ({}, 1)


def _times_x_plus_inv(eq: int, nums: dict[Exp, int], w: int) -> dict[Exp, int]:
    """w (x + 1/x) sum nums[e] x^e for the variable of recursion ``eq``: two
    exponent shifts per term."""
    acc: dict[Exp, int] = {}
    get = acc.get
    s1, s2, s3 = _SHIFT[eq]
    for (e1, e2, e3), n in nums.items():
        n *= w
        key = (e1 + s1, e2 + s2, e3 + s3)
        acc[key] = get(key, 0) + n
        key = (e1 - s1, e2 - s2, e3 - s3)
        acc[key] = get(key, 0) + n
    return acc


def recursion_sum(eq: int, base: Triple, form, times_generator,
                  skip: Triple | None = None) -> Cleared:
    """g phi_base - sum K phi_target of recursion ``eq`` at ``base``, the
    target ``skip`` left out, as integer numerators over one denominator.

    ``form(t)`` is the integer form of phi_t and ``times_generator(eq, nums,
    w)`` returns the numerators of w g sum nums[e] x^e, g the generator of the
    recursion in the ring at hand (x + 1/x for the table entries, its
    truncated series for the expansions around x = 1).  Accumulates at the
    lcm of the form and ``K`` denominators, without reducing; cancelled
    numerators stay in the dict as zeros.
    """
    rhs = []
    den = 1
    for target, coeff in _pieri_terms(eq, base):
        if coeff and target != skip and is_admissible(*target):
            nums, d = form(target)
            d *= coeff.denominator
            rhs.append((nums, coeff.numerator, d))
            den = lcm(den, d)
    base_nums, base_den = form(base)
    den = lcm(den, base_den)
    acc = times_generator(eq, base_nums, den // base_den)
    get = acc.get
    for nums, num, d in rhs:
        w = num * (den // d)
        for key, n in nums.items():
            acc[key] = get(key, 0) - w * n
    return acc, den


def solve_cleared(triple: Triple, form, times_generator) -> Cleared:
    """The integer form of ``triple`` from its solving equation, the lower
    levels read through ``form`` (see ``recursion_sum``).

    The recursion sum without ``triple`` is divided once by the lead ``K``;
    the result is reduced to the form ``cleared()`` returns.  The lead is
    ``K_{1,1}`` of an admissible base, which is positive, so the denominator
    stays positive.
    """
    eq, pred = predecessor_equations(triple)[0]
    lead = dict(_pieri_terms(eq, pred)).get(triple)
    if not lead:
        raise TableError(f"vanishing leading coefficient solving {triple}")
    acc, den = recursion_sum(eq, pred, form, times_generator, skip=triple)
    q = lead.denominator
    nums = {e: n * q for e, n in acc.items() if n}
    den *= lead.numerator
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {e: n // g for e, n in nums.items()}
        den //= g
    return nums, den


# layout of json.dumps(..., indent=1) for one entry and one term
_TRIPLE = '  {\n   "triple": [\n    %d,\n    %d,\n    %d\n   ],\n   "poly": '
_ENTRY = _TRIPLE + '[\n%s\n   ]\n  }'
_EMPTY_ENTRY = _TRIPLE + '[]\n  }'
_TERM = ('    {\n     "exp": [\n      %d,\n      %d,\n      %d\n     ],\n'
         '     "coeff": "%s"\n    }')


def text_checksum(text: str | bytes) -> str:
    """SHA-256 of a table file text or of its bytes, the ``table_checksum``
    of the reports.

    ``hashlib`` maps the OpenSSL library (about 3.5 MB resident), so it is
    imported here, by the commands that hash a table, and not by ``omega``
    or ``verify kernel``.
    """
    import hashlib
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


class EntryView(MutableMapping):
    """The ``Fraction`` Laurent polynomials of a table's entries.

    A polynomial is built from the entry's integer form on its first read and
    kept.  Assigning a polynomial replaces the integer form by its
    ``cleared()``; deleting removes the entry.
    """

    def __init__(self, forms: dict[Triple, Cleared]):
        self._forms = forms
        self._polys: dict[Triple, LaurentPoly3] = {}

    def __getitem__(self, triple: Triple) -> LaurentPoly3:
        poly = self._polys.get(triple)
        if poly is None:
            poly = self._polys[triple] = LaurentPoly3.from_cleared(*self._forms[triple])
        return poly

    def __setitem__(self, triple: Triple, poly: LaurentPoly3) -> None:
        self._forms[triple] = poly.cleared()
        self._polys[triple] = poly

    def __delitem__(self, triple: Triple) -> None:
        del self._forms[triple]
        self._polys.pop(triple, None)

    def __contains__(self, triple) -> bool:
        return triple in self._forms

    def __iter__(self):
        return iter(self._forms)

    def __len__(self) -> int:
        return len(self._forms)


class SchurTable:
    """Map from admissible triples to their Laurent polynomials, each stored
    in its integer form (see the module docstring)."""

    def __init__(self, max_level: int,
                 entries: Mapping[Triple, LaurentPoly3] | None = None):
        self.max_level = max_level
        #: SHA-256 of the file ``load`` read the table from, else None; it is
        #: ``checksum()`` of the table as loaded
        self.file_checksum: str | None = None
        self._forms: dict[Triple, Cleared] = {}
        self.entries = EntryView(self._forms)
        if entries:
            self.entries.update(entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurTable):
            return NotImplemented
        return self.max_level == other.max_level and self._forms == other._forms

    def __len__(self) -> int:
        return len(self._forms)

    def entry(self, triple: Triple) -> LaurentPoly3:
        """Table entry; the zero polynomial for non-admissible or out-of-range triples."""
        return self.entries[triple] if triple in self._forms else LaurentPoly3.zero()

    def cleared_entry(self, triple: Triple) -> Cleared:
        """The integer form of ``entry(triple)``, ``({}, 1)`` for a triple
        outside the table.  The caller must not modify it."""
        return self._forms.get(triple, _ZERO)

    def pieri_residual(self, eq: int, base: Triple) -> LaurentPoly3:
        """LHS minus RHS of recursion ``eq`` based at ``base`` (zero iff it holds)."""
        return LaurentPoly3.from_cleared(
            *recursion_sum(eq, base, self.cleared_entry, _times_x_plus_inv))

    # -- persistence -----------------------------------------------------

    def canonical_json(self) -> str:
        """The table file text: ``json.dumps(payload, indent=1)`` plus a newline.

        The payload holds the format version, the level and one record per
        entry, ``{"triple": [...], "poly": [{"exp": [...], "coeff": "p/q"}]}``,
        triples and exponents sorted.  The text is written directly in that
        layout, one template per entry and per term; each coefficient text
        is its numerator and the denominator divided by their gcd.
        """
        records = []
        for t in sorted(self._forms):
            nums, den = self._forms[t]
            terms = []
            for e in sorted(nums):
                n = nums[e]
                g = gcd(n, den)
                coeff = n // g if g == den else f"{n // g}/{den // g}"
                terms.append(_TERM % (*e, coeff))
            records.append(_ENTRY % (*t, ",\n".join(terms)) if terms
                           else _EMPTY_ENTRY % t)
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
        """Read and check a table file; the file is not trusted.

        The text must be the layout ``canonical_json`` writes, byte for byte
        (any other JSON text of the same payload is rejected, naming the
        line where it departs): entries with strictly increasing triples,
        each admissible and within ``max_level``, and within each entry
        terms with strictly increasing exponents.  Every coefficient must be
        the canonical text of a nonzero rational, ``str(p)`` or ``"p/q"``
        with q > 1 coprime to p, the table must hold every triple through
        ``max_level``, entry (0,0,0) must be the constant 1 and every entry
        must take the value 1 at x12 = x13 = x23 = 1.  The integer form of
        each entry is read from the coefficient texts; no ``Fraction`` is
        built.  The text is then the ``canonical_json()`` of the table
        returned, and ``file_checksum`` holds the SHA-256 of the file.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise TableError(f"unreadable table file: {exc}") from exc
        checksum = text_checksum(data)
        del data  # not needed past the hash; freed before the parse
        from .tablefile import read_table  # compiled by the first load
        try:
            table = read_table(text)
        except ValueError as exc:  # an integer text beyond int()'s digit limit
            raise TableError(f"unreadable table file: {exc}") from None
        table.file_checksum = checksum
        return table


def solve_table(max_level: int) -> SchurTable:
    """Build the table through ``max_level`` by level induction.

    Each new entry is solved in the integer form from its solving equation
    (see ``predecessor_equations``) and the remaining applicable predecessor
    equations are asserted exactly.
    """
    if max_level < 0 or max_level % 2:
        raise ValueError("max_level must be a nonnegative even integer")
    table = SchurTable(max_level)
    forms = table._forms
    forms[(0, 0, 0)] = {(0, 0, 0): 1}, 1
    for level in range(2, max_level + 1, 2):
        for triple in enumerate_level(level):
            forms[triple] = solve_cleared(triple, table.cleared_entry,
                                          _times_x_plus_inv)
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
    Entries are compared in their integer forms: the same denominator and,
    with the variables permuted, the same numerators.
    """
    # the permuted exponent at position p is the entry's exponent at src[p]
    src = [0, 0, 0]
    for k in range(3):
        i, j = _POS_PAIR[k]
        src[_PAIR_POS[frozenset({sigma[i - 1], sigma[j - 1]})]] = k
    a, b, c = src
    for triple in enumerate_through(table.max_level):
        nums, den = table.cleared_entry(triple)
        permuted_labels = tuple(triple[sigma[i] - 1] for i in range(3))
        cand_nums, cand_den = table.cleared_entry(permuted_labels)
        if cand_den != den or {(e[a], e[b], e[c]): n for e, n in cand_nums.items()} != nums:
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
        nums, den = table.cleared_entry(triple)
        checks.append({"check": "unit-value", "triple": list(triple),
                       "status": "pass" if sum(nums.values()) == den else "fail"})
    seen_per_level: dict[int, set] = {}
    for triple in triples:
        try:
            # the numerators have the entry's monomials
            _, exps = leading_term(LaurentPoly3(table.cleared_entry(triple)[0]), triple)
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
