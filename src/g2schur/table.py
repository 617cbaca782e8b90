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

Every entry is invariant under each x_ab -> 1/x_ab: phi_{0,0,0} = 1 and the
recursions only multiply by x_ab + 1/x_ab.  The table therefore stores each
entry as its orthant form: the integer numerators of its terms with every
exponent >= 0 over one common denominator, reduced so that the denominator
is positive and coprime to the content of the whole entry
(``LaurentPoly3.cleared``); a term at (a, b, c) stands for the same
numerator at every (+-a, +-b, +-c).  ``solve_table`` solves each entry in
that form, with x + 1/x on the orthant taking c(a) to c(a-1) + c(a+1) and
c(-1) = c(1) (``_times_x_plus_inv``), and the recursion residuals
(``SchurTable.pieri_residual``), the unit-value, leading-term, S3 and
whole-table checks compare orthant numerators and denominators, as do the
operator identities of ``diffops.verify_eigen`` and
``cauchy.check_H1_relation``, the x23 = 1 identities of ``specialized`` and
the (0,0,0) check of ``expansion.ExpansionSet``.  The mirror terms are
expanded (``unfold``) only for the read-only ``entries`` mapping (which
builds the ``Fraction`` Laurent polynomial of an entry on each read and
keeps nothing), for the witness of a failed check, the exact Laurent
polynomial, and for the reader's asymmetry messages; ``canonical_json``
writes them with its own copy of the loop.

The solve and the residuals weight the recursion targets by the integer
numerators of ``K`` over its denominator ``4(j1+1)(j2+1)``, shared by the four
targets (``_pieri_weights``); ``pieri_coeff`` is the ``Fraction`` definition
they are tested against.

The table file is the ``json.dumps(..., indent=1)`` layout of the entries,
every term written out, and ``canonical_json`` writes it directly, one
template per entry and per term, passing each entry's text to a sink as soon
as it is formatted.  ``save`` and ``checksum`` stream that text into the
file and one SHA-256, so no more than one entry's text is held at a time.
``load`` accepts that one layout and no other JSON text, reading the file in
chunks and keeping only each entry's orthant once its mirror terms are
checked (the reader is ``tablefile.load_table``), so a text it accepts is
byte for byte the text ``canonical_json`` writes for the table it yields,
and the SHA-256 of the file's bytes is the table's checksum.  The
``json.load`` route is the test oracle of the reader and the ``json.dumps``
route that of the writer; ``roundtrip`` renders a loaded table and compares
the SHA-256 of the render with the one the reader took of the file, the
cross-check of one against the other.
The solve on every exponent, with x + 1/x as two plain shifts, is the test
oracle of the orthant solve and residuals.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import FalsificationError, TableError  # raised and re-exported here
from .laurent import Exp, LaurentPoly3
from .report import record

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
    This is the public definition of the weights.  No command calls it: the
    solve runs on its cleared form, ``_pieri_weights``.
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

def _pieri_weights(eq: int, base: Triple) -> tuple[int, list[tuple[Triple, int]]]:
    """The four ``K`` of recursion ``eq`` at ``base`` over their shared
    denominator: ``(D, [(target, N_ab)])`` with ``K_ab = N_ab / D``.

    For K arguments (x, y, z), ``D = 4(x+1)(y+1)`` and ``N_ab = a b (a x +
    b y + z + a + b + 2)(a x + b y - z + a + b)``: ``pieri_coeff`` cleared.
    The pairs (a, b) come in the order (1, 1), (1, -1), (-1, 1), (-1, -1).
    """
    j1, j2, j3 = base
    x, y, z = ((j1, j2, j3), (j1, j3, j2), (j2, j3, j1))[eq]
    out = []
    for a in (1, -1):
        for b in (1, -1):
            s = a * x + b * y + a + b
            if eq == 0:
                target = (j1 + a, j2 + b, j3)
            elif eq == 1:
                target = (j1 + a, j2, j3 + b)
            else:
                target = (j1, j2 + a, j3 + b)
            out.append((target, a * b * (s + z + 2) * (s - z)))
    return 4 * (x + 1) * (y + 1), out


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
    """w (x + 1/x) f on the orthant, x the variable of recursion ``eq`` and
    f the mirror-symmetric polynomial of the orthant numerators ``nums``.

    The coefficient at exponent a of x becomes c(a-1) + c(a+1), with c(-1)
    = c(1): a term at a >= 1 also moves down to a - 1, twice over from a = 1.
    """
    acc: dict[Exp, int] = {}
    get = acc.get
    s1, s2, s3 = _SHIFT[eq]
    for e, n in nums.items():
        n *= w
        e1, e2, e3 = e
        key = (e1 + s1, e2 + s2, e3 + s3)
        acc[key] = get(key, 0) + n
        a = e[eq]
        if a:
            key = (e1 - s1, e2 - s2, e3 - s3)
            acc[key] = get(key, 0) + (n if a > 1 else 2 * n)
    return acc


def unfold(nums: dict[Exp, int]) -> dict[Exp, int]:
    """The numerators at every exponent from the orthant numerators: the
    numerator at (a, b, c) is that at each (+-a, +-b, +-c)."""
    out: dict[Exp, int] = {}
    for (a, b, c), n in nums.items():
        for x in ((a, -a) if a else (0,)):
            for y in ((b, -b) if b else (0,)):
                for z in ((c, -c) if c else (0,)):
                    out[x, y, z] = n
    return out



def recursion_sum(eq: int, base: Triple, form, times_generator,
                  skip: Triple | None = None) -> Cleared:
    """g phi_base - sum K phi_target of recursion ``eq`` at ``base``, the
    target ``skip`` left out, as integer numerators over one denominator.

    ``form(t)`` is the integer form of phi_t and ``times_generator(eq, nums,
    w)`` returns the numerators of w g sum nums[e] x^e, g the generator of the
    recursion in the ring at hand (x + 1/x for the table entries, its
    truncated series for the expansions around x = 1).  The sum is taken
    times the shared denominator ``D`` of the ``K`` (see ``_pieri_weights``),
    on their integer numerators, at the lcm of the form denominators; the
    returned denominator is that lcm times ``D``.  Nothing is reduced, and
    cancelled numerators stay in the dict as zeros.
    """
    k_den, weights = _pieri_weights(eq, base)
    rhs = []
    den = 1
    for target, num in weights:
        if num and target != skip and is_admissible(*target):
            nums, d = form(target)
            rhs.append((nums, num, d))
            den = lcm(den, d)
    base_nums, base_den = form(base)
    den = lcm(den, base_den)
    acc = times_generator(eq, base_nums, k_den * (den // base_den))
    get = acc.get
    for nums, num, d in rhs:
        w = num * (den // d)
        for key, n in nums.items():
            acc[key] = get(key, 0) - w * n
    return acc, den * k_den


def solve_cleared(triple: Triple, form, times_generator) -> Cleared:
    """The integer form of ``triple`` from its solving equation, the lower
    levels read through ``form`` (see ``recursion_sum``).

    The recursion sum without ``triple`` is divided once by the lead ``K =
    N_11 / D``: its denominator, a multiple of ``D``, is divided by ``D`` and
    multiplied by ``N_11``.  The result is reduced to the form ``cleared()``
    returns.  ``N_11`` of an admissible base is positive, so the denominator
    stays positive.
    """
    eq, pred = predecessor_equations(triple)[0]
    k_den, weights = _pieri_weights(eq, pred)
    lead = dict(weights).get(triple)
    if not lead:
        raise TableError(f"vanishing leading coefficient solving {triple}")
    acc, den = recursion_sum(eq, pred, form, times_generator, skip=triple)
    nums = {e: n for e, n in acc.items() if n}
    den = den // k_den * lead
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


class EntryView(Mapping):
    """The ``Fraction`` Laurent polynomials of a table's entries, read-only.

    Each read builds the polynomial from the entry's orthant form, mirror
    terms unfolded; nothing is kept.
    """

    def __init__(self, forms: dict[Triple, Cleared]):
        self._forms = forms

    def __getitem__(self, triple: Triple) -> LaurentPoly3:
        nums, den = self._forms[triple]
        return LaurentPoly3.from_cleared(unfold(nums), den)

    def __contains__(self, triple) -> bool:
        return triple in self._forms

    def __iter__(self):
        return iter(self._forms)

    def __len__(self) -> int:
        return len(self._forms)


class SchurTable:
    """Map from admissible triples to their Laurent polynomials, each stored
    in its orthant form (see the module docstring).

    ``forms`` maps each triple to its orthant form: the terms of
    ``LaurentPoly3.cleared`` with every exponent >= 0, of a polynomial
    invariant under each x -> 1/x.  The table keeps the dict it is given,
    not a copy.
    """

    def __init__(self, max_level: int, forms: dict[Triple, Cleared]):
        self.max_level = max_level
        #: SHA-256 of the file ``load`` read the table from, else None; it is
        #: ``checksum()`` of the table as loaded
        self.file_checksum: str | None = None
        self._forms = forms
        self.entries = EntryView(self._forms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurTable):
            return NotImplemented
        return self.max_level == other.max_level and self._forms == other._forms

    def __len__(self) -> int:
        return len(self._forms)

    def orthant_entry(self, triple: Triple) -> Cleared:
        """The orthant form of the entry of ``triple``, ``({}, 1)`` for a
        triple outside the table.  The caller must not modify it."""
        return self._forms.get(triple, _ZERO)

    def pieri_residual(self, eq: int, base: Triple) -> LaurentPoly3:
        """LHS minus RHS of recursion ``eq`` based at ``base`` (zero iff it
        holds), summed on the orthant and unfolded when it is not zero."""
        nums, den = recursion_sum(eq, base, self.orthant_entry, _times_x_plus_inv)
        if not any(nums.values()):
            return LaurentPoly3()
        return LaurentPoly3.from_cleared(unfold(nums), den)

    # -- persistence -----------------------------------------------------

    def canonical_json(self, write) -> None:
        """Pass the table file text to ``write``: ``json.dumps(payload,
        indent=1)`` plus a newline, in pieces.

        The payload holds the format version, the level and one record per
        entry, ``{"triple": [...], "poly": [{"exp": [...], "coeff": "p/q"}]}``,
        triples and exponents sorted.  The text is written directly in that
        layout, one template per entry and per term; each coefficient text
        is its numerator and the denominator divided by their gcd, formed
        once per orthant term and written at each of its mirror exponents.
        The pieces are the head, each entry's record (with the separator
        before it) as soon as it is formatted, and the tail; nothing is
        joined.
        """
        write(f'{{\n "format_version": {FORMAT_VERSION},\n'
              f' "max_level": {self.max_level},\n "entries": [')
        sep = "\n"
        for t in sorted(self._forms):
            nums, den = self._forms[t]
            terms = []
            for (a, b, c), n in nums.items():
                g = gcd(n, den)
                coeff = n // g if g == den else f"{n // g}/{den // g}"
                # the mirror exponents of ``unfold``, each with the template's
                # arguments.  A second copy of its loop, kept because it
                # formats each coefficient text once per orthant term, not
                # once per unfolded term: rendering the level-20 table
                # through ``unfold`` took 25 ms against 17 ms (best of 15,
                # Python 3.11 on a 2-core VM)
                for x in ((-a, a) if a else (0,)):
                    for y in ((-b, b) if b else (0,)):
                        for z in ((-c, c) if c else (0,)):
                            terms.append((x, y, z, coeff))
            terms.sort()  # the exponents are distinct: no coefficient is compared
            write(sep + (_ENTRY % (*t, ",\n".join([_TERM % term for term in terms]))
                         if terms else _EMPTY_ENTRY % t))
            sep = ",\n"
        write("\n ]\n}\n" if self._forms else "]\n}\n")

    def checksum(self, out=None) -> str:
        """SHA-256 of the table file text, the ``table_checksum`` of a
        report on the table.

        The text is hashed as ``canonical_json`` renders it: each piece is
        encoded once and its bytes go to the hash and, if given, to ``out``.
        No more than one entry's text is held at a time.
        """
        # hashlib maps the OpenSSL library (about 3.5 MB resident): it is
        # imported by the commands that hash a table, not by omega or
        # verify kernel
        import hashlib
        digest = hashlib.sha256()

        def write(piece: str) -> None:
            data = piece.encode()
            if out is not None:
                out(data)
            digest.update(data)

        self.canonical_json(write)
        return digest.hexdigest()

    def save(self, path) -> str:
        """Write the table file, one entry at a time; returns the SHA-256 of
        the bytes written."""
        with open(path, "wb") as fh:
            return self.checksum(fh.write)

    @staticmethod
    def load(path) -> "SchurTable":
        """Read and check a table file; the file is not trusted.

        The text must be the layout ``canonical_json`` writes, byte for byte
        (any other JSON text of the same payload is rejected, naming the
        line where it departs): entries with strictly increasing triples,
        each admissible and within ``max_level``, and within each entry
        terms with strictly increasing exponents.  Every coefficient must be
        the canonical text of a nonzero rational, ``str(p)`` or ``"p/q"``
        with q > 1 coprime to p, and every entry must hold each term's
        mirror terms, at (+-a, +-b, +-c), with the same text.  The table
        must hold every triple through ``max_level``, entry (0,0,0) must be
        the constant 1 and every entry must take the value 1 at x12 = x13 =
        x23 = 1.  The orthant form of each entry is read from the
        coefficient texts; no ``Fraction`` is built and the file text is
        not held whole.  The text is then what ``canonical_json`` writes for
        the table returned, and ``file_checksum`` holds the SHA-256 of the
        file.  The reader is ``tablefile.load_table``, compiled by the first
        load.
        """
        from .tablefile import load_table
        return load_table(path)


def whole_table_failure(table: SchurTable) -> str | None:
    """The message of the first whole-table check ``table`` fails, else None:
    all C(max_level/2 + 3, 3) labels present, counted, as every triple is one,
    so that the work is bounded by the table and not by the level it declares;
    entry (0,0,0) the constant 1; and every entry 1 at (1,1,1)."""
    forms = table._forms
    missing = comb(table.max_level // 2 + 3, 3) - len(forms)
    if missing:
        first = next(t for level in range(0, table.max_level + 1, 2)
                     for t in enumerate_level(level) if t not in forms)
        return f"incomplete table: missing {first} and {missing - 1} more"
    if forms[(0, 0, 0)] != ({(0, 0, 0): 1}, 1):
        return "entry (0,0,0) is not the constant 1"
    for t, (nums, den) in forms.items():
        if unit_value(nums) != den:
            return f"entry {t} does not evaluate to 1 at (1,1,1)"
    return None


def unit_value(nums: dict[Exp, int]) -> int:
    """The sum of the numerators at every exponent, from the orthant
    numerators: the entry's value at (1,1,1) times its denominator.  A term
    at e stands for 2^k terms, k the number of nonzero entries of e."""
    return sum([n << (bool(a) + bool(b) + bool(c)) for (a, b, c), n in nums.items()])


def solve_table(max_level: int) -> SchurTable:
    """Build the table through ``max_level`` by level induction.

    Each new entry is solved in the orthant form from its solving equation
    (see ``predecessor_equations``) and the remaining applicable predecessor
    equations are asserted exactly.
    """
    if max_level < 0 or max_level % 2:
        raise ValueError("max_level must be a nonnegative even integer")
    forms: dict[Triple, Cleared] = {(0, 0, 0): ({(0, 0, 0): 1}, 1)}
    table = SchurTable(max_level, forms)
    for level in range(2, max_level + 1, 2):
        for triple in enumerate_level(level):
            forms[triple] = solve_cleared(triple, table.orthant_entry,
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
    Entries are compared in their orthant forms, which a permutation of the
    variables keeps: the same denominator and, with the variables permuted,
    the same numerators.
    """
    # the permuted exponent at position p is the entry's exponent at src[p]
    src = [0, 0, 0]
    for k in range(3):
        i, j = _POS_PAIR[k]
        src[_PAIR_POS[frozenset({sigma[i - 1], sigma[j - 1]})]] = k
    a, b, c = src
    for triple in enumerate_through(table.max_level):
        nums, den = table.orthant_entry(triple)
        permuted_labels = tuple(triple[sigma[i] - 1] for i in range(3))
        cand_nums, cand_den = table.orthant_entry(permuted_labels)
        if cand_den != den or {(e[a], e[b], e[c]): n for e, n in cand_nums.items()} != nums:
            return False, triple
    return True, None


def verify_pieri(table: SchurTable) -> list[dict]:
    """The ``verify pieri`` suite: recursion identities, unit values, leading
    terms and their distinctness per level, and S3 equivariance.

    Each is judged on the orthant forms.  The top-degree part of an entry
    lies in the orthant, since a mirror of a term lowers its total degree
    unless it fixes the term.
    """
    triples = enumerate_through(table.max_level)
    checks = []
    for triple in triples:
        if sum(triple) > table.max_level - 2:
            continue
        for eq in (0, 1, 2):
            residual = table.pieri_residual(eq, triple)
            checks.append(record("pieri", repr(residual) if residual else None,
                                 triple=list(triple), equation=eq + 1))
    for triple in triples:
        nums, den = table.orthant_entry(triple)
        value = unit_value(nums)
        checks.append(record(
            "unit-value",
            f"value {Fraction(value, den)} at (1,1,1)" if value != den else None,
            triple=list(triple)))
    # level -> leading exponents -> the first label with them
    seen_per_level: dict[int, dict[Exp, Triple]] = {}
    for triple in triples:
        try:
            # the numerators have the entry's orthant monomials
            _, exps = leading_term(LaurentPoly3(table.orthant_entry(triple)[0]), triple)
        except FalsificationError as exc:
            checks.append(record("leading-term", str(exc), triple=list(triple)))
            continue
        checks.append(record("leading-term", None, triple=list(triple)))
        earlier = seen_per_level.setdefault(sum(triple), {}).setdefault(exps, triple)
        checks.append(record("leading-distinct",
                             None if earlier == triple else list(earlier),
                             triple=list(triple)))
    for sigma in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)):
        ok, witness = s3_check(table, sigma)
        checks.append(record("s3-symmetry", None if ok else list(witness),
                             sigma=list(sigma)))
    return checks
