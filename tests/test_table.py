import hashlib
import json
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.diffops import verify_eigen
from g2schur.expansion import verify_series
from g2schur.specialized import verify_specialized
from g2schur import table as table_module
from g2schur import tablefile
from g2schur.laurent import LaurentPoly3
from g2schur.table import (_SHIFT, FORMAT_VERSION, FalsificationError,
                           SchurTable, TableError, _pieri_weights,
                           enumerate_level, enumerate_through, is_admissible,
                           leading_term, pieri_coeff, predecessor_equations,
                           recursion_sum, s3_check, solve_cleared, solve_table,
                           unfold, unit_value, verify_pieri)
from g2schur.tablefile import _parse_coeff
from tests.conftest import table_of, x_plus_inv
from tests.test_laurent import flip


def _pieri_terms(eq, base):
    """Right-hand-side (triple, ``pieri_coeff``) pairs of one recursion at
    ``base``; the ``Fraction`` form of ``table._pieri_weights``."""
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


def solve_entry(triple, entries, generators):
    """Solve ``triple`` from its solving equation, in any ring.

    ``entries`` holds the values of the lower levels and ``generators[i]``
    the value of x_i + 1/x_i; values need ``*``, ``-`` and ``scale``.  The
    oracle of the integer solve (``table.solve_cleared``): on Laurent
    polynomials for ``solve_table``, on truncated power series for the
    expansions around x = 1.
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


def fraction_pieri_residual(table, eq, base):
    """LHS minus RHS of one recursion in plain ``Fraction`` arithmetic.

    The former body of ``SchurTable.pieri_residual``; the small-size oracle
    for its integer accumulation.
    """
    def entry(t):  # zero outside the table
        return LaurentPoly3.from_cleared(*table.cleared_entry(t))

    lhs = x_plus_inv(eq) * entry(base)
    rhs = LaurentPoly3.zero()
    for target, coeff in _pieri_terms(eq, base):
        if coeff and is_admissible(*target):
            rhs = rhs + entry(target).scale(coeff)
    return lhs - rhs


def fraction_solve_table(max_level):
    """The table entries through ``solve_entry`` on ``LaurentPoly3`` values.

    The former body of ``solve_table``; the oracle for its integer solve.
    """
    entries = {(0, 0, 0): LaurentPoly3.one()}
    generators = [x_plus_inv(i) for i in range(3)]
    for triple in enumerate_through(max_level)[1:]:
        entries[triple] = solve_entry(triple, entries, generators)
    return entries


def full_times_x_plus_inv(eq, nums, w):
    """w (x + 1/x) sum nums[e] x^e on every exponent: two plain shifts per
    term.  The former ``table._times_x_plus_inv``; with the full forms, the
    oracle of the orthant rule."""
    acc = {}
    s1, s2, s3 = _SHIFT[eq]
    for (e1, e2, e3), n in nums.items():
        for key in ((e1 + s1, e2 + s2, e3 + s3), (e1 - s1, e2 - s2, e3 - s3)):
            acc[key] = acc.get(key, 0) + w * n
    return acc


def full_solve_table(max_level):
    """The integer forms of every exponent, solved with
    ``full_times_x_plus_inv``: the former ``solve_table``, the oracle of the
    orthant solve."""
    forms = {(0, 0, 0): ({(0, 0, 0): 1}, 1)}
    for triple in enumerate_through(max_level)[1:]:
        forms[triple] = solve_cleared(triple, forms.__getitem__,
                                      full_times_x_plus_inv)
    return forms


def full_pieri_residual(table, eq, base):
    """The recursion residual summed on every exponent of the unfolded
    entries; the oracle of ``SchurTable.pieri_residual``."""
    return LaurentPoly3.from_cleared(
        *recursion_sum(eq, base, table.cleared_entry, full_times_x_plus_inv))


def full_s3_check(table, sigma):
    """``s3_check`` on the entries of every exponent, as polynomials."""
    pos = {frozenset({1, 2}): 0, frozenset({1, 3}): 1, frozenset({2, 3}): 2}
    pairs = ((1, 2), (1, 3), (2, 3))
    src = [0, 0, 0]
    for k, (i, j) in enumerate(pairs):
        src[pos[frozenset({sigma[i - 1], sigma[j - 1]})]] = k
    for triple in enumerate_through(table.max_level):
        permuted = tuple(triple[sigma[i] - 1] for i in range(3))
        entry = table.entries[triple]
        other = table.entries.get(permuted, LaurentPoly3())
        if LaurentPoly3({tuple(e[s] for s in src): c
                         for e, c in other.terms.items()}) != entry:
            return False, triple
    return True, None


def assert_cleared_stored(table):
    """Each entry is stored in its orthant form: the terms with every
    exponent >= 0 of the ``cleared()`` of the ``Fraction`` polynomial that
    ``entries`` builds from it, which unfold to all of them."""
    assert set(table._forms) == set(table.entries)
    for t, (nums, den) in table._forms.items():
        assert all(min(e) >= 0 for e in nums), t
        assert table.entries[t].cleared() == (unfold(nums), den), t
        assert table.cleared_entry(t) == (unfold(nums), den), t


def rendered(table):
    """The table file text that ``canonical_json`` passes to its sink,
    joined."""
    pieces = []
    table.canonical_json(pieces.append)
    return "".join(pieces)


def json_dumps_table(table):
    """The table file text through ``json.dumps(indent=1)``.

    The former body of ``SchurTable.canonical_json``; the oracle for its
    direct writer.
    """
    payload = {
        "format_version": FORMAT_VERSION,
        "max_level": table.max_level,
        "entries": [
            {
                "triple": list(t),
                "poly": [
                    {"exp": list(e), "coeff": str(c)}
                    for e, c in sorted(table.entries[t].terms.items())
                ],
            }
            for t in sorted(table.entries)
        ],
    }
    return json.dumps(payload, indent=1) + "\n"


def json_load_table(path):
    """The table of a file through ``json.load`` and a walk of its records.

    The former body of ``SchurTable.load``, without its checks of the
    values; the oracle for the layout reader.  It accepts any JSON layout of
    the payload, and keeps the orthant of each entry once the entry's terms
    are those its orthant unfolds to.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format_version"] == FORMAT_VERSION
    forms = {}
    for rec in payload["entries"]:
        terms = {tuple(term["exp"]): _parse_coeff(term["coeff"])
                 for term in rec["poly"]}
        den = lcm(*[q for _, q in terms.values()])
        nums = {e: p * (den // q) for e, (p, q) in terms.items()}
        orthant = {e: n for e, n in nums.items() if min(e) >= 0}
        assert unfold(orthant) == nums
        forms[tuple(rec["triple"])] = orthant, den
    return SchurTable(payload["max_level"], forms)


def perturbed(table):
    """A copy of ``table`` with a few entries off their recursions, each
    still invariant under every x -> 1/x: the bump of (4, 4, 0) is the
    mirror orbit of x13^2 x23^-1."""
    entries = dict(table.entries)
    bump = x_plus_inv(0) - LaurentPoly3.constant(Fraction(2))
    entries[(2, 1, 1)] = entries[(2, 1, 1)] + bump.scale(Fraction(1, 5))
    entries[(1, 2, 3)] = entries[(1, 2, 3)].scale(Fraction(-3, 7))
    orbit = LaurentPoly3({(0, b, c): Fraction(-7, 3) for b in (2, -2) for c in (1, -1)})
    entries[(4, 4, 0)] = entries[(4, 4, 0)] + orbit
    return table_of(table.max_level, entries)


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible(0, 0, 0)
        assert not is_admissible(1, 1, 1)   # parity
        assert is_admissible(2, 1, 1)
        assert not is_admissible(3, 1, 1)   # triangle
        assert not is_admissible(-1, 1, 0)  # negatives rejected

    def test_enumerate_levels(self):
        assert enumerate_level(0) == [(0, 0, 0)]
        assert enumerate_level(2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert enumerate_level(4) == [
            (0, 2, 2), (1, 1, 2), (1, 2, 1), (2, 0, 2), (2, 1, 1), (2, 2, 0)]
        assert enumerate_level(1) == []
        assert enumerate_level(-2) == []

    def test_level_sizes(self):
        # level 2n holds (n+1)(n+2)/2 labels
        for n in range(8):
            assert len(enumerate_level(2 * n)) == (n + 1) * (n + 2) // 2


class TestPieriCoeff:
    def test_frozen_values(self):
        assert pieri_coeff(1, 1, 0, 0, 0) == 2
        assert pieri_coeff(1, -1, 1, 0, 1) == 0
        assert pieri_coeff(-1, -1, 1, 1, 0) == Fraction(1, 2)

    def test_vanishing_iff_target_nonadmissible(self):
        for level in range(0, 22, 2):
            for (j1, j2, j3) in enumerate_level(level):
                for a in (1, -1):
                    for b in (1, -1):
                        coeff = pieri_coeff(a, b, j1, j2, j3)
                        target_ok = is_admissible(j1 + a, j2 + b, j3)
                        assert bool(coeff) == target_ok, (j1, j2, j3, a, b)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            pieri_coeff(0, 1, 1, 1, 0)

    def test_cleared_weights_are_the_coefficients(self):
        # N_ab / D of the integer solve is K_ab = pieri_coeff, with the same
        # target, for every label through level 20, every recursion and all
        # four (a, b)
        for label in enumerate_through(20):
            for eq in range(3):
                d, weights = _pieri_weights(eq, label)
                assert [(t, Fraction(n, d)) for t, n in weights] == \
                    _pieri_terms(eq, label), (label, eq)


@pytest.fixture(scope="module")
def table4():
    return solve_table(4)


class TestSolveTable:
    def test_level_two_entries(self, table4):
        half = Fraction(1, 2)
        assert table4.entries[(1, 1, 0)] == x_plus_inv(0).scale(half)
        assert table4.entries[(1, 0, 1)] == x_plus_inv(1).scale(half)
        assert table4.entries[(0, 1, 1)] == x_plus_inv(2).scale(half)

    def test_level_four_entry(self, table4):
        expected = (x_plus_inv(0) * x_plus_inv(2)).scale(Fraction(1, 3)) \
            - x_plus_inv(1).scale(Fraction(1, 6))
        assert table4.entries[(1, 2, 1)] == expected

    def test_unit_values(self, table8):
        for phi in table8.entries.values():
            assert sum(phi.terms.values()) == 1

    def test_unit_value_record_can_fail(self, table4):
        # halving one entry doubles its denominator and keeps its numerators
        entries = dict(table4.entries)
        entries[(1, 2, 1)] = entries[(1, 2, 1)].scale(Fraction(1, 2))
        records = verify_pieri(table_of(4, entries))
        assert [r["triple"] for r in records if r["check"] == "unit-value"
                and r["status"] == "fail"] == [[1, 2, 1]]

    def test_leading_term_record_can_fail(self, table4):
        # x13 + 1/x13 - 2 added to (1, 1, 0), whose top part is then x12/2
        # + x13 + ...: its value at ones and its mirror symmetry stay
        entries = dict(table4.entries)
        bump = x_plus_inv(1) - LaurentPoly3.constant(Fraction(2))
        entries[(1, 1, 0)] = entries[(1, 1, 0)] + bump
        records = verify_pieri(table_of(4, entries))
        assert [(r["check"], r["triple"]) for r in records if r["status"] == "fail"
                and r["check"] in ("unit-value", "leading-term", "leading-distinct")
                ] == [("leading-term", [1, 1, 0])]

    def test_invariance_under_inversion(self, table8):
        for phi in table8.entries.values():
            for i in range(3):
                assert flip(phi, i) == phi

    def test_pieri_residuals(self, table8):
        for triple in enumerate_through(table8.max_level):
            if sum(triple) > table8.max_level - 2:
                continue
            for eq in (0, 1, 2):
                assert not table8.pieri_residual(eq, triple), (triple, eq)

    def test_matches_fraction_oracle(self, table12):
        # every base through the top level: the top level's residuals are
        # nonzero, since their level-14 targets lie outside the table
        nonzero = 0
        for table in (table12, perturbed(table12)):
            for triple in enumerate_through(table.max_level):
                for eq in (0, 1, 2):
                    got = table.pieri_residual(eq, triple)
                    want = fraction_pieri_residual(table, eq, triple)
                    assert got == want, (triple, eq)
                    assert repr(got) == repr(want)
                    assert got == full_pieri_residual(table, eq, triple)
                    nonzero += bool(got)
        assert nonzero > 100

    def test_replaced_entry_is_recleared(self, table8):
        # a replaced entry is stored as its cleared() form, which the
        # residuals read
        entries = dict(table8.entries)
        assert table_of(8, entries) == table8
        entries[(2, 1, 1)] = entries[(2, 1, 1)].scale(Fraction(2))
        table = table_of(8, entries)
        assert table.cleared_entry((2, 1, 1)) == entries[(2, 1, 1)].cleared()
        residual = table.pieri_residual(0, (1, 0, 1))
        assert residual and residual == fraction_pieri_residual(table, 0, (1, 0, 1))

    def test_matches_solve_entry_oracle(self, table12):
        oracle = fraction_solve_table(12)
        assert set(table12.entries) == set(oracle)
        for t, poly in oracle.items():
            assert table12.entries[t] == poly, t

    def test_solved_entries_carry_integer_form(self, table12):
        assert_cleared_stored(table12)

    def test_completeness(self, table8):
        levels = {t: sum(t) for t in table8.entries}
        assert max(levels.values()) == 8
        assert all(lvl % 2 == 0 for lvl in levels.values())

    def test_odd_max_level_rejected(self):
        with pytest.raises(ValueError):
            solve_table(3)


def no_doubling_at_one(eq, nums, w):
    """The orthant rule of ``table._times_x_plus_inv`` without c(-1) = c(1):
    a term at exponent 1 moves down to 0 once, not twice."""
    acc = {}
    s1, s2, s3 = _SHIFT[eq]
    for e, n in nums.items():
        e1, e2, e3 = e
        keys = [(e1 + s1, e2 + s2, e3 + s3)]
        if e[eq]:
            keys.append((e1 - s1, e2 - s2, e3 - s3))
        for key in keys:
            acc[key] = acc.get(key, 0) + w * n
    return acc


class TestOrthant:
    """The orthant solve and checks against the route on every exponent."""

    def test_full_plane_solve_unfolds_to_the_table(self):
        table = solve_table(16)
        full = full_solve_table(16)
        assert set(full) == set(table.entries)
        for t, (nums, den) in table._forms.items():
            assert all(min(e) >= 0 for e in nums), t
            assert full[t] == (unfold(nums), den), t

    def test_solve_asserts_every_redundant_equation(self, monkeypatch):
        asserted = []
        real = SchurTable.pieri_residual

        def recorded(self, eq, base):
            asserted.append((eq, base))
            return real(self, eq, base)

        monkeypatch.setattr(SchurTable, "pieri_residual", recorded)
        solve_table(10)
        assert asserted == [pair for t in enumerate_through(10)[1:]
                            for pair in predecessor_equations(t)[1:]]
        assert len(asserted) == 50

    def test_solve_rejects_an_entry_off_a_redundant_equation(self, monkeypatch):
        # (2, 1, 1) solved from equation 1 at (1, 0, 1), then moved by one
        # orthant numerator: its other equation, 2 at (1, 1, 0), fails
        real = table_module.solve_cleared

        def seeded(triple, form, times):
            nums, den = real(triple, form, times)
            if triple == (2, 1, 1):
                nums = {**nums, (1, 1, 0): nums[(1, 1, 0)] + 1}
            return nums, den

        monkeypatch.setattr(table_module, "solve_cleared", seeded)
        with pytest.raises(FalsificationError, match=r"inconsistent recursion at "
                           r"\(2, 1, 1\): equation 2 based at \(1, 1, 0\)"):
            solve_table(4)

    def test_rule_without_the_doubling_at_one_fails_the_oracle(self, monkeypatch):
        # every recursion, redundant ones included, holds for the ring the
        # mutant rule defines, so the solve passes its own checks; the
        # full-plane oracle and the unit values tell it from x + 1/x
        monkeypatch.setattr(table_module, "_times_x_plus_inv", no_doubling_at_one)
        table = solve_table(8)
        full = full_solve_table(8)
        wrong = [t for t, (nums, den) in table._forms.items()
                 if full[t] != (unfold(nums), den)]
        # the first square of a generator, (x23 + 1/x23)^2 in (0, 2, 2), is
        # the first entry the doubling reaches
        assert (1, 2, 1) not in wrong and wrong[0] == (0, 2, 2)
        assert table_module.whole_table_failure(table) == \
            "entry (0, 2, 2) does not evaluate to 1 at (1,1,1)"

    def test_checks_match_their_full_plane_versions(self, table12):
        # S3, unit values and leading terms on the orthant against the same
        # checks on every exponent, on the true table and on perturbed ones;
        # the last moves (2, 2, 0) off its leading term and its unit value
        entries = dict(perturbed(table12).entries)
        entries[(2, 2, 0)] = entries[(2, 2, 0)] + LaurentPoly3(
            {(a, b, 0): Fraction(1, 4) for a in (1, -1) for b in (1, -1)})
        tables = (table12, perturbed(table12), table_of(12, entries))
        outcomes = set()
        for table in tables:
            for sigma in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1),
                          (3, 1, 2)):
                got = s3_check(table, sigma)
                assert got == full_s3_check(table, sigma), sigma
                outcomes.add(("s3", got[0]))
            for t in enumerate_through(12):
                nums, den = table.orthant_entry(t)
                full_nums, full_den = table.cleared_entry(t)
                assert den == full_den
                assert unit_value(nums) == sum(full_nums.values()), t
                outcomes.add(("unit", unit_value(nums) == den))
                results = []
                for poly in (LaurentPoly3(nums), LaurentPoly3(full_nums)):
                    try:
                        results.append(leading_term(poly, t))
                    except FalsificationError as exc:
                        results.append(str(exc))
                assert results[0] == results[1], t
                outcomes.add(("leading", isinstance(results[0], tuple)))
        assert outcomes == {(check, ok) for check in ("s3", "unit", "leading")
                            for ok in (True, False)}


class TestLeadingTerm:
    def test_examples(self, table4):
        assert leading_term(table4.entries[(0, 0, 0)], (0, 0, 0)) == (1, (0, 0, 0))
        assert leading_term(table4.entries[(1, 1, 0)], (1, 1, 0)) == (
            Fraction(1, 2), (1, 0, 0))
        assert leading_term(table4.entries[(1, 2, 1)], (1, 2, 1)) == (
            Fraction(1, 3), (1, 0, 1))

    def test_distinct_within_level(self, table8):
        for level in range(0, 10, 2):
            seen = set()
            for triple in enumerate_level(level):
                _, exps = leading_term(table8.entries[triple], triple)
                assert exps not in seen
                seen.add(exps)

    def test_structural_violation_detected(self):
        # top-degree part with two monomials
        p = LaurentPoly3({(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)})
        with pytest.raises(FalsificationError):
            leading_term(p, (1, 1, 0))
        # single monomial at the wrong exponents
        q = LaurentPoly3({(0, 1, 0): Fraction(1), (0, 0, 0): Fraction(1)})
        with pytest.raises(FalsificationError):
            leading_term(q, (1, 1, 0))


class TestS3:
    def test_identity(self, table8):
        ok, _ = s3_check(table8, (1, 2, 3))
        assert ok

    @pytest.mark.parametrize("sigma", [
        (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)])
    def test_permutations(self, table8, sigma):
        ok, witness = s3_check(table8, sigma)
        assert ok, witness

    def test_violation_detected(self, table4):
        entries = dict(table4.entries)
        entries[(1, 1, 0)] = entries[(1, 1, 0)].scale(Fraction(2))
        broken = table_of(4, entries)
        ok, witness = s3_check(broken, (3, 2, 1))
        assert not ok and witness is not None

    def test_violation_in_denominator_only(self, table4):
        # halving (1, 1, 0) keeps its numerators; only the denominator differs
        entries = dict(table4.entries)
        entries[(1, 1, 0)] = entries[(1, 1, 0)].scale(Fraction(1, 2))
        broken = table_of(4, entries)
        nums, den = broken.cleared_entry((1, 1, 0))
        assert (nums, den) == (table4.cleared_entry((1, 1, 0))[0], 4)
        ok, witness = s3_check(broken, (3, 2, 1))
        assert not ok and witness in {(0, 1, 1), (1, 1, 0)}


class TestPersistence:
    def test_roundtrip(self, table4, tmp_path):
        path = tmp_path / "t.json"
        table4.save(path)
        loaded = SchurTable.load(path)
        assert loaded == table4
        assert loaded.checksum() == table4.checksum()
        # canonical bytes are reproducible
        loaded.save(tmp_path / "t2.json")
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()

    def test_loaded_entries_carry_integer_form(self, table12, tmp_path):
        path = tmp_path / "t.json"
        table12.save(path)
        assert_cleared_stored(SchurTable.load(path))

    def test_canonical_json_matches_json_dumps(self, table4, table12, tmp_path):
        # the writer reads the integer form: solved, given and loaded
        path = tmp_path / "t.json"
        path.write_text(json_dumps_table(table12))
        for table in (solve_table(0), table4, table12, perturbed(table12),
                      SchurTable.load(path),
                      SchurTable(0, {}), table_of(2, {(0, 0, 0): LaurentPoly3()})):
            assert rendered(table) == json_dumps_table(table)

    def test_table_suites_leave_the_fraction_view_unbuilt(self, table12, tmp_path,
                                                           monkeypatch):
        # a loaded table holds only orthant forms; the table suites read them
        # and build no Fraction polynomial of an entry: no from_cleared call
        # takes the numerators of a stored form or of one unfolded from it
        path = tmp_path / "t.json"
        table12.save(path)
        table = SchurTable.load(path)
        stored = {id(table.orthant_entry(t)[0]) for t in table.entries}
        unfolded = {}  # keeps each unfolded dict alive, so no id is reused
        real_unfold = table_module.unfold

        def tracked(nums):
            out = real_unfold(nums)
            unfolded[id(out)] = out
            return out

        built = []
        real = LaurentPoly3.from_cleared

        def counted(nums, den):
            if id(nums) in stored or unfolded.get(id(nums)) is nums:
                built.append((nums, den))
            return real(nums, den)

        monkeypatch.setattr(table_module, "unfold", tracked)
        monkeypatch.setattr(LaurentPoly3, "from_cleared", staticmethod(counted))
        assert rendered(table) == path.read_text()
        assert all(c["status"] == "pass" for c in verify_pieri(table))
        assert all(c["status"] == "pass" for c in verify_series(table, 4))
        assert all(c["status"] == "pass" for c in verify_eigen(table, 8))
        assert all(c["status"] == "pass" for c in verify_specialized(table))
        assert len(table) == len(table12) and not built and unfolded
        # each read of an entry, of either table, builds that one anew
        assert table.entries[(1, 1, 0)] == table12.entries[(1, 1, 0)]
        assert table.entries[(1, 1, 0)] is not table.entries[(1, 1, 0)]
        assert built == [table12.cleared_entry((1, 1, 0))] * 4

    def test_save_returns_the_sha256_of_the_file(self, table4, tmp_path):
        path = tmp_path / "t.json"
        digest = table4.save(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_bytes() == rendered(table4).encode()

    @pytest.mark.parametrize("level", [0, 2, 4, 12])
    def test_streamed_pieces_join_to_the_json_dumps_text(self, level):
        # the sink gets the head, one piece per entry and the tail
        table = solve_table(level)
        pieces = []
        table.canonical_json(pieces.append)
        assert len(pieces) == len(table) + 2
        assert "".join(pieces) == json_dumps_table(table)
        assert table.checksum() == hashlib.sha256("".join(pieces).encode()).hexdigest()

    def test_save_holds_one_entry_at_a_time(self, tmp_path):
        # the peak of what save allocates stays far below the file size, so
        # a writer that builds the whole text fails here
        table = solve_table(16)
        path = tmp_path / "t.json"
        table.save(path)
        tracemalloc.start()
        try:
            table.save(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_load_holds_no_whole_text(self, tmp_path):
        # the peak of what load allocates, the table it returns and its parse
        # caches included, stays below the file size, which a reader that
        # holds the whole text exceeds
        table = solve_table(20)
        path = tmp_path / "t.json"
        table.save(path)
        tracemalloc.start()
        try:
            loaded = SchurTable.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == table
        assert peak < path.stat().st_size

    def test_mirror_texts_share_the_orthant_text(self):
        # each distinct exponent text is parsed once, and every mirror of an
        # orthant exponent refers to the one string that exponent is cached
        # under, whichever of them is read first
        exp_of = tablefile._ExpTexts().__getitem__

        def text(e):
            return ": [\n" + ",\n".join(f"      {x}" for x in e) + "\n     ],\n     "

        first = exp_of(text((-2, 1, 0)))
        orthant = exp_of(text((2, 1, 0)))
        assert first == ((-2, 1, 0), text((2, 1, 0)), 0)
        assert orthant == ((2, 1, 0), text((2, 1, 0)), 4)
        assert first[1] is orthant[1]
        assert exp_of(text((-2, -1, 0)))[1] is orthant[1]
        assert exp_of(text((2, 1, 0))) is orthant

    @pytest.mark.parametrize("chunk", [7, 64, 1000])
    def test_chunks_far_smaller_than_an_entry(self, table12, tmp_path, monkeypatch,
                                             chunk):
        # entries and separators cut anywhere by the chunks read the same
        path = tmp_path / "t.json"
        table12.save(path)
        default = SchurTable.load(path)
        monkeypatch.setattr(tablefile, "CHUNK", chunk)
        loaded = SchurTable.load(path)
        assert loaded == default == table12
        assert loaded.file_checksum == default.file_checksum == table12.checksum()

    @pytest.mark.parametrize("terms, match", [
        ({(-1, 0, 0): "1/3", (1, 0, 0): "2/3"},
         r"asymmetric entry \(1, 1, 0\): coefficient '1/3' at \(-1, 0, 0\), "
         r"'2/3' at its mirror \(1, 0, 0\)"),
        ({(1, 0, 0): "1"},
         r"asymmetric entry \(1, 1, 0\): term \(1, 0, 0\) has no mirror term "
         r"\(-1, 0, 0\)"),
        ({(-1, 0, 0): "3/8", (0, 0, -1): "1/4", (1, 0, 0): "3/8"},
         r"asymmetric entry \(1, 1, 0\): term \(0, 0, -1\) has no mirror term "
         r"\(0, 0, 1\)"),
    ], ids=["mirror-coefficient", "missing-mirror", "extra-unmirrored"])
    def test_rejects_asymmetric_entry(self, table4, tmp_path, terms, match):
        # each edit keeps the value at ones and canonical texts: only the
        # mirror check can reject it
        payload = self._payload(table4)
        (rec,) = [r for r in payload["entries"] if r["triple"] == [1, 1, 0]]
        rec["poly"] = [{"exp": list(e), "coeff": c} for e, c in sorted(terms.items())]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match=match):
            SchurTable.load(path)

    def test_rejects_entry_not_one_at_ones(self, table4, tmp_path):
        # every coefficient of (1, 2, 1) doubled: the values at ones sum to 2
        payload = self._payload(table4)
        (rec,) = [r for r in payload["entries"] if r["triple"] == [1, 2, 1]]
        for term in rec["poly"]:
            term["coeff"] = str(2 * Fraction(term["coeff"]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match=r"entry \(1, 2, 1\) does not evaluate to 1"):
            SchurTable.load(path)

    def _payload(self, table):
        return json.loads(rendered(table))

    def test_rejects_nonadmissible_triple(self, table4, tmp_path):
        payload = self._payload(table4)
        payload["entries"].append(
            {"triple": [1, 1, 1], "poly": [{"exp": [0, 0, 0], "coeff": "1"}]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match="non-admissible"):
            SchurTable.load(path)

    def test_rejects_missing_origin(self, table4, tmp_path):
        payload = self._payload(table4)
        payload["entries"] = [
            rec for rec in payload["entries"] if rec["triple"] != [0, 0, 0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match="incomplete"):
            SchurTable.load(path)

    def test_rejects_declared_level_above_its_entries(self, table4, tmp_path):
        # a huge declared level is rejected by counting, without enumerating it
        payload = self._payload(table4)
        payload["max_level"] = 10 ** 9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match=r"missing \(0, 3, 3\)"):
            SchurTable.load(path)

    def test_rejects_malformed_rational(self, table4, tmp_path):
        payload = self._payload(table4)
        payload["entries"][0]["poly"][0]["coeff"] = "1/0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match="malformed rational"):
            SchurTable.load(path)

    @pytest.mark.parametrize("triple, coeff", [
        ((1, 1, 0), "0.5"), ((1, 1, 0), "5e-1"), ((1, 1, 0), "2/4"),
        ((1, 1, 0), "+1/2"), ((1, 1, 0), " 1/2"), ((1, 1, 0), "1_0/20"),
        ((0, 0, 0), "1/1"), ((0, 0, 0), 1)])
    def test_rejects_noncanonical_rational(self, table4, tmp_path, triple, coeff):
        # each text denotes the stored value, so only its form is at fault;
        # an unquoted number is not a coefficient text of the layout at all
        payload = self._payload(table4)
        (rec,) = [r for r in payload["entries"] if tuple(r["triple"]) == triple]
        assert Fraction(rec["poly"][0]["coeff"]) == Fraction(coeff)
        rec["poly"][0]["coeff"] = coeff
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        match = "malformed rational" if isinstance(coeff, str) else "canonical layout"
        with pytest.raises(TableError, match=match):
            SchurTable.load(path)

    def test_rejects_version_mismatch(self, table4, tmp_path):
        payload = self._payload(table4)
        payload["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        with pytest.raises(TableError, match="version"):
            SchurTable.load(path)

    def test_rejects_truncated_file(self, table4, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(rendered(table4)[:40])
        with pytest.raises(TableError, match="unreadable"):
            SchurTable.load(path)

    def test_rejects_non_utf8_file(self, table4, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(rendered(table4).encode().replace(b"1/2", b"1/2\xe9", 1))
        with pytest.raises(TableError, match="unreadable table file"):
            SchurTable.load(path)

    def test_rejects_duplicate_and_unordered_records(self, table4, tmp_path):
        # the layout holds each record once, in increasing order
        path = tmp_path / "bad.json"
        payload = self._payload(table4)
        for edit, match in [
                (lambda entries: entries.insert(1, entries[1]),
                 r"duplicate triple \(0, 1, 1\)"),
                (lambda entries: entries.reverse(),
                 r"triples out of order: \(2, 1, 1\) after \(2, 2, 0\)"),
                (lambda entries: entries[-1]["poly"].insert(1, entries[-1]["poly"][0]),
                 r"duplicate exponent \(-2, 0, 0\) in entry \(2, 2, 0\)"),
                (lambda entries: entries[-1]["poly"].reverse(),
                 r"exponents out of order in entry \(2, 2, 0\): \(0, 0, 0\) after \(2, 0, 0\)")]:
            entries = json.loads(rendered(table4))["entries"]
            edit(entries)
            payload["entries"] = entries
            path.write_text(json.dumps(payload, indent=1) + "\n")
            with pytest.raises(TableError, match=match):
                SchurTable.load(path)

    @pytest.mark.parametrize("old, new, match", [
        ('"coeff": "1/2"', '"coeff": "0"', "stored zero coefficient"),
        ('"max_level": 4', '"max_level": -4', "invalid max_level: -4"),
        ('"max_level": 4', '"max_level": 1' + "0" * 5000, "unreadable table file"),
    ], ids=["zero-coeff", "negative-level", "level-beyond-int-digit-limit"])
    def test_rejects_values_that_fit_the_layout(self, table4, tmp_path, old, new, match):
        path = tmp_path / "bad.json"
        path.write_text(rendered(table4).replace(old, new, 1))
        with pytest.raises(TableError, match=match):
            SchurTable.load(path)


class TestLayoutReader:
    """``SchurTable.load`` reads the one layout ``canonical_json`` writes."""

    @pytest.mark.parametrize("level", range(0, 13, 2))
    def test_matches_json_oracle(self, level, tmp_path):
        path = tmp_path / "t.json"
        table = solve_table(level)
        table.save(path)
        loaded = SchurTable.load(path)
        assert loaded == json_load_table(path) == table

    def test_file_checksum_is_the_sha256_of_the_file(self, table12, tmp_path):
        path = tmp_path / "t.json"
        table12.save(path)
        loaded = SchurTable.load(path)
        assert loaded.file_checksum == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.file_checksum == table12.checksum() == loaded.checksum()
        assert table12.file_checksum is None

    @pytest.mark.parametrize("edit, line", [
        (lambda text: json.dumps(json.loads(text)), 1),
        (lambda text: json.dumps(json.loads(text), indent=2) + "\n", 2),
        (lambda text: text.replace('"coeff": "1"', '"coeff": 1', 1), 18),
        (lambda text: text.replace(' "max_level": 4,\n', ' "max_level": 4,\n "max_level": 4,\n'), 4),
        (lambda text: text.replace('\n   "poly"', '\n   "note": "",\n   "poly"', 1), 11),
        (lambda text: text.replace('"1/2"', '"\\u0031/2"', 1), 35),
        (lambda text: text.replace("\n", "\r\n"), 1),
        (lambda text: text.replace("    0,\n", "    00,\n", 1), 7),
        (lambda text: text.replace("      0,\n", "      -0,\n", 1), 14),
        (lambda text: text[:-1], 368),
        (lambda text: text + "\n", 369),
        (lambda text: text[:40], 3),
        (lambda text: text[:41], 4),
        (lambda text: "", 1),
    ], ids=["compact", "indent-2", "unquoted-coeff", "duplicate-key", "extra-key",
            "escape", "crlf", "leading-zero", "minus-zero", "no-final-newline",
            "trailing-line", "cut-line", "cut-after-line", "empty"])
    def test_departure_names_its_line(self, table4, tmp_path, edit, line):
        path = tmp_path / "bad.json"
        path.write_text(edit(rendered(table4)), newline="")
        with pytest.raises(TableError, match=rf"^unreadable table file: line {line} "
                                             "departs from the canonical layout"):
            SchurTable.load(path)

    @pytest.fixture(scope="class")
    def canonical4(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("canonical") / "t4.json"
        solve_table(4).save(path)
        return path

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_single_character_edits(self, canonical4, data):
        # an edit is rejected, or the edited text is the canonical text of the
        # table it loads as, and its hash the table's checksum
        text = canonical4.read_text()
        pos = data.draw(st.integers(0, len(text) - 1), label="pos")
        kind = data.draw(st.sampled_from(["delete", "insert", "replace"]), label="kind")
        char = data.draw(st.sampled_from(list("0123456789 \"\n-/,")), label="char")
        edited = (text[:pos] + (char if kind != "delete" else "")
                  + text[pos + (kind != "insert"):])
        path = canonical4.with_name("edited.json")
        path.write_text(edited, newline="")
        try:
            table = SchurTable.load(path)
        except TableError as exc:
            if "canonical layout" in str(exc):
                # the departure is on the edited line or, if that still reads
                # as a line of the layout, the one after it
                line = text.count("\n", 0, pos) + 1
                assert f"line {line} " in str(exc) or f"line {line + 1} " in str(exc)
            return
        assert rendered(table) == edited
        assert table.file_checksum == table.checksum()
