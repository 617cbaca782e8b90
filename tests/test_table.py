import hashlib
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur.cauchy import verify_specialized
from g2schur.diffops import verify_eigen
from g2schur.expansion import verify_series
from g2schur.laurent import LaurentPoly3, x_plus_inv
from g2schur.table import (FORMAT_VERSION, FalsificationError, SchurTable,
                           TableError, _pieri_terms, enumerate_level,
                           enumerate_through, is_admissible, leading_term,
                           pieri_coeff, predecessor_equations, s3_check,
                           solve_table, verify_pieri)
from g2schur.tablefile import _parse_coeff
from tests.test_laurent import flip


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
    lhs = x_plus_inv(eq) * table.entry(base)
    rhs = LaurentPoly3.zero()
    for target, coeff in _pieri_terms(eq, base):
        if coeff and is_admissible(*target):
            rhs = rhs + table.entry(target).scale(coeff)
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


def assert_cleared_stored(table):
    """Each entry is stored in its reduced integer form: the ``cleared()`` of
    the ``Fraction`` polynomial that ``entries`` builds from it."""
    assert set(table._forms) == set(table.entries)
    for t, form in table._forms.items():
        assert table.entries[t].cleared() == form, t


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
    the payload.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format_version"] == FORMAT_VERSION
    table = SchurTable(payload["max_level"])
    for rec in payload["entries"]:
        terms = {tuple(term["exp"]): _parse_coeff(term["coeff"])
                 for term in rec["poly"]}
        den = lcm(*[q for _, q in terms.values()])
        table._forms[tuple(rec["triple"])] = (
            {e: p * (den // q) for e, (p, q) in terms.items()}, den)
    return table


def perturbed(table):
    """A copy of ``table`` with a few entries off their recursions."""
    entries = dict(table.entries)
    bump = x_plus_inv(0) - LaurentPoly3.constant(Fraction(2))
    entries[(2, 1, 1)] = entries[(2, 1, 1)] + bump.scale(Fraction(1, 5))
    entries[(1, 2, 3)] = entries[(1, 2, 3)].scale(Fraction(-3, 7))
    entries[(4, 4, 0)] = entries[(4, 4, 0)] + LaurentPoly3.monomial(
        (0, 2, -1), Fraction(-7, 3))
    return SchurTable(table.max_level, entries)


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
        records = verify_pieri(SchurTable(4, entries))
        assert [r["triple"] for r in records if r["check"] == "unit-value"
                and r["status"] == "fail"] == [[1, 2, 1]]

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
                    nonzero += bool(got)
        assert nonzero > 100

    def test_replaced_entry_is_recleared(self, table8):
        table = SchurTable(8, dict(table8.entries))
        assert not table.pieri_residual(0, (1, 0, 1))
        table.entries[(2, 1, 1)] = table.entries[(2, 1, 1)].scale(Fraction(2))
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
        broken = SchurTable(4, entries)
        ok, witness = s3_check(broken, (3, 2, 1))
        assert not ok and witness is not None

    def test_violation_in_denominator_only(self, table4):
        # halving (1, 1, 0) keeps its numerators; only the denominator differs
        entries = dict(table4.entries)
        entries[(1, 1, 0)] = entries[(1, 1, 0)].scale(Fraction(1, 2))
        broken = SchurTable(4, entries)
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
        # the writer reads the integer form: solved, assigned and loaded
        path = tmp_path / "t.json"
        path.write_text(json_dumps_table(table12))
        for table in (solve_table(0), table4, table12, perturbed(table12),
                      SchurTable.load(path),
                      SchurTable(0, {}), SchurTable(2, {(0, 0, 0): LaurentPoly3()})):
            assert table.canonical_json() == json_dumps_table(table)

    def test_table_suites_leave_the_fraction_view_unbuilt(self, table12, tmp_path):
        # a loaded table holds only integer forms; the table suites read them
        # and build no Fraction polynomial of an entry
        path = tmp_path / "t.json"
        table12.save(path)
        table = SchurTable.load(path)
        assert table.canonical_json() == path.read_text()
        assert all(c["status"] == "pass" for c in verify_pieri(table))
        assert all(c["status"] == "pass" for c in verify_series(table, 4))
        assert all(c["status"] == "pass" for c in verify_eigen(table, 8))
        assert all(c["status"] == "pass" for c in verify_specialized(table))
        assert len(table) == len(table12) and not table.entries._polys
        # reading one entry builds that one
        assert table.entries[(1, 1, 0)] == table12.entries[(1, 1, 0)]
        assert list(table.entries._polys) == [(1, 1, 0)]

    def test_save_returns_file_text(self, table4, tmp_path):
        path = tmp_path / "t.json"
        assert table4.save(path) == path.read_text() == table4.canonical_json()

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
        return json.loads(table.canonical_json())

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
        path.write_text(table4.canonical_json()[:40])
        with pytest.raises(TableError, match="unreadable"):
            SchurTable.load(path)

    def test_rejects_non_utf8_file(self, table4, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(table4.canonical_json().encode().replace(b"1/2", b"1/2\xe9", 1))
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
            entries = json.loads(table4.canonical_json())["entries"]
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
        path.write_text(table4.canonical_json().replace(old, new, 1))
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
        assert not loaded.entries._polys

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
        path.write_text(edit(table4.canonical_json()), newline="")
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
        assert table.canonical_json() == edited
        assert table.file_checksum == table.checksum()
