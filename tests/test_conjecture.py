from fractions import Fraction

import pytest

from g2schur import conjecture
from g2schur.conjecture import conjecture_check, conjecture_coeff


class TestCoefficient:
    def test_frozen_single_copy_values(self):
        assert conjecture_coeff([(0, 0, 0)]) == 1
        assert conjecture_coeff([(1, 0, 0)]) == Fraction(1, 2)
        assert conjecture_coeff([(0, 1, 0)]) == Fraction(1, 2)
        assert conjecture_coeff([(0, 0, 1)]) == Fraction(-1, 6)
        assert conjecture_coeff([(2, 0, 0)]) == Fraction(1, 3)

    def test_two_copy_values(self):
        assert conjecture_coeff([(0, 0, 0), (0, 0, 0)]) == 1
        # symmetric in the copies
        assert conjecture_coeff([(1, 0, 0), (0, 0, 1)]) == \
            conjecture_coeff([(0, 0, 1), (1, 0, 0)])

    def test_sign_pattern(self):
        assert conjecture_coeff([(0, 0, 2)]) > 0
        assert conjecture_coeff([(0, 0, 1)]) < 0
        assert conjecture_coeff([(0, 0, 3)]) < 0

    def test_invalid_vectors(self):
        with pytest.raises(ValueError):
            conjecture_coeff([])
        with pytest.raises(ValueError):
            conjecture_coeff([(1, -1, 0)])


@pytest.fixture(scope="module")
def report(expansions12):
    return conjecture_check(1, 4, expansions12)


class TestSingleCopyReport:
    def test_normalization_recorded(self, report):
        assert report.normalization.serialize() == {
            "num": ["1"], "den": ["0", "-1", "0", "1"]}

    def test_doubled_reading_matches(self, report):
        recs = [r for r in report.records if r["reading"] == "doubled"]
        assert recs and all(r["match"] for r in recs)

    def test_literal_mismatch_recorded(self, report):
        rec = next(r for r in report.records
                   if r["reading"] == "literal" and r["indices"] == [[2, 0, 0]])
        assert rec["conjecture"] == "1/3"
        assert rec["extracted"] == "1/2"
        assert not rec["match"]

    def test_monomial_bookkeeping(self, report):
        rec = next(r for r in report.records
                   if r["reading"] == "doubled" and r["indices"] == [[1, 0, 0]])
        assert rec["monomials"] == [[2, 0, 0]]
        assert rec["match"]

    def test_report_serializes(self, report):
        import json

        blob = json.dumps(report.serialize())
        assert "doubled" in blob

    def test_summary_counts(self, report):
        summary = report.summary()
        assert summary["doubled"]["mismatches"] == 0
        assert summary["literal"]["mismatches"] > 0
        for reading in ("literal", "doubled"):
            assert summary[reading]["compared"] == (
                summary[reading]["matches"] + summary[reading]["mismatches"])


class TestTwoCopyReport:
    def test_small_order(self, expansions12):
        report = conjecture_check(2, 2, expansions12)
        doubled = [r for r in report.records if r["reading"] == "doubled"]
        assert doubled and all(r["match"] for r in doubled)
        zero = next(r for r in report.records
                    if r["indices"] == [[0, 0, 0], [0, 0, 0]]
                    and r["reading"] == "literal")
        assert zero["match"] and zero["extracted"] == "1"

    def test_one_extraction_per_multiset(self, expansions12, monkeypatch):
        # a product of families does not depend on the order of its factors:
        # the 210 ordered tuples of monomials at order 4 are 110 multisets,
        # and swapped copies read the same value
        real = conjecture.leading_pole_coefficient
        shifts = []

        def counted(p, sign, shift):
            shifts.append(shift)
            return real(p, sign, shift)

        monkeypatch.setattr(conjecture, "leading_pole_coefficient", counted)
        report = conjecture_check(2, 4, expansions12)
        assert len(shifts) == 110
        assert len({tuple(map(tuple, r["monomials"])) for r in report.records}) == 210
        extracted = {tuple(map(tuple, r["monomials"])): r["extracted"]
                     for r in report.records}
        assert all(extracted[key[::-1]] == value for key, value in extracted.items())

    def test_copy_guard(self, expansions12):
        with pytest.raises(ValueError):
            conjecture_check(0, 2, expansions12)
