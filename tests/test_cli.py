import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2schur import (cauchy, cli, closedform, conjecture, diffops, expansion,
                     kernels)
from g2schur import poles as pole_module
from g2schur import table as table_module
from g2schur.cli import main
from g2schur.klocal import KLocal
from g2schur.laurent import LaurentPoly3
from g2schur.series import exponents_upto
from g2schur.table import (FalsificationError, SchurTable, enumerate_through,
                           solve_table)
from tests.conftest import table_of, x_plus_inv

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def roundtrip_failure(path, report):
    """The one record of a roundtrip whose render departs from the file at
    ``path``: it fails with the SHA-256 of the file and of the render, the
    report's ``table_checksum``."""
    file_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["table_checksum"] != file_sha256
    return [{"check": "byte-roundtrip", "status": "fail",
             "witness": {"file_sha256": file_sha256,
                         "render_sha256": report["table_checksum"]}}]


def bump_omega_plus(monkeypatch):
    """Add 1 to the X12^2 coefficient of the plus-type closed form, where
    the ``omega`` command (``closedform``) and ``verify cauchy`` (``cauchy``)
    read it."""
    real = closedform.closedform_omega_plus

    def seeded(order):
        out = real(order)
        out.terms[(2, 0, 0)] = out.coefficient((2, 0, 0)) + 1
        return out

    for module in (closedform, cauchy):
        monkeypatch.setattr(module, "closedform_omega_plus", seeded)


def bump_saved_entry(path):
    """Add (x12 + 1/x12 - 2)/5 to entry (2, 1, 1) of a saved table.

    The value at ones and the (0,0,0) entry are unchanged, so the file still
    loads, but the entry leaves its recursions and its eigenspaces.
    """
    table = SchurTable.load(path)
    entries = dict(table.entries)
    bump = x_plus_inv(0) - LaurentPoly3.constant(Fraction(2))
    entries[(2, 1, 1)] = entries[(2, 1, 1)] + bump.scale(Fraction(1, 5))
    table_of(table.max_level, entries).save(path)


def shift_saved_coefficients(path):
    """Move weight between the two mirror orbits of entry (2, 1, 1) of a
    saved table, (x12 + 1/x12)(x13 + 1/x13) / 3 - (x23 + 1/x23) / 6: the
    texts "1/3" of the first become "2/5" and the texts "-1/6" of the second
    "-3/10".

    The texts stay canonical, the entry stays invariant under each x -> 1/x
    and its value at ones stays 1, so the file loads; the entry leaves its
    recursions, eigenspaces and closed form.
    """
    payload = json.loads(path.read_text())
    (rec,) = [r for r in payload["entries"] if r["triple"] == [2, 1, 1]]
    new = {"1/3": "2/5", "-1/6": "-3/10"}
    assert sorted(t["coeff"] for t in rec["poly"]) == ["-1/6"] * 2 + ["1/3"] * 4
    for term in rec["poly"]:
        term["coeff"] = new[term["coeff"]]
    path.write_text(json.dumps(payload, indent=1) + "\n")


def seed_h1_class_nullspace(monkeypatch, degree, size, seeded):
    """Route the nullspace of one class matrix of H1t through
    ``seeded(real, rows, ncols)``: ``kernel_H1`` eliminates one matrix per
    class of the degree-m monomials with equal (e12 mod 2, e13 mod 2), and
    the one at ``degree`` with ``size`` columns is seeded."""
    real_on, real_nullspace = kernels._kernel_on, kernels.nullspace
    seeding = []

    def kernel_on(images, ks, polys):
        seeding.append(images.degree == degree and ks == (1,) and len(polys) == size)
        try:
            return real_on(images, ks, polys)
        finally:
            seeding.pop()

    def nullspace(rows, ncols):
        if seeding and seeding[-1]:
            return seeded(real_nullspace, rows, ncols)
        return real_nullspace(rows, ncols)

    monkeypatch.setattr(kernels, "_kernel_on", kernel_on)
    monkeypatch.setattr(kernels, "nullspace", nullspace)


class TestTableCommand:
    def test_build_and_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, report = run(capsys, "table", "--max-level", "6", "--out", str(path))
        assert code == 0
        assert report["summary"]["failed"] == 0
        assert path.exists()
        code, report = run(capsys, "roundtrip", "--table", str(path))
        assert code == 0
        assert isinstance(report["elapsed_ms"], int)

    def test_bit_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "table", "--max-level", "4", "--out", str(a))
        run(capsys, "table", "--max-level", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_construct_judges_the_table_built(self, tmp_path, capsys, monkeypatch):
        # a solve that drops one entry fails the construct record with the
        # whole-table check's message; the file is still written
        real = table_module.solve_table

        def seeded(max_level):
            table = real(max_level)
            del table._forms[(2, 1, 1)]
            return table

        monkeypatch.setattr(table_module, "solve_table", seeded)
        path = tmp_path / "t.json"
        code, report = run(capsys, "table", "--max-level", "4", "--out", str(path))
        assert code == 1
        assert report["checks"] == [{
            "check": "construct", "entries": 9, "status": "fail",
            "witness": "incomplete table: missing (2, 1, 1) and 0 more"}]
        assert path.exists()
        assert main(["roundtrip", "--table", str(path)]) == 2

    def test_odd_level_rejected(self, capsys):
        assert main(["table", "--max-level", "5"]) == 2

    def test_corrupted_file_is_operational_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        path.write_text(path.read_text()[:50])
        assert main(["roundtrip", "--table", str(path)]) == 2

    def test_hand_edited_coefficient_detected(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        payload = json.loads(path.read_text())
        for rec in payload["entries"]:
            if rec["triple"] == [1, 1, 0]:
                rec["poly"][0]["coeff"] = "1/3"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        # value-at-ones validation rejects the edit at load time
        assert main(["roundtrip", "--table", str(path)]) == 2
        assert "entry (1, 1, 0) does not evaluate to 1" in capsys.readouterr().err

    def test_noncanonical_coefficient_is_operational_error(self, tmp_path, capsys):
        # "2/4" has the right value but is not the canonical text of 1/2
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        path.write_text(path.read_text().replace('"1/2"', '"2/4"', 1))
        assert main(["verify", "pieri", "--max-level", "4", "--table", str(path)]) == 2

    @pytest.mark.parametrize("where", ["triple", "exp"])
    def test_boolean_for_integer_is_operational_error(self, tmp_path, capsys, where):
        # JSON true is not the integer 1, though Python compares them equal
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        doc = json.loads(path.read_text())
        (rec,) = [r for r in doc["entries"] if r["triple"] == [1, 1, 0]]
        node = rec["triple"] if where == "triple" else next(
            term["exp"] for term in rec["poly"] if 1 in term["exp"])
        node[node.index(1)] = True
        path.write_text(json.dumps(doc, indent=1) + "\n")
        assert main(["verify", "pieri", "--max-level", "4", "--table", str(path)]) == 2

    @pytest.mark.parametrize("edit", [
        lambda doc: [],
        lambda doc: {**doc, "entries": [{"triple": [0, 0, 0]}]},
        lambda doc: {**doc, "entries": [5]},
    ], ids=["list-file", "record-without-poly", "number-record"])
    def test_wrong_shape_is_operational_error(self, tmp_path, capsys, edit):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        path.write_text(json.dumps(edit(json.loads(path.read_text())), indent=1) + "\n")
        assert main(["roundtrip", "--table", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit", [
        lambda text: json.dumps(json.loads(text)),
        lambda text: json.dumps(json.loads(text), indent=2) + "\n",
        lambda text: json.dumps({**json.loads(text), "comment": ""}, indent=1) + "\n",
        lambda text: text.replace(' "max_level": 4,\n', ' "max_level": 2,\n "max_level": 4,\n'),
    ], ids=["compact", "re-indented", "extra-key", "duplicate-key"])
    def test_other_json_layouts_are_operational_errors(self, tmp_path, capsys, edit):
        # the same payload in another JSON text is not a table file
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        text = edit(path.read_text())
        assert json.loads(text)["max_level"] == 4
        path.write_text(text)
        for argv in (["roundtrip"], ["verify", "pieri", "--max-level", "4"]):
            assert main([*argv, "--table", str(path)]) == 2
            assert "departs from the canonical layout" in capsys.readouterr().err

    def test_roundtrip_fails_when_the_writer_departs(self, tmp_path, capsys, monkeypatch):
        # the reader accepts the file; the writer, seeded with one extra
        # space per term, no longer reproduces it
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        monkeypatch.setattr(table_module, "_TERM",
                            table_module._TERM.replace('"coeff": ', '"coeff":  '))
        code, report = run(capsys, "roundtrip", "--table", str(path))
        assert code == 2
        assert report["checks"] == roundtrip_failure(path, report)

    @pytest.mark.parametrize("edit", [
        lambda pieces: [*pieces[:-2], pieces[-2].replace('"coeff": ', '"coeff":  '),
                        pieces[-1]],
        lambda pieces: [*pieces[:-1], pieces[-1][:-1]],
        lambda pieces: [*pieces, "\n"],
    ], ids=["last-entry", "short-of-the-final-newline", "extra-piece"])
    def test_roundtrip_fails_at_each_edge_of_the_file(self, tmp_path, capsys,
                                                     monkeypatch, edit):
        # the render departs only in its last entry, stops short of the
        # file's end, or runs past it; each must fail the comparison
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        render = SchurTable.canonical_json

        def seeded(self, write):
            pieces = []
            render(self, pieces.append)
            for piece in edit(pieces):
                write(piece)

        monkeypatch.setattr(SchurTable, "canonical_json", seeded)
        code, report = run(capsys, "roundtrip", "--table", str(path))
        assert code == 2
        assert report["checks"] == roundtrip_failure(path, report)

    def test_roundtrip_fails_when_the_writer_skips_a_mirror_term(
            self, tmp_path, capsys, monkeypatch):
        # the render of the last entry, (2, 2, 0), leaves out its first
        # term, at (-2, 0, 0), one of the mirror terms the writer unfolds
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        render = SchurTable.canonical_json
        term = re.compile(r'    \{\n     "exp": \[\n      -2,[^}]*\},\n')

        def seeded(self, write):
            pieces = []
            render(self, pieces.append)
            pieces[-2], dropped = term.subn("", pieces[-2], count=1)
            assert dropped == 1
            for piece in pieces:
                write(piece)

        monkeypatch.setattr(SchurTable, "canonical_json", seeded)
        code, report = run(capsys, "roundtrip", "--table", str(path))
        assert code == 2
        assert report["checks"] == roundtrip_failure(path, report)

    def test_roundtrip_renders_one_entry_at_a_time(self, tmp_path, monkeypatch):
        # past the load, the peak of what roundtrip allocates to render and
        # hash the table stays far below the file size, so a render of the
        # whole text fails here
        path = tmp_path / "t.json"
        solve_table(16).save(path)
        table = SchurTable.load(path)
        monkeypatch.setattr(SchurTable, "load", staticmethod(lambda _: table))
        cfg = cli.build_parser().parse_args(["roundtrip", "--table", str(path)])
        tracemalloc.start()
        try:
            code, report = cli.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report.table_checksum == table.file_checksum
        assert peak < path.stat().st_size / 2


class TestVerifyCommands:
    def test_eigen_from_saved_table(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "6", "--out", str(path))
        code, report = run(capsys, "verify", "eigen", "--max-level", "6",
                           "--table", str(path))
        assert code == 0
        assert report["summary"]["failed"] == 0
        assert report["table_checksum"]

    def test_pieri_suite(self, capsys):
        code, report = run(capsys, "verify", "pieri", "--max-level", "6")
        assert code == 0 and report["summary"]["failed"] == 0

    def test_kernel_suite_small(self, capsys):
        code, report = run(capsys, "verify", "kernel", "--order", "4")
        assert code == 0 and report["summary"]["failed"] == 0
        dims = next(c for c in report["checks"]
                    if c["check"] == "kernel-dims" and c["degree"] == 2)
        assert dims["dim_pair_12"] == 1 and dims["dim_triple"] == 0

    def test_kernel_falsification_keeps_later_checks(self, capsys, monkeypatch):
        # drop one kernel vector at degree 6 only, from the class of even
        # (e12, e13), the one with 10 of the 28 monomials, which holds the
        # whole kernel
        seed_h1_class_nullspace(monkeypatch, 6, 10,
                                lambda real, rows, ncols: real(rows, ncols)[:-1])
        code, report = run(capsys, "verify", "kernel", "--order", "12")
        assert code == 1
        checks = report["checks"]
        failed = [c for c in checks if c["status"] == "fail"]
        # the dimension alone fails kernel-H1; the pair kernels inside the
        # smaller kernel then miss the displayed vector
        assert failed == [
            {"check": "kernel-H1", "degree": 6, "dim": 3, "status": "fail",
             "witness": {"expected": 4}},
            {"check": "kernel-dims", "degree": 6, "dim_H1": 3, "dim_pair_12": 0,
             "dim_pair_13": 0, "dim_triple": 0, "status": "fail",
             "witness": {"expected": {"dim_pair_12": 1, "dim_pair_13": 1,
                                      "dim_triple": 0}}}]
        assert not any(c["check"] == "falsification" for c in checks)
        assert [c["degree"] for c in checks if c["check"] == "kernel-H1"] == \
            list(range(13))
        assert [c["degree"] for c in checks if c["check"] == "kernel-dims"] == \
            list(range(13))
        assert any(c["check"] == "H2-action" for c in checks)
        assert any(c["check"] == "H3-leading" for c in checks)

    def test_kernel_wrong_operator_entry_fails(self, capsys, monkeypatch):
        # one wrong entry in the first operator's matrix at degree 4: the
        # image of X23^4, in the kernel, gains a monomial that no other
        # monomial of its class reaches, one more row in the matrix of the
        # class of even (e12, e13), the one with 6 of the 15 monomials
        def seeded(real, rows, ncols):
            return real([*rows, [1] + [0] * (ncols - 1)], ncols)

        seed_h1_class_nullspace(monkeypatch, 4, 6, seeded)
        code, report = run(capsys, "verify", "kernel", "--order", "12")
        assert code == 1
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [(c["check"], c["degree"]) for c in failed] == [
            ("kernel-H1", 4), ("kernel-dims", 4)]
        assert failed[0]["dim"] == 2
        assert any(c["check"] == "kernel-H1" and c["degree"] == 12
                   for c in report["checks"])
        assert any(c["check"] == "H3-leading" for c in report["checks"])

    def test_kernel_wrong_legendre_coefficient_fails(self, capsys, monkeypatch):
        # P_2 = (3x^2 - 1)/2 with the x^2 coefficient bumped to 5/2
        real = kernels._legendre_numerators
        monkeypatch.setattr(kernels, "_legendre_numerators",
                            lambda n: ((-1, 0, 5), 2) if n == 2 else real(n))
        code, report = run(capsys, "verify", "kernel", "--order", "6")
        assert code == 1
        witnesses = [c for c in report["checks"] if c["check"] == "falsification"]
        assert witnesses and all(c["status"] == "fail" for c in witnesses)
        assert witnesses[0]["degree"] == 2
        assert "P_(2," in witnesses[0]["witness"]

    def test_kernel_wrong_cubic_legendre_coefficient_fails(self, capsys, monkeypatch):
        # P_3 = (5x^3 - 3x)/2 with the x^3 coefficient bumped to 7/2: the
        # base element that holds it, P_(m,m-3,3), is no eigenvector, and
        # from degree 6 on the claimed span holds P_(m,3,3); the suite runs
        # through degree 12 whatever the order
        real = kernels._legendre_numerators
        monkeypatch.setattr(kernels, "_legendre_numerators",
                            lambda n: ((0, -3, 0, 7), 2) if n == 3 else real(n))
        code, report = run(capsys, "verify", "kernel", "--order", "6")
        assert code == 1
        checks = report["checks"]
        witnesses = {c["degree"]: c["witness"] for c in checks
                     if c["check"] == "falsification"}
        assert witnesses == {
            **{m: f"diagonalization failed on P_({m},{m - 3},3)" for m in (3, 4, 5)},
            **{m: f"computed kernel vector outside the claimed span at degree {m}"
               for m in range(6, 13)}}
        assert all(c["status"] == "fail" for c in checks
                   if c["check"] == "falsification")
        assert [(c["degree"], c["status"]) for c in checks
                if c["check"] == "kernel-H1"] == [(0, "pass"), (1, "pass"),
                                                  (2, "pass")]

    def test_cauchy_pole_falsification_keeps_later_checks(self, capsys, monkeypatch):
        # a minus-type bound of 1 is below the true order 2 of the sums; the
        # extraction and the records read the one POLE_BOUND dict
        monkeypatch.setitem(pole_module.POLE_BOUND, "-", 1)
        code, report = run(capsys, "verify", "cauchy", "--max-level", "8",
                           "--order", "2", "--lambda-order", "2")
        assert code == 1
        checks = report["checks"]
        poles = [c for c in checks if c["check"] == "pole-order"]
        assert len(poles) == 2 * len(exponents_upto(2))
        failed = [c for c in poles if c["status"] == "fail"]
        assert failed and {c["sign"] for c in failed} == {"-"}
        for rec in failed:
            assert "exceeds bound 1" in rec["witness"]["message"]
            assert rec["witness"]["coefficient"]["num"]
        assert all(c["status"] == "pass" for c in poles if c["sign"] == "+")
        assert [c["stage"] for c in checks if c["check"] == "falsification"] == [
            "omega-minus-vs-closedform"]
        assert {c["check"] for c in checks} >= {
            "pde-omega-", "pde-omega+", "omega-plus-euler-relation"}
        assert {c["sign"] for c in checks if c["check"] == "initial-condition"} == {
            "-", "+"}

    def test_cauchy_zero_omega_minus_fails(self, capsys, monkeypatch):
        # a zero Omega_- gives normalization 0, which must not pass
        real = cauchy.omega_from_sums
        monkeypatch.setattr(cauchy, "omega_from_sums",
                            lambda es, sign, order: (cauchy.OmegaSeries(
                                sign, order, {}), real(es, sign, order)[1]))
        code, report = run(capsys, "verify", "cauchy", "--max-level", "8",
                           "--order", "2")
        assert code == 1
        (rec,) = [c for c in report["checks"]
                  if c["check"] == "omega-minus-vs-closedform"]
        assert rec["status"] == "fail" and rec["normalization"] is None
        assert [c for c in report["checks"] if c["status"] == "fail"] == [rec]
        # the witness holds the two (0,0,0) coefficients of the normalization
        assert rec["witness"] == {
            "monomial": [0, 0, 0], "sums": {"num": [], "den": ["1"]},
            "closed_form": {"num": ["1"], "den": ["0", "-1", "0", "1"]}}

    def test_cauchy_wrong_omega_minus_coefficient_fails_with_its_monomial(
            self, capsys, monkeypatch):
        # the X12^2 coefficient of Omega_- from the sums doubled: the
        # normalization holds, and the witness names that monomial
        real = cauchy.omega_from_sums

        def doubled(es, sign, order):
            om, records = real(es, sign, order)
            om.coeffs[(2, 0, 0)] = om.coeffs[(2, 0, 0)] * 2
            return om, records

        monkeypatch.setattr(cauchy, "omega_from_sums", doubled)
        code, report = run(capsys, "verify", "cauchy", "--max-level", "8",
                           "--order", "2", "--lambda-order", "2")
        assert code == 1
        (rec,) = [c for c in report["checks"] if c["status"] == "fail"]
        assert rec == {
            "check": "omega-minus-vs-closedform", "order": 2,
            "normalization": {"num": ["1"], "den": ["1"]}, "status": "fail",
            "witness": {"monomial": [2, 0, 0],
                        "sums": {"num": ["1"], "den": ["0", "-1", "0", "1"]},
                        "ratio_times_closed_form": {
                            "num": ["1/2"], "den": ["0", "-1", "0", "1"]}}}

    def test_cauchy_wrong_plus_closed_form_keeps_later_checks(self, capsys,
                                                             monkeypatch):
        bump_omega_plus(monkeypatch)
        code, report = run(capsys, "verify", "cauchy", "--max-level", "8",
                           "--order", "2", "--lambda-order", "2")
        assert code == 1
        checks = report["checks"]
        failed = {c["check"] for c in checks if c["status"] == "fail"}
        assert {"pde-omega+", "omega-plus-euler-relation"} <= failed
        assert "pde-omega-" not in failed
        # the same witness as the emit record of omega
        (euler,) = [c for c in checks if c["check"] == "omega-plus-euler-relation"]
        assert euler["witness"] == {"monomial": [2, 0, 0], "closed_form": "-1",
                                    "from_minus": "-2"}
        assert any(c["check"] == "pde-omega-" for c in checks)
        assert {c["sign"] for c in checks if c["check"] == "initial-condition"} == {
            "-", "+"}
        assert not any(c["check"] == "falsification" for c in checks)

    def test_cauchy_rejected_table_keeps_other_checks(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        bump_saved_entry(path)
        code, report = run(capsys, "verify", "cauchy", "--max-level", "8",
                           "--order", "2", "--lambda-order", "2", "--table", str(path))
        assert code == 1
        checks = report["checks"]
        (witness,) = [c for c in checks if c["check"] == "falsification"]
        assert witness["stage"] == "expansions" and "(2, 1, 1)" in witness["witness"]
        assert any(c["check"] == "H1-log-derivative" for c in checks)
        assert {c["check"] for c in checks} >= {
            "pde-omega-", "pde-omega+", "omega-plus-euler-relation",
            "initial-condition"}

    def test_cauchy_failed_family_fit_keeps_other_checks(self, capsys, monkeypatch):
        # a family no polynomial fits fails its pole-order records, not the suite
        real = expansion.ExpansionSet.fit_family

        def seeded(self, mvec):
            if tuple(mvec) == (2, 0, 0):
                raise FalsificationError("degree bound violated for (2, 0, 0)")
            return real(self, mvec)

        monkeypatch.setattr(expansion.ExpansionSet, "fit_family", seeded)
        code, report = run(capsys, "verify", "cauchy", "--max-level", "8",
                           "--order", "2", "--lambda-order", "2")
        assert code == 1
        checks = report["checks"]
        failed = [c for c in checks if c["status"] == "fail"]
        assert [(c["check"], c.get("sign"), c.get("mvec")) for c in failed] == [
            ("pole-order", "-", [2, 0, 0]), ("pole-order", "+", [2, 0, 0]),
            ("falsification", None, None)]
        assert all("(2, 0, 0)" in c["witness"]["message"] for c in failed[:2])
        assert failed[2]["stage"] == "omega-minus-vs-closedform"
        assert "(2, 0, 0)" in failed[2]["witness"]
        assert len([c for c in checks if c["check"] == "pole-order"]) == 2 * len(
            exponents_upto(2))
        assert {c["check"] for c in checks} >= {
            "H1-log-derivative", "pde-omega-", "pde-omega+",
            "omega-plus-euler-relation", "initial-condition"}

    def test_changed_coefficient_text_fails_every_table_suite(self, tmp_path, capsys):
        # the integer routes give the records of the Fraction routes they
        # replaced, witnesses included; every failing record carries one
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        shift_saved_coefficients(path)
        failed = {}
        for suite in ("pieri", "eigen", "series", "specialized"):
            # verify series validates the families through order 3 at level 8
            code, report = run(capsys, "verify", suite, "--max-level", "8",
                               "--order", "3", "--table", str(path))
            assert code == 1, suite
            failed[suite] = [c for c in report["checks"] if c["status"] == "fail"]
            assert all(c.get("witness") for c in failed[suite]), suite
        assert [(c["check"], tuple(c.get("triple", c.get("sigma"))), c.get("equation"))
                for c in failed["pieri"]] == [
            ("pieri", (1, 0, 1), 1), ("pieri", (1, 1, 0), 2), ("pieri", (1, 1, 2), 2),
            ("pieri", (1, 2, 1), 1), ("pieri", (2, 0, 2), 3), ("pieri", (2, 1, 1), 1),
            ("pieri", (2, 1, 1), 2), ("pieri", (2, 1, 1), 3), ("pieri", (2, 2, 0), 3),
            ("pieri", (2, 2, 2), 3), ("pieri", (3, 1, 2), 2), ("pieri", (3, 2, 1), 1),
            ("s3-symmetry", (2, 1, 3), None), ("s3-symmetry", (3, 2, 1), None),
            ("s3-symmetry", (2, 3, 1), None), ("s3-symmetry", (3, 1, 2), None)]
        assert failed["pieri"][5]["witness"] == (
            "(1/15)*x12^-2*x13^-1 + (1/15)*x12^-2*x13^1 + (-2/15)*x12^-1*x23^-1"
            " + (-2/15)*x12^-1*x23^1 + (2/15)*x13^-1 + (2/15)*x13^1"
            " + (-2/15)*x12^1*x23^-1 + (-2/15)*x12^1*x23^1 + (1/15)*x12^2*x13^-1"
            " + (1/15)*x12^2*x13^1")
        assert [(c["triple"], c["k"], c["witness"]) for c in failed["eigen"]] == [
            ([2, 1, 1], 1, "(4/5)*x12^-1*x13^-1*x23^-1 + (4/5)*x12^-1*x13^-1*x23^1"
             " + (-4/5)*x12^-1*x13^1*x23^-1 + (-4/5)*x12^-1*x13^1*x23^1"
             " + (-4/5)*x12^1*x13^-1*x23^-1 + (-4/5)*x12^1*x13^-1*x23^1"
             " + (4/5)*x12^1*x13^1*x23^-1 + (4/5)*x12^1*x13^1*x23^1")]
        assert failed["series"] == [{
            "check": "falsification", "stage": "expansions", "status": "fail",
            "witness": "table entry (2, 1, 1) fails its solving equation 1 "
                       "based at (1, 0, 1)"}]
        assert failed["specialized"] == [
            {"check": "specialization-formula", "j1": 2, "j2": 1, "status": "fail",
             "witness": "(-1/15)*x12^-1*x13^-1 + (-1/15)*x12^-1*x13^1 + (4/15)"
                        " + (-1/15)*x12^1*x13^-1 + (-1/15)*x12^1*x13^1"},
            {"check": "specialized-sum", "j1": 2, "J": 2, "labels": 3,
             "mode": "identity", "status": "fail",
             "witness": "(-1/5)*x12^-2*x13^2 + (-1/5)*x12^-2*x13^4"
                        " + (1/5)*x12^-1*x13^1 + (6/5)*x12^-1*x13^3"
                        " + (1/5)*x12^-1*x13^5 + (-6/5)*x13^2 + (-6/5)*x13^4"
                        " + (1/5)*x12^1*x13^1 + (6/5)*x12^1*x13^3"
                        " + (1/5)*x12^1*x13^5 + (-1/5)*x12^2*x13^2"
                        " + (-1/5)*x12^2*x13^4"}]

    def test_asymmetric_coefficient_text_is_operational_error(self, tmp_path, capsys):
        # the earlier shift of this suite, "1/3", "1/3" -> "2/5", "4/15" on the
        # first two terms of (2, 1, 1), keeps the texts canonical and the value
        # at ones, but not the mirror symmetry: no suite runs on it
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        payload = json.loads(path.read_text())
        (rec,) = [r for r in payload["entries"] if r["triple"] == [2, 1, 1]]
        rec["poly"][0]["coeff"], rec["poly"][1]["coeff"] = "2/5", "4/15"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        for suite in ("pieri", "eigen", "series", "specialized"):
            assert main(["verify", suite, "--max-level", "8", "--table", str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: asymmetric entry (2, 1, 1): coefficient '2/5' at (-1, -1, 0), "
                "'1/3' at its mirror (1, 1, 0)")

    def test_specialized_suite(self, capsys):
        code, report = run(capsys, "verify", "specialized", "--max-level", "8")
        assert code == 0 and report["summary"]["failed"] == 0
        assert not any("witness" in c for c in report["checks"])

    def test_specialized_rejects_entry_off_its_closed_form(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        bump_saved_entry(path)
        code, report = run(capsys, "verify", "specialized", "--max-level", "8",
                           "--table", str(path))
        assert code == 1
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        (formula,) = [c for c in failed if c["check"] == "specialization-formula"]
        assert (formula["j1"], formula["j2"]) == (2, 1) and formula["witness"]
        assert ("specialized-sum", 2, 2) in [
            (c["check"], c["j1"], c.get("J")) for c in failed]

    def test_determinism_modulo_timing(self, capsys):
        _, first = run(capsys, "verify", "pieri", "--max-level", "4")
        _, second = run(capsys, "verify", "pieri", "--max-level", "4")
        assert strip_timing(first) == strip_timing(second)

    def test_series_rejects_entry_off_its_recursion(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        args = ["verify", "series", "--max-level", "8", "--order", "2",
                "--table", str(path)]
        assert run(capsys, *args)[0] == 0
        bump_saved_entry(path)
        code, report = run(capsys, *args)
        assert code == 1
        (witness,) = [c for c in report["checks"] if c["status"] == "fail"]
        assert witness["check"] == "falsification"
        assert witness["stage"] == "expansions"
        assert "(2, 1, 1)" in witness["witness"]

    def test_series_wrong_generator_fails_normalization(self, capsys, monkeypatch):
        # x + 1/x at x = 1 + X with a linear term X added: every expansion
        # but the unit's then has a linear part
        real = expansion._x_plus_inv_series

        def seeded(i, order):
            out = real(i, order)
            exp = [0, 0, 0]
            exp[i] = 1
            out.terms[tuple(exp)] = 1
            return out

        monkeypatch.setattr(expansion, "_x_plus_inv_series", seeded)
        code, report = run(capsys, "verify", "series", "--max-level", "8",
                           "--order", "2")
        assert code == 1
        checks = report["checks"]
        norms = [c for c in checks if c["check"] == "expansion-normalization"]
        assert len(norms) == len(enumerate_through(8))
        assert {tuple(c["triple"]) for c in norms if c["status"] == "pass"} == {
            (0, 0, 0)}
        assert not any(c["check"] == "falsification" for c in checks)
        # each failure names the constant term and the degree-1 terms found:
        # (x12 + 1/x12) / 2 expands to 1 + X12 / 2 + ...
        witness = {tuple(c["triple"]): c.get("witness") for c in norms}
        assert witness[(0, 0, 0)] is None
        assert witness[(1, 1, 0)] == "constant term 1; degree-1 terms: 1/2 at (1, 0, 0)"
        assert all(w.startswith("constant term 1; degree-1 terms: ")
                   for t, w in witness.items() if t != (0, 0, 0))

    def test_series_wrong_operator_coefficient_fails_the_recursion(self, capsys,
                                                                  monkeypatch):
        # the X12 d^2/dX12^2 numerator of H_1 read as (1 + X12)^2 + X12: the
        # graded components of H_1 above degree -2 change, those of H_2 and
        # H_3 do not
        real = diffops._coefficients

        def seeded(k):
            rows = list(real(k))  # the cached rows stay as they are
            if k == 1:
                deriv, num, unit, pole = rows[0]
                rows[0] = deriv, {**num, (1, 0, 0): num[(1, 0, 0)] + 1}, unit, pole
            return rows

        diffops.homogeneous_component.cache_clear()
        monkeypatch.setattr(diffops, "_coefficients", seeded)
        try:
            code, report = run(capsys, "verify", "series", "--max-level", "12",
                               "--order", "4")
        finally:
            diffops.homogeneous_component.cache_clear()
        assert code == 1
        recursion = [c for c in report["checks"] if c["check"] == "series-recursion"]
        failed = [c for c in recursion if c["status"] == "fail"]
        assert failed and all(c["witness"] for c in failed)
        assert {(c["k"], c["l"] > -2) for c in failed} == {(1, True)}
        assert [c for c in report["checks"] if c["status"] == "fail"] == failed

    def test_series_wrong_reference_family_fails(self, capsys, monkeypatch):
        # the (2,0,0) reference family doubled: its record fails with the
        # fitted family as witness, and the other references still pass
        real = expansion._reference_families

        def seeded():
            families = real()
            families[(2, 0, 0)] = families[(2, 0, 0)].scale(2)
            return families

        monkeypatch.setattr(expansion, "_reference_families", seeded)
        code, report = run(capsys, "verify", "series", "--max-level", "8",
                           "--order", "2")
        assert code == 1
        refs = [c for c in report["checks"] if c["check"] == "family-reference"]
        assert [(c["mvec"], c["status"]) for c in refs] == [
            ([2, 0, 0], "fail"), ([3, 0, 0], "pass"), ([1, 0, 0], "pass")]
        assert refs[0]["witness"] == repr(real()[(2, 0, 0)])
        assert [c for c in report["checks"] if c["status"] == "fail"] == refs[:1]

    def test_series_fits_through_order(self, capsys):
        code, report = run(capsys, "verify", "series", "--max-level", "16",
                           "--order", "6")
        assert code == 0
        fits = [c for c in report["checks"] if c["check"] == "family-fit"]
        assert [tuple(c["mvec"]) for c in fits] == exponents_upto(6)
        assert len(fits) == 84 and all(c["status"] == "pass" for c in fits)

    def test_series_table_too_low_for_order_is_operational_error(self, capsys):
        # the families through order 6 are fitted on the labels through
        # level 12 and validated above it
        assert main(["verify", "series", "--max-level", "8", "--order", "6"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: table level 8 is below 14, the level verify series at order 6 "
            "(reference families up to degree 3) needs: the families of degree 6 "
            "are fitted on the labels through level 12 and validated on at least "
            "10 labels above it\n")

    def test_cauchy_table_too_low_for_order_is_operational_error(self, capsys):
        # the families through order 4 need level 10; the lambda-order 2 asks
        # only for level 4
        argv = ["verify", "cauchy", "--max-level", "6", "--order", "4",
                "--lambda-order", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: table level 6 is below 10, the level verify cauchy needs: the "
            "families of degree 4 are fitted on the labels through level 8 and "
            "validated on at least 10 labels above it\n")

    @pytest.mark.parametrize("level, order", [(6, 2), (4, 2), (2, 1), (0, 0)])
    def test_series_table_too_low_for_the_references(self, capsys, level, order):
        # the reference family (3,0,0) needs level 8 at any order; the error
        # names that level, not one of the order's own degree
        assert main(["verify", "series", "--max-level", str(level),
                     "--order", str(order)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            f"error: table level {level} is below 8, the level verify series at "
            f"order {order} (reference families up to degree 3) needs: the "
            "families of degree 3 are fitted on the labels through level 6 and "
            "validated on at least 10 labels above it\n")

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("command, floor", [
        (("verify", "series"), 8), (("verify", "cauchy", "--lambda-order", "2"), 6),
        (("conjecture", "--copies", "1"), 6)], ids=["series", "cauchy", "conjecture"])
    def test_a_table_below_the_fit_level_is_operational_error(
            self, tmp_path, capsys, command, floor, order):
        # the level a command needs follows from --order alone: one level
        # below it no report is written and one line names it; at it the
        # command passes
        need = max(floor, 2 * order + 2)
        args = [*command, "--order", str(order)]
        out = tmp_path / "report.json"
        assert main([*args, "--max-level", str(need - 2), "--out", str(out),
                     "--json"]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: table level {need - 2} is below {need}, ")
        assert run(capsys, *args, "--max-level", str(need))[0] == 0

    def test_series_fails_a_family_off_its_degree_bound(self, capsys, monkeypatch):
        # one numerator of X12^4 at a level-10 label raised by one: the family
        # fitted on the labels through level 8 misses it there, and only its
        # record fails; the recursions read the labels through level 6
        real = expansion.ExpansionSet.__init__
        label, mvec = (4, 3, 3), (4, 0, 0)

        def seeded(self, table, order):
            real(self, table, order)
            nums, den = self.forms[label]
            self.forms[label] = ({**nums, mvec: nums.get(mvec, 0) + 1}, den)

        monkeypatch.setattr(expansion.ExpansionSet, "__init__", seeded)
        code, report = run(capsys, "verify", "series", "--max-level", "12",
                           "--order", "4")
        assert code == 1
        assert [c for c in report["checks"] if c["status"] == "fail"] == [{
            "check": "family-fit", "mvec": [4, 0, 0], "status": "fail",
            "witness": "degree bound violated for (4, 0, 0): no polynomial of "
                       "degree <= 4 matches the coefficients (label (4, 3, 3))"}]

    @pytest.mark.parametrize("suite, check", [("pieri", "pieri"), ("eigen", "eigen")])
    def test_saved_entry_off_its_recursion_fails(self, tmp_path, capsys, suite, check):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        args = ["verify", suite, "--max-level", "8", "--table", str(path)]
        assert run(capsys, *args)[0] == 0
        bump_saved_entry(path)
        SchurTable.load(path)
        code, report = run(capsys, *args)
        assert code == 1
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        witnesses = [c for c in failed if c["check"] == check]
        assert witnesses and all(c["witness"] for c in witnesses)
        if suite == "eigen":
            assert {tuple(c["triple"]) for c in witnesses} == {(2, 1, 1)}
        else:
            assert [2, 1, 1] in [c["triple"] for c in witnesses]

    def test_insufficient_table_is_operational_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "4", "--out", str(path))
        assert main(["verify", "eigen", "--max-level", "8",
                     "--table", str(path)]) == 2


class TestReportOnlyCommands:
    def test_conjecture_always_exit_zero(self, capsys):
        code, report = run(capsys, "conjecture", "--copies", "1", "--order", "2",
                           "--max-level", "10")
        assert code == 0
        summary = report["conjecture"]["summary"]
        assert summary["literal"]["mismatches"] > 0  # mismatches do not fail the run
        assert summary["doubled"]["mismatches"] == 0

    def test_conjecture_summary_counts_the_evidence(self, capsys):
        code, report = run(capsys, "conjecture", "--copies", "1", "--order", "2",
                           "--max-level", "8")
        assert code == 0
        assert report["checks"] == []
        assert report["summary"] == report["conjecture"]["summary"]
        assert report["summary"]["literal"]["compared"] > 0
        assert report["summary"]["doubled"]["compared"] > 0

    def test_conjecture_on_a_table_its_expansions_reject(self, tmp_path, capsys):
        # a loaded table whose entry leaves its recursions: the expansions
        # stop on it, and the report holds the failing record (exit 1)
        path = tmp_path / "t.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        shift_saved_coefficients(path)
        code, report = run(capsys, "conjecture", "--copies", "1", "--order", "2",
                           "--max-level", "8", "--table", str(path))
        assert code == 1
        assert "conjecture" not in report
        assert report["table_checksum"] == hashlib.sha256(path.read_bytes()).hexdigest()
        (rec,) = report["checks"]
        assert rec["check"] == "falsification" and rec["status"] == "fail"
        assert rec["witness"] == ("table entry (2, 1, 1) fails its solving "
                                  "equation 1 based at (1, 0, 1)")
        assert rec["value"]  # the nonzero residual of that equation
        assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}

    def test_conjecture_checks_the_fit_level_before_its_expansions(self, tmp_path,
                                                                   capsys):
        # a table both below the level of order 4 and off its recursions is
        # refused on the level, as verify series and verify cauchy refuse it,
        # before any expansion reads an entry
        path, out = tmp_path / "t.json", tmp_path / "report.json"
        run(capsys, "table", "--max-level", "8", "--out", str(path))
        shift_saved_coefficients(path)
        assert main(["conjecture", "--copies", "1", "--order", "4", "--max-level", "8",
                     "--table", str(path), "--out", str(out), "--json"]) == 2
        captured = capsys.readouterr()
        assert not captured.out and not out.exists()
        assert captured.err == (
            "error: table level 8 is below 10, the level conjecture needs: the "
            "families of degree 4 are fitted on the labels through level 8 and "
            "validated on at least 10 labels above it\n")

    @pytest.mark.parametrize("copies", [1, 2])
    def test_conjecture_on_unvalidated_families_is_operational_error(self, capsys,
                                                                     copies):
        # at level 8 the families of degree 4 would be validated on no label:
        # the fit-level guard refuses the table before any family is fitted
        assert main(["conjecture", "--copies", str(copies), "--order", "4",
                     "--max-level", "8"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: table level 8 is below 10, the level conjecture needs: the "
            "families of degree 4 are fitted on the labels through level 8 and "
            "validated on at least 10 labels above it\n")

    @pytest.mark.parametrize("normalization, message", [
        (KLocal.zero(), "vanishing degree-0 coefficient; cannot normalize"),
        (KLocal({0: 1, 1: 1}), "degree-0 coefficient is not a unit")])
    def test_conjecture_normalization_must_be_a_unit(self, capsys, monkeypatch,
                                                     normalization, message):
        # the degree-0 extraction (shift 0) replaced by zero, or by 1 + kappa,
        # which has no reciprocal in the ring of KLocal
        real = conjecture.leading_pole_coefficient
        monkeypatch.setattr(
            conjecture, "leading_pole_coefficient",
            lambda p, sign, shift: (normalization, 0) if shift == 0
            else real(p, sign, shift))
        assert main(["conjecture", "--copies", "1", "--order", "2",
                     "--max-level", "8"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert message in captured.err

    def test_omega_emission(self, capsys):
        code, report = run(capsys, "omega", "--order", "2")
        assert code == 0
        minus = report["omega_minus"]["coefficients"]
        assert minus["0,0,0"] == {"num": ["1"], "den": ["0", "-1", "0", "1"]}
        assert minus["0,0,2"]["num"] == ["-1/6"]
        plus = report["omega_plus"]["coefficients"]
        assert plus["0,0,0"]["num"] == ["-2"]

    def test_omega_wrong_plus_closed_form_fails(self, capsys, monkeypatch):
        # the emit record fails with the first differing monomial, and the
        # report is still written
        bump_omega_plus(monkeypatch)
        code, report = run(capsys, "omega", "--order", "2")
        assert code == 1
        assert report["checks"] == [{
            "check": "emit", "status": "fail",
            "witness": {"monomial": [2, 0, 0], "closed_form": "-1",
                        "from_minus": "-2"}}]
        assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
        assert report["omega_plus"]["coefficients"]["2,0,0"]["num"] == ["-1"]

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "omega.json"
        code = main(["omega", "--order", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["suite"] == "omega"


def bump_pieri_weight(monkeypatch):
    """Add 1 to the first weight numerator of equation 3 at (1, 1, 0): the
    solve of (1, 2, 1) by equation 1 then leaves equation 3 a nonzero
    residual."""
    real = table_module._pieri_weights

    def seeded(eq, base):
        den, weights = real(eq, base)
        if (eq, base) == (2, (1, 1, 0)):
            (target, num), *rest = weights
            weights = [(target, num + 1), *rest]
        return den, weights

    monkeypatch.setattr(table_module, "_pieri_weights", seeded)


@pytest.mark.parametrize("argv, check", [
    (["verify", "pieri", "--max-level", "6"], "falsification"),
    (["table", "--max-level", "6"], "construct"),
    (["conjecture", "--copies", "1", "--order", "2", "--max-level", "6"],
     "falsification")])
def test_inconsistent_recursion_is_reported(argv, check, capsys, monkeypatch):
    # a table whose recursions disagree stops the solve; the command still
    # writes its report, with the failing equation and its residual
    bump_pieri_weight(monkeypatch)
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["table_checksum"] is None
    assert report["checks"] == [{
        "check": check, "status": "fail",
        "witness": "inconsistent recursion at (1, 2, 1): equation 3 based at "
                   "(1, 1, 0) fails",
        "value": repr((x_plus_inv(0) * x_plus_inv(2)).scale(Fraction(-1, 24))
                      + x_plus_inv(1).scale(Fraction(1, 48)))}]
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}


@pytest.mark.parametrize("argv", [["table"], ["roundtrip"], ["verify", "pieri"],
                                  ["conjecture"], ["omega"]])
def test_omitted_flags_take_the_defaults(argv, monkeypatch):
    # DEFAULTS is the one source of defaults: a bare subcommand hands its
    # body exactly DEFAULTS' values
    seen = []
    help_text, flags, config, _ = cli.SUBCOMMANDS[argv[0]]
    monkeypatch.setitem(cli.SUBCOMMANDS, argv[0], (
        help_text, flags, config, lambda cfg, report: seen.append(cfg)))
    assert main(argv) == 0
    (cfg,) = seen
    assert {key: getattr(cfg, key) for key in cli.DEFAULTS} == cli.DEFAULTS == {
        "max_level": 12, "order": 4, "lambda_order": 4, "copies": 1,
        "table": None, "out": None, "json": False}


#: subcommand -> (a command line that passes, its exit code on a failing
#: record); ``{table}`` is a saved level-4 table.  A failing roundtrip record
#: is a byte mismatch, an I/O fault
EXIT_CODES = {
    "table": (["table", "--max-level", "4"], 1),
    "roundtrip": (["roundtrip", "--table", "{table}"], 2),
    "verify": (["verify", "pieri", "--max-level", "4", "--table", "{table}"], 1),
    "conjecture": (["conjecture", "--order", "1", "--max-level", "6"], 1),
    "omega": (["omega", "--order", "1"], 1)}


@pytest.mark.parametrize("failing", [False, True], ids=["pass", "fail"])
@pytest.mark.parametrize("subcommand", EXIT_CODES)
def test_exit_code_table(subcommand, failing, tmp_path, capsys, monkeypatch):
    # the runner's exit code: 0 without a failing record, whatever the
    # subcommand, else the subcommand's code on a failing record
    path = str(tmp_path / "t4.json")
    assert main(["table", "--max-level", "4", "--out", path]) == 0
    capsys.readouterr()
    argv, fail_code = EXIT_CODES[subcommand]
    help_text, flags, config, body = cli.SUBCOMMANDS[subcommand]

    def failing_body(cfg, report):
        body(cfg, report)
        report.checks.append({"check": "added", "status": "fail"})

    if failing:
        monkeypatch.setitem(cli.SUBCOMMANDS, subcommand,
                            (help_text, flags, config, failing_body))
    code, report = run(capsys, *(path if arg == "{table}" else arg for arg in argv))
    assert code == (fail_code if failing else 0)
    assert sum(c["status"] == "fail" for c in report["checks"]) == failing


@pytest.mark.parametrize("flags", [[], ["--out"], ["--out", "--json"], ["--json"]])
def test_omega_falsification_writes_its_report(flags, tmp_path, capsys, monkeypatch):
    # a closed form that raises stops the body; the runner records it, and
    # the report goes where --out and --json send it
    def falsified(order):
        raise FalsificationError("closed form off", witness=Fraction(1, 3))

    monkeypatch.setattr(closedform, "closedform_omega_plus", falsified)
    out = tmp_path / "omega.json"
    argv = ["omega", "--order", "2"]
    if "--out" in flags:
        argv += ["--out", str(out)]
    if "--json" in flags:
        argv.append("--json")
    assert main(argv) == 1
    captured = capsys.readouterr()
    text = out.read_text() if "--out" in flags else captured.out
    report = json.loads(text)
    assert strip_timing(report) == {
        "suite": "omega", "config": {"order": 2}, "table_checksum": None,
        "checks": [{"check": "falsification", "status": "fail",
                    "witness": "closed form off", "value": "Fraction(1, 3)"}],
        "summary": {"total": 1, "passed": 0, "failed": 1}}
    assert captured.out == ("" if flags == ["--out"] else text)
    assert not captured.err


def test_unwritable_report_file_is_operational_error(tmp_path, capsys):
    code = main(["omega", "--order", "1", "--out", str(tmp_path / "no" / "r.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["omega", "--copies", "2"],
                                  ["table", "--order", "3"]])
def test_flag_a_subcommand_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _json_paths(node, path=()):
    """Every path into a JSON document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _json_paths(child, path + (key,))


def _mutate(doc, path, kind, value):
    """``doc`` with the node at ``path`` deleted, nested in a list or replaced."""
    if not path:
        return [doc] if kind == "nest" else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]] if kind == "nest" else value
    return doc


#: replacement values: every JSON type, integers near the file's own labels
#: (a declared level far above the entries has its own test in test_table.py)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.text(max_size=4),
    st.lists(st.integers(-3, 30), max_size=4),
    st.dictionaries(st.sampled_from(["triple", "poly", "exp", "coeff"]),
                    st.integers(-3, 30), max_size=2))


class TestMalformedTableFiles:
    @pytest.fixture(scope="class")
    def canonical(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("canonical") / "t4.json"
        assert main(["table", "--max-level", "4", "--out", str(path)]) == 0
        return path

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_file_exits_with_a_code(self, canonical, data):
        # delete keys, change types, nest lists: every outcome is an exit
        # code of the contract, never an uncaught exception
        doc = json.loads(canonical.read_text())
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
            kind = data.draw(st.sampled_from(
                ["delete", "retype", "nest"] if path else ["retype", "nest"]))
            value = data.draw(JSON_VALUES) if kind == "retype" else None
            doc = _mutate(doc, path, kind, value)
        mutated = canonical.with_name("mutated.json")
        mutated.write_text(json.dumps(doc, indent=1) + "\n")
        for argv in (["roundtrip"], ["verify", "pieri", "--max-level", "4"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([*argv, "--table", str(mutated)])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py`` as a module, for its command list and digest."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports traced.py
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("labels", [
    pytest.param(labels, id=labels[-1]) for labels in (
        ["verify-cauchy"], ["conjecture-1"], ["conjecture-2"], ["omega"],
        ["verify-kernel"], ["table", "verify-series"])])
def test_payload_matches_the_benchmark_reference(labels, perfbench_run, tmp_path,
                                                 monkeypatch, capsys):
    # benchmark commands, in-process and in order in one directory (verify
    # series reads the table that table writes), byte for byte
    monkeypatch.chdir(tmp_path)
    reference = json.loads(perfbench_run.REFERENCE.read_text())
    for label in labels:
        argv, report_file = perfbench_run.COMMANDS[label]
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        text = (tmp_path / report_file).read_text() if report_file else out
        assert perfbench_run.payload_digest(json.loads(text)) == reference[label]
