"""The can-fail ledger: every record name the README commands write, with
the test that drives a record of that name to ``fail``; and a record fails
exactly when it carries a witness."""

import importlib

from tests.test_readme import command_line_reports

#: record name -> "module::Class::test" (or "module::test") of a test that
#: drives a record of that name to fail, or (None, why no test does)
LEDGER = {
    "byte-roundtrip": "test_cli::TestTableCommand::test_roundtrip_fails_when_the_writer_departs",
    "construct": "test_cli::TestTableCommand::test_construct_judges_the_table_built",
    "pieri": "test_cli::TestVerifyCommands::test_changed_coefficient_text_fails_every_table_suite",
    "unit-value": "test_table::TestSolveTable::test_unit_value_record_can_fail",
    "leading-term": "test_table::TestSolveTable::test_leading_term_record_can_fail",
    "leading-distinct": (None, "written only once leading-term has matched the "
                               "exponents of the label, a map injective on labels; "
                               "only a patched leading_term fails it (test_table::"
                               "TestSolveTable::test_leading_distinct_names_the_earlier_label)"),
    "s3-symmetry": "test_cli::TestVerifyCommands::test_changed_coefficient_text_fails_every_table_suite",
    "eigen": "test_diffops::TestFoldedEigen::test_perturbed_orthant_numerator_fails",
    "expansion-normalization":
        "test_cli::TestVerifyCommands::test_series_wrong_generator_fails_normalization",
    "family-fit": "test_cli::TestVerifyCommands::test_series_fails_a_family_off_its_degree_bound",
    "family-reference": "test_cli::TestVerifyCommands::test_series_wrong_reference_family_fails",
    "series-recursion":
        "test_cli::TestVerifyCommands::test_series_wrong_operator_coefficient_fails_the_recursion",
    "H1-log-derivative": "test_cauchy::TestCauchyTruncation::test_wrong_numerator_fails_its_relations",
    "second-order-log-derivative":
        "test_cauchy::TestCauchyTruncation::test_wrong_numerator_fails_its_relations",
    "pole-order": "test_cli::TestVerifyCommands::test_cauchy_pole_falsification_keeps_later_checks",
    "omega-minus-vs-closedform": "test_cli::TestVerifyCommands::test_cauchy_zero_omega_minus_fails",
    "pde-omega-": "test_cauchy::TestRatFunOracle::test_one_wrong_coefficient",
    "pde-omega+": "test_cauchy::TestRatFunOracle::test_one_wrong_coefficient",
    "omega-plus-euler-relation": "test_cauchy::TestRatFunOracle::test_one_wrong_coefficient",
    "initial-condition": "test_cauchy::TestRatFunOracle::test_one_wrong_coefficient",
    "specialization-formula":
        "test_cli::TestVerifyCommands::test_specialized_rejects_entry_off_its_closed_form",
    "specialized-sum":
        "test_cli::TestVerifyCommands::test_specialized_rejects_entry_off_its_closed_form",
    "kernel-H1": "test_cli::TestVerifyCommands::test_kernel_falsification_keeps_later_checks",
    "kernel-dims": "test_cli::TestVerifyCommands::test_kernel_falsification_keeps_later_checks",
    "H2-action": "test_kernels::TestMutations::test_doubled_x23_term_fails_the_formulas",
    "H3-action": "test_kernels::TestMutations::test_doubled_x23_term_fails_the_formulas",
    "H2-leading": "test_kernels::TestMutations::test_doubled_x23_term_fails_the_formulas",
    "H3-leading": "test_kernels::TestMutations::test_doubled_x23_term_fails_the_formulas",
    "emit": "test_cli::TestReportOnlyCommands::test_omega_wrong_plus_closed_form_fails",
}


def resolve(ref: str):
    """The test function ``ref`` names, or None."""
    module, *path = ref.split("::")
    obj = importlib.import_module(f"tests.{module}")
    for name in path:
        obj = getattr(obj, name, None)
    return obj if callable(obj) and path[-1].startswith("test_") else None


def test_every_record_name_has_a_ledger_entry(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    names = {c["check"] for _, _, report in command_line_reports()
             for c in report["checks"]}
    assert set(LEDGER) == names, sorted(names ^ set(LEDGER))
    for name, ref in LEDGER.items():
        if isinstance(ref, tuple):
            assert ref[0] is None and ref[1], name
        else:
            assert resolve(ref) is not None, (name, ref)


def test_a_record_fails_exactly_when_it_carries_a_witness(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, _, report in command_line_reports():
        for rec in report["checks"]:
            assert ("witness" in rec) == (rec["status"] == "fail"), (argv, rec)
