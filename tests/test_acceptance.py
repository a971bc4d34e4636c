"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact; tolerances are zero throughout.  The bracket scans are
exhaustive: the Jacobi identity on every basis triple, up to the
248-dimensional algebra, and the local triality relation on every basis
quadruple.

Criterion 9 asserts the expected closed-form minimal polynomial of the
toral operator exactly as stated.  The operator's kernel is the two-dimensional
subalgebra generated by y*x (asserted by the same criterion), so zero is an
eigenvalue and the computed minimal polynomial carries an extra factor X;
the first assertion therefore fails and is left red deliberately, with the
reconciled statements (squarefreeness, the kernel, and the formula away
from the kernel) asserted on their own.
"""

from forge import scenarios


def _run(fn):
    rep = fn()
    for claim in rep.details["claims"]:
        print("  criterion claim %-40s %s" % (claim["id"],
                                              "pass" if claim["passed"] else "FAIL"))
    return rep


def _assert_all(rep):
    bad = [c["id"] for c in rep.details["claims"] if not c["passed"]]
    assert not bad, "failed claims: %s" % ", ".join(bad)


def test_criterion_01_table_fidelity():
    _assert_all(_run(scenarios.scenario_tables))


def test_criterion_02_identity_suites():
    _assert_all(_run(scenarios.scenario_identity_suites))


def test_criterion_03_grading_catalog():
    _assert_all(_run(scenarios.scenario_grading_catalog))


def test_criterion_04_recognition_pipeline():
    _assert_all(_run(scenarios.scenario_recognition))


def test_criterion_05_triality():
    _assert_all(_run(scenarios.scenario_triality))


def test_criterion_06_magic_square_dimensions():
    _assert_all(_run(scenarios.scenario_magic_dimensions))


def test_criterion_07_jordan_layer():
    _assert_all(_run(scenarios.scenario_jordan_layer))


def test_criterion_08_type_tuples():
    _assert_all(_run(scenarios.scenario_type_tuples))


def test_criterion_09_toral_operator_closed_form():
    # asserted exactly as stated; red by design, see the module docstring
    rep = _run(scenarios.scenario_toral_operator)
    claims = {c["id"]: c["passed"] for c in rep.details["claims"]}
    assert claims["minimal-polynomial"], \
        "computed minimal polynomial is X*(X^3+1)*(X^3-1): the expected " \
        "closed form misses the kernel factor X"


def test_criterion_09_toral_operator_reconciled():
    rep = _run(scenarios.scenario_toral_operator)
    claims = {c["id"]: c["passed"] for c in rep.details["claims"]}
    assert claims["minimal-polynomial-nonzero-part"]
    assert claims["squarefree"]
    assert claims["kernel-is-subalgebra"]


def test_criterion_10_jordan_gradings():
    _assert_all(_run(scenarios.scenario_jordan_gradings))


def test_criterion_11_round_trip():
    _assert_all(_run(scenarios.scenario_round_trip))
