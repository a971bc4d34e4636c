"""What each benchmark workload runs, what it must report, and which layer
spans the traced run records.

A workload is a list of `forge.scenarios` claim bundles run together in one
fresh interpreter, so shared `lru_cache` constructions are built once per
workload, as when one process runs several scenarios.
"""

from __future__ import annotations

# name -> (scenarios, why).  The "why" strings are repeated in BENCHMARK.json.
WORKLOADS = {
    "triality": (
        ["triality"],
        "Triality bracket scan: over 80% exact Scalar and linalg.Matrix work "
        "via magic.t_xy; no certificate and no verify_lie call.",
    ),
    "jacobi": (
        ["magic-dimensions"],
        "About 80% algebra.verify_lie over integer-pair tables, incl. the "
        "248-dim scan; the rest is magic_g construction; little Scalar work.",
    ),
    # jordan-gradings runs the e8-dempwolff check too, so that scenario is not
    # a workload of its own.
    "cartan": (
        ["jordan-gradings"],
        "About 80% certificates: adjoint_minimal_polynomial, is_cartan and "
        "rank_mod_p on algebras of dim 14 to 248, in both Cartan modes.",
    ),
    "catalog": (
        ["type-tuples", "jordan-layer", "tables", "identity-suites",
         "grading-catalog", "recognition", "toral-operator", "round-trip",
         "table2-symmetric"],
        "Nine scenarios sharing cached constructions: building, grading, "
        "compose and interchange parse/format, which no other workload reaches.",
    ),
}

# Claims each scenario reports at the commit that defined the benchmark.  A
# scenario that reports fewer has dropped claims, and each missing one counts
# as failed; one that raises counts all of these as failed.
EXPECTED_CLAIMS = {
    "triality": 8,
    "magic-dimensions": 17,
    "jordan-gradings": 8,
    "type-tuples": 18,
    "jordan-layer": 10,
    "tables": 4,
    "identity-suites": 26,
    "grading-catalog": 65,
    "recognition": 5,
    "toral-operator": 4,
    "round-trip": 10,
    "table2-symmetric": 6,
}

# Claims that are red by design: the paper's closed form for the toral
# operator leaves out the kernel factor X.  Every other claim must pass.
EXPECTED_RED = {("toral-operator", "minimal-polynomial")}

# Layer spans recorded by the traced run: (module, qualified name, workloads
# on which the span is expected to move an end-to-end metric).  A name that
# resolves to a class is spanned through its __init__.
SPANS = [
    ("magic", "magic_g", ("catalog", "jacobi", "cartan")),
    ("magic", "TriContext", ("catalog",)),
    ("magic", "albert", ("catalog",)),
    ("magic", "e8_z2_8", ("catalog",)),
    ("magic", "e8_z3_5", ("catalog",)),
    ("magic", "rebase_blockwise", ("catalog",)),
    ("magic", "t_xy", ("triality",)),
    ("magic", "jordan_grading_check", ("cartan",)),
    ("magic", "is_cartan", ("cartan",)),
    ("magic", "is_toral", ("cartan",)),
    ("magic", "adjoint_minimal_polynomial", ("cartan",)),
    ("magic", "phi_isomorphism", ("catalog",)),
    ("linalg", "Matrix.__mul__", ("triality",)),
    ("linalg", "rank_mod_p", ("cartan",)),
    ("linalg", "solve", ("cartan",)),
    ("linalg", "rref", ("cartan",)),
    ("linalg", "sparse_kernel", ("cartan",)),
    ("linalg", "SparseEchelon.insert", ("cartan",)),
    ("linalg", "smith_normal_form", ("catalog",)),
    ("algebra", "verify_lie", ("jacobi",)),
    ("algebra", "verify_jordan", ("catalog",)),
    ("algebra", "verify_symmetric", ("catalog",)),
    ("algebra", "Algebra.int_table", ("catalog",)),
    ("algebra", "algebra_from_text", ("catalog",)),
    ("algebra", "Algebra.to_text", ("catalog",)),
    ("exact", "Polynomial.divmod", ("cartan",)),
    ("exact", "poly_lcm", ("cartan",)),
    ("exact", "is_squarefree", ("cartan",)),
    ("grading", "verify_grading", ("catalog",)),
    ("grading", "grading_type", ("catalog",)),
    ("grading", "universal_group", ("catalog",)),
    ("compose", "okubo_recognize", ("catalog",)),
    ("compose", "complete_okubo_pair", ("catalog",)),
]

# Counters read from a spanned function's result: name -> (span, reader).
COUNTERS = {
    "algebra.verify_lie.triples":
        ("algebra.verify_lie", lambda rep: rep.details.get("triples", 0)),
}

# Modules whose share of the sampled stack is reported as <module>.self_share.
SAMPLED_MODULES = ["exact", "linalg", "algebra", "magic", "grading", "compose",
                   "scenarios"]


def span_name(module: str, qualname: str) -> str:
    return "%s.%s" % (module, qualname)


def expected_claims(workload: str) -> int:
    return sum(EXPECTED_CLAIMS[s] for s in WORKLOADS[workload][0])


def score(scenario: str, claims) -> tuple[int, int, list]:
    """Return (claims_run, claims_failed, failed ids) for one scenario.

    `claims` is the report's claim list, or None when the scenario raised.
    Outcomes are keyed by pass/fail only, never by the `got` text.
    """
    expected = EXPECTED_CLAIMS[scenario]
    if claims is None:
        return expected, expected, ["%s:<raised>" % scenario]
    wrong = ["%s:%s" % (scenario, c["id"]) for c in claims
             if c["passed"] == ((scenario, c["id"]) in EXPECTED_RED)]
    missing = max(0, expected - len(claims))
    ids = wrong + (["%s:<%d claims missing>" % (scenario, missing)] if missing else [])
    return max(expected, len(claims)), len(wrong) + missing, ids
