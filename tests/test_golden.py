"""Golden digests of the graded exceptional algebras.

tests/golden/digests.json holds, for each row of magic.INDUCED and for the
z2^2 grading of the e8_z3_5 algebra, the sha256 of the graded algebra's
to_text() and of its degree tuple.  A change that leaves every structure
constant and degree as it was leaves every digest as it was.

Regenerate (only when a table is meant to change, or to record a new row)
with
    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

from forge import magic

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "digests.json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graded():
    for name in magic.INDUCED:
        construction, gr = magic.induced(name)
        yield name, gr
        if name == "e8_z3_5":
            # the z2^2 grading of the same algebra, on its table before the rebase
            yield "e8_z3_5_z22", construction.z22


def digests() -> dict:
    out = {}
    for name, gr in _graded():
        degrees = "\n".join(",".join(map(str, deg)) for deg in gr.degrees)
        out[name] = {"to_text": _sha(gr.algebra.to_text()),
                     "degrees": _sha(degrees + "\n")}
    return out


def test_graded_algebras_match_golden_digests():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert digests() == want


def test_every_induced_row_has_a_golden_digest():
    with open(GOLDEN) as fh:
        recorded = json.load(fh)
    assert sorted(recorded) == sorted([*magic.INDUCED, "e8_z3_5_z22"])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
