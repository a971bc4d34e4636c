"""Golden digests of the graded exceptional algebras.

tests/golden/digests.json holds, for each construction below, the sha256 of
the algebra's to_text() and of its degree tuple.  A change that leaves every
structure constant and degree as it was leaves every digest as it was.

Regenerate (only when a table is meant to change) with
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
    yield "e8_z2_8", magic.e8_z2_8()[-1]
    mag, _, gr = magic.e8_z3_5()
    yield "e8_z3_5", gr
    # the z2^2 grading of the same algebra, on its table before the rebase
    yield "e8_z3_5_z22", mag.z22
    yield "f4_z3_3", magic.f4_z3_3()[-1]
    yield "e6_z3_3", magic.e6_z3_3()[-1]
    yield "albert_z3_3", magic.albert_z3_3()[-1]
    yield "f4_z2_5", magic.f4_z2_5()[-1]
    yield "albert_z2_5", magic.albert_z2_5()[-1]


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


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
