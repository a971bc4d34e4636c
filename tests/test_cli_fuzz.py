"""Fuzz the interchange parsers through the command line.

.alg and .grad texts are built from the tokens the formatters write (the
headers, `i j -> k:c` lines, `polar` lines, `group free= torsion=` and `deg`
lines) mixed with out-of-range, empty and malformed tokens.  Each text goes
through cli.main as `verify lie --algebra` and as `grade --algebra --grading
--check --type --universal`.  No exception may escape, the exit code is 0, 1
or 2, a usage error (2) says `error:` first, and an algebra text the parser
accepts re-emits byte-identically through to_text.
"""

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from forge.algebra import algebra_from_text
from forge.cli import main
from forge.exact import OMEGA, format_scalar, sc

BAD = st.sampled_from(["", "x", "-", "+", "1.5", "1e3", "1_0", "١",
                       "0x1", "--1", "1/0", "1/2/3", "*w", "1+*w", "w"])
SMALL = st.integers(-3, 3)
INDEX = st.one_of(st.integers(-1, 5).map(str), BAD)
FORMATTED = st.builds(
    lambda a, b, d: format_scalar(sc(Fraction(a, d)) + sc(Fraction(b, d)) * OMEGA),
    SMALL, SMALL, st.integers(1, 4))
SCALAR = st.one_of(FORMATTED, BAD)


def _mostly(valid, other):
    """Draws of `valid` three times in four, of `other` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: other if k == 3 else valid)


def _lines(token, scalar):
    """Product and polar lines over index and scalar tokens."""
    product = st.builds("{} {} -> {}".format, token, token,
                        st.lists(st.builds("{}:{}".format, token, scalar),
                                 min_size=1, max_size=3).map(",".join))
    return _mostly(product, st.builds("polar {} {} {}".format, token, token, scalar))


# mostly what the formatters write on dimension 3, so that many texts parse
ALG_HEAD = _mostly(st.just("dim 3 over Q(w)"), st.one_of(
    st.builds("dim {} over Q(w)".format, st.one_of(st.integers(0, 4).map(str), BAD)),
    st.sampled_from(["dim 3 over Q(w) x", "dim 3", "dim 3 over Q", "dims 3 over Q(w)",
                     ""])))
ALG_LINE = _mostly(
    _lines(st.integers(0, 2).map(str), FORMATTED),
    st.one_of(_lines(INDEX, SCALAR),
              st.sampled_from(["0 0 0:1", "0 0 -> ", "0 -> 0:1", "polar 0 0",
                               "0 0 -> 0:1,"])))

GRAD_HEAD = _mostly(
    st.builds("group free={} torsion={}".format, st.sampled_from("01"),
              st.sampled_from(["-", "2", "3"])),
    st.one_of(
        st.builds("group free={} torsion={}".format,
                  st.one_of(st.integers(-1, 4).map(str), BAD),
                  st.one_of(st.just("-"), st.lists(st.integers(0, 4).map(str), min_size=1,
                                                   max_size=3).map(",".join), BAD)),
        st.sampled_from(["group", "group free", "group size=2", "groups free=0", ""])))
GRAD_LINE = _mostly(
    st.builds("deg {} = {}".format, st.integers(0, 2).map(str),
              st.lists(SMALL.map(str), min_size=1, max_size=2).map(" ".join)),
    st.one_of(
        st.builds("deg {} = {}".format, INDEX,
                  st.lists(st.one_of(SMALL.map(str), BAD), max_size=3).map(" ".join)),
        st.sampled_from(["deg 0", "deg = 1", "0 = 1", "deg 0 1 = 1"])))


def _text(head, lines):
    return "\n".join([head] + lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root / "a.alg", root / "a.grad"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")


@settings(max_examples=200, deadline=None)
@given(alg=st.builds(_text, ALG_HEAD, st.lists(ALG_LINE, max_size=5)),
       grad=st.builds(_text, GRAD_HEAD, st.lists(GRAD_LINE, max_size=5)))
def test_cli_parsers_survive_fuzzed_interchange_files(files, alg, grad):
    apath, gpath = files
    apath.write_text(alg)
    gpath.write_text(grad)
    _run(["verify", "lie", "--algebra", str(apath)])
    _run(["grade", "--algebra", str(apath), "--grading", str(gpath),
          "--check", "--type", "--universal"])
    try:
        A = algebra_from_text(alg)
    except ValueError:
        return
    text = A.to_text()
    assert algebra_from_text(text).to_text() == text
