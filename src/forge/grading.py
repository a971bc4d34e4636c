"""Abelian group gradings on structure-constant algebras.

A grading is a degree assignment on a distinguished homogeneous basis with
values in a finitely generated abelian group (free part plus torsion part).
The module verifies gradings, computes Hesselink type tuples, computes the
universal grading group by the sparse Smith normal form of the relation
lattice (its unit pivots are Tietze moves, each removing one generator),
forms coarsenings along group homomorphisms, and exposes the catalog of
gradings on Cayley algebras, quaternion algebras and symmetric composition
algebras.

The checks work on integer-coded degrees: coordinate c of a degree is digit c
of its code in balanced base B = 4b + 1, where b bounds every |coordinate|
and torsion modulus of the grading.  Digits of the sum of two codes then lie
in [-2b, 2b], so the sum has no carries and decodes uniquely; its canonical
form comes from `AbelianGroup.canon` once per distinct sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import compose
from .algebra import Algebra
from .exact import parse_int, sc
from .linalg import smith_normal_form
from .report import Report


class Unverified(RuntimeError):
    pass


class IllDefinedHom(ValueError):
    pass


class BadParams(ValueError):
    pass


@dataclass(frozen=True)
class AbelianGroup:
    """Z^free_rank x Z_m1 x ... x Z_mt; elements are flat int tuples."""

    free_rank: int
    torsion: tuple = ()

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def zero(self):
        return (0,) * self.ncoords

    def canon(self, elem):
        elem = tuple(elem)
        if len(elem) != self.ncoords:
            raise ValueError("element length %d != %d" % (len(elem), self.ncoords))
        free = elem[:self.free_rank]
        tors = tuple(r % m for r, m in zip(elem[self.free_rank:], self.torsion))
        return free + tors

    def add(self, a, b):
        return self.canon(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a):
        return self.canon(tuple(-x for x in a))

    def scale(self, n: int, a):
        return self.canon(tuple(n * x for x in a))

    def is_zero(self, a) -> bool:
        return self.canon(a) == self.zero()

    def elements_generate(self, elems) -> bool:
        """Do the given elements generate the whole group?  They do iff they
        and the torsion relations span Z^n, that is iff every Smith invariant
        of those rows is 1."""
        rows = list(elems) + [{self.free_rank + i: m}
                              for i, m in enumerate(self.torsion)]
        return all(d == 1 for d in smith_normal_form(rows, self.ncoords)[0])

    def canonical_invariants(self):
        """(free_rank, invariant factors) in divisibility-normal form."""
        inv = smith_normal_form([{i: m} for i, m in enumerate(self.torsion)],
                                len(self.torsion))[0]
        return (self.free_rank, tuple(d for d in inv if d > 1))

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + ["Z%d" % m for m in self.torsion]
        return " x ".join(parts) if parts else "trivial"


@dataclass
class GroupHom:
    """Homomorphism given by images of the standard generators."""

    source: AbelianGroup
    target: AbelianGroup
    images: tuple  # one target element per source coordinate

    def __post_init__(self):
        self.images = tuple(self.target.canon(im) for im in self.images)
        if len(self.images) != self.source.ncoords:
            raise IllDefinedHom("need one image per source coordinate")
        for i, m in enumerate(self.source.torsion):
            im = self.images[self.source.free_rank + i]
            if not self.target.is_zero(self.target.scale(m, im)):
                raise IllDefinedHom("torsion generator %d of order %d maps to "
                                    "an element of larger order" % (i, m))

    def apply(self, elem):
        elem = self.source.canon(elem)
        out = self.target.zero()
        for c, im in zip(elem, self.images):
            if c:
                out = self.target.add(out, self.target.scale(c, im))
        return out


class _DegreeCodes(dict):
    """Codes of a degree list, and a table from each sum of two codes to the
    code of its canonical form, filled through `G.canon` on first use."""

    def __init__(self, G: AbelianGroup, degrees):
        super().__init__()
        self.group = G
        self.base = 4 * max([abs(x) for d in set(degrees) for x in d]
                            + list(G.torsion) + [1]) + 1
        self.codes = [self.encode(d) for d in degrees]

    def encode(self, degree) -> int:
        code = 0
        for x in reversed(degree):
            code = code * self.base + x
        return code

    def __missing__(self, total):
        B, digits, rest = self.base, [], total
        for _ in range(self.group.ncoords):
            r = rest % B
            if 2 * r > B:
                r -= B
            digits.append(r)
            rest = (rest - r) // B
        code = self[total] = self.encode(self.group.canon(digits))
        return code


@dataclass
class Grading:
    """Degree assignment on the basis of an algebra."""

    algebra: Algebra
    group: AbelianGroup
    degrees: tuple
    name: str = ""
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.degrees = tuple(self.group.canon(d) for d in self.degrees)
        if len(self.degrees) != self.algebra.dim:
            raise ValueError("need one degree per basis vector")

    def support(self):
        return sorted(set(self.degrees))

    def components(self) -> dict:
        out: dict = {}
        for i, d in enumerate(self.degrees):
            out.setdefault(d, []).append(i)
        return out

    def to_text(self) -> str:
        head = "group free=%d torsion=%s" % (
            self.group.free_rank,
            ",".join(str(m) for m in self.group.torsion) or "-")
        lines = [head]
        for i, d in enumerate(self.degrees):
            lines.append("deg %d = %s" % (i, " ".join(str(c) for c in d)))
        return "\n".join(lines) + "\n"


def grading_from_text(text: str, algebra: Algebra) -> Grading:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("group "):
        raise ValueError("missing group header")
    free = 0
    torsion: tuple = ()
    for tok in lines[0].split()[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError("malformed group header %r" % lines[0])
        if key == "free":
            free = parse_int(val, lines[0], "group header")
            if free < 0:
                raise ValueError("negative free rank %d" % free)
            # at most dim degrees cannot generate Z^free for free > dim
            if free > algebra.dim:
                raise ValueError("free rank %d exceeds the dimension %d"
                                 % (free, algebra.dim))
        elif key == "torsion":
            torsion = (tuple(parse_int(x, lines[0], "group header")
                             for x in val.split(",")) if val != "-" else ())
            if any(m < 2 for m in torsion):
                raise ValueError("torsion moduli must be at least 2, got %s" % val)
        else:
            raise ValueError("unknown group header key %r" % key)
    group = AbelianGroup(free, torsion)
    degrees = [group.zero()] * algebra.dim
    seen = set()
    for ln in lines[1:]:
        if not ln.startswith("deg "):
            raise ValueError("malformed line %r" % ln)
        left, eq, right = ln.partition("=")
        head = left.split()
        if not eq or len(head) != 2:
            raise ValueError("malformed line %r" % ln)
        idx = parse_int(head[1], ln)
        if not 0 <= idx < algebra.dim:
            raise ValueError("deg index %d outside 0..%d" % (idx, algebra.dim - 1))
        if idx in seen:
            raise ValueError("second deg line for %d" % idx)
        seen.add(idx)
        degrees[idx] = tuple(parse_int(x, ln) for x in right.split())
    return Grading(algebra, group, tuple(degrees))


# =========================================================================
# verification, type, universal group, coarsening
# =========================================================================

def verify_grading(gr: Grading) -> Report:
    """Check A_g A_h <= A_{g+h}, the polar pairing rule, and generation.

    Degrees are compared by their codes in base B = 4b + 1 (module
    docstring), which decode uniquely: a structure constant (i, j) -> k costs
    one int add, one lookup of the canonical sum code and one int compare,
    and the canonical code of g + h is 0 exactly when g + h = 0.
    """
    A, G = gr.algebra, gr.group
    name = "grading(%s%s)" % (A.name, ":" + gr.name if gr.name else "")
    sums = _DegreeCodes(G, gr.degrees)
    code = sums.codes
    for (i, j), vec in A.products.items():
        target = sums[code[i] + code[j]]
        for k in vec:
            if code[k] != target:
                return Report(name, False,
                              {"rule": "product lands outside A_{g+h}"},
                              witness=(i, j, k))
    if A.polar is not None:
        for i, j in sorted(A.polar):
            if sums[code[i] + code[j]]:
                return Report(name, False,
                              {"rule": "n(A_g, A_h) = 0 unless g + h = 0"},
                              witness=(i, j))
    support = set(gr.degrees)
    if not G.elements_generate(support):
        return Report(name, False, {"rule": "support must generate the group"},
                      witness="support")
    gr.verified = True
    return Report(name, True, {"components": len(support),
                               "products": len(A.products)})


def _require_verified(gr: Grading):
    if not gr.verified:
        rep = verify_grading(gr)
        if not rep.passed:
            raise Unverified("grading fails verification: %s" % (rep.witness,))


def grading_type(gr: Grading):
    """Type tuple (h1, ..., hl): h_i components of dimension i."""
    _require_verified(gr)
    dims = [len(idxs) for idxs in gr.components().values()]
    return tuple(dims.count(i) for i in range(1, max(dims, default=0) + 1))


def universal_group(gr: Grading):
    """Universal grading group and the induced regrading.

    Generators: the support degrees.  Relations: a + b - c whenever
    0 != A_a A_b <= A_c, and a + b whenever n(A_a, A_b) != 0, the rule
    verify_grading checks for the polar form.  The cokernel is read off the
    Smith normal form: invariant 0 gives a free coordinate, d > 1 a Z_d, and
    row i of its R the class of generator i.  Returns (group, degree_map,
    regraded Grading) where degree_map sends each support degree to its
    class.
    """
    _require_verified(gr)
    A, G = gr.algebra, gr.group
    support = gr.support()
    index = {d: i for i, d in enumerate(support)}
    s = len(support)
    deg = gr.degrees
    sums = _DegreeCodes(G, deg)
    code = sums.codes
    at = {sums.encode(d): n for d, n in index.items()}  # code -> generator

    def relation(*terms):  # sum of x * generator over (code, x) terms
        row: dict = {}
        for g, x in terms:
            row[at[g]] = row.get(at[g], 0) + x
        return row

    rel_rows = [relation((code[i], 1), (code[j], 1), (sums[code[i] + code[j]], -1))
                for (i, j), vec in A.products.items() if vec]
    if A.polar is not None:
        rel_rows += [relation((code[i], 1), (code[j], 1))
                     for i, j in sorted(A.polar)]
    inv, R = smith_normal_form(rel_rows, s)
    free_pos = [j for j in range(s) if inv[j] == 0]
    tors_pos = [j for j in range(s) if inv[j] > 1]
    group = AbelianGroup(len(free_pos), tuple(inv[j] for j in tors_pos))

    def classify(degree):
        y = R[index[degree]]
        return (tuple(y[j] for j in free_pos)
                + tuple(y[j] % inv[j] for j in tors_pos))

    degree_map = {d: classify(d) for d in support}
    new_degrees = tuple(degree_map[d] for d in deg)
    regraded = Grading(A, group, new_degrees, name=gr.name + ":universal")
    return group, degree_map, regraded


def coarsen(gr: Grading, hom: GroupHom) -> Grading:
    """Compose the degree map with a group homomorphism."""
    _require_verified(gr)
    if hom.source != gr.group:
        raise IllDefinedHom("homomorphism source does not match the grading group")
    image = {d: hom.apply(d) for d in gr.support()}
    return Grading(gr.algebra, hom.target, tuple(image[d] for d in gr.degrees),
                   name=gr.name + ":coarse")


# =========================================================================
# catalogs
# =========================================================================

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))
Z3 = AbelianGroup(0, (3,))
Z4 = AbelianGroup(0, (4,))
Z2_2 = AbelianGroup(0, (2, 2))
Z2_3 = AbelianGroup(0, (2, 2, 2))
Z3_2 = AbelianGroup(0, (3, 3))
ZxZ = AbelianGroup(2)
ZxZ2 = AbelianGroup(1, (2,))

# split Cayley degree tables, basis order e1,e2,u1,u2,u3,v1,v2,v3
_CAYLEY_DEGREES = {
    "z3": (Z3, ((0,), (0,), (1,), (1,), (1,), (2,), (2,), (2,))),
    "z4": (Z4, ((0,), (0,), (1,), (1,), (2,), (3,), (3,), (2,))),
    "z-3grading": (Z, ((0,), (0,), (1,), (-1,), (0,), (-1,), (1,), (0,))),
    "z-5grading": (Z, ((0,), (0,), (1,), (1,), (-2,), (-1,), (-1,), (2,))),
    "z^2": (ZxZ, ((0, 0), (0, 0), (1, 0), (0, 1), (-1, -1),
                  (-1, 0), (0, -1), (1, 1))),
    "zxz2": (ZxZ2, ((0, 0), (0, 0), (1, 0), (-1, 1), (0, 1),
                    (-1, 0), (1, 1), (0, 1))),
}

# degrees of the okubo-quat basis by its doubling steps: C = Q + Qu, Q = K + Ku'
_OKUBO_QUAT_DEGREES = {
    "z2": (Z2, ((0,),) * 4 + ((1,),) * 4),
    "z2^2": (Z2_2, ((0, 0),) * 2 + ((1, 0),) * 2 + ((0, 1),) * 2 + ((1, 1),) * 2),
}

CAYLEY_KINDS = ("z2", "z2^2", "z2^3", "z3", "z4", "z-3grading",
                "z-5grading", "z^2", "zxz2")


def _no_params(family: str, kind: str, params):
    """Refuse parameters for a kind built on one fixed algebra."""
    if params is not None:
        raise BadParams("%s grading kind %r takes no parameters" % (family, kind))


def cayley_grading(kind: str, params=None) -> Grading:
    """One of the nine gradings of a Cayley algebra, on its natural basis.
    The doubling-tower kinds take three parameters, (1, 1, 1) by default;
    the split-Cayley kinds take none."""
    if kind in ("z2", "z2^2", "z2^3"):
        lams = tuple(sc(p) for p in params or (1, 1, 1))
        if len(lams) != 3 or any(l.is_zero() for l in lams):
            raise BadParams("doubling tower needs three nonzero scalars")
        A = compose.cd_tower(*lams)
        bits = [((i >> 0) & 1, (i >> 1) & 1, (i >> 2) & 1) for i in range(8)]
        if kind == "z2":
            return Grading(A, Z2, tuple((b[2],) for b in bits), name="z2")
        if kind == "z2^2":
            return Grading(A, Z2_2, tuple((b[1], b[2]) for b in bits), name="z2^2")
        return Grading(A, Z2_3, tuple(bits), name="z2^3")
    if kind in _CAYLEY_DEGREES:
        _no_params("cayley", kind, params)
        group, degrees = _CAYLEY_DEGREES[kind]
        return Grading(compose.split_cayley(), group, degrees, name=kind)
    raise BadParams("unknown Cayley grading kind %r" % kind)


QUATERNION_KINDS = ("z2", "z2^2", "z-3grading")


def quaternion_grading(kind: str, params=None) -> Grading:
    """Gradings of quaternion algebras: doubling steps, with two parameters,
    (1, 1) by default, or the matrix 3-grading, with none."""
    if kind in ("z2", "z2^2"):
        lams = tuple(sc(p) for p in params or (1, 1))
        if len(lams) != 2 or any(l.is_zero() for l in lams):
            raise BadParams("doubling tower needs two nonzero scalars")
        A = compose.cd_tower(*lams)
        bits = [((i >> 0) & 1, (i >> 1) & 1) for i in range(4)]
        if kind == "z2":
            return Grading(A, Z2, tuple((b[1],) for b in bits), name="z2")
        return Grading(A, Z2_2, tuple(bits), name="z2^2")
    if kind == "z-3grading":
        _no_params("quaternion", kind, params)
        A = compose.split_quaternion()
        return Grading(A, Z, ((0,), (0,), (1,), (-1,)), name="z-3grading")
    raise BadParams("unknown quaternion grading kind %r" % kind)


OKUBO_KINDS = ("z2", "z2^2", "z3", "z3^2", "z4", "z-3grading",
               "z-5grading", "z^2", "zxz2")


def okubo_grading(kind: str, params=None) -> Grading:
    """The gradings of the eight-dimensional symmetric composition algebras
    that exist over fields of characteristic zero.  The kinds on Okubo
    algebras (z2, z2^2, z3, z3^2) take two parameters, (1, 1) by default;
    those on a Petersson algebra of the split Cayley algebra take none."""
    if kind in ("z4", "z-5grading", "z-3grading", "z^2", "zxz2"):
        _no_params("okubo", kind, params)
        S = compose.split_petersson("nst" if kind in ("z4", "z-5grading")
                                    else "omega")
        group, degrees = _CAYLEY_DEGREES[kind]
        return Grading(S, group, degrees, name=kind)
    a, b = (sc(p) for p in params or (1, 1))
    if kind in _OKUBO_QUAT_DEGREES:
        group, degrees = _OKUBO_QUAT_DEGREES[kind]
        return Grading(compose.okubo_from_quaternion(b, a), group, degrees,
                       name=kind)
    if kind in ("z3", "z3^2"):
        S = compose.okubo(a, b)
        ij = compose.OKUBO_DEGREES
        if kind == "z3":
            return Grading(S, Z3, tuple((j,) for _, j in ij), name="z3")
        return Grading(S, Z3_2, ij, name="z3^2")
    raise BadParams("unknown Okubo grading kind %r" % kind)


def two_dim_z3_grading(xi=1) -> Grading:
    """Z3-grading of the two-dimensional symmetric composition algebra with
    isotropic norm: S_1 = span(x), S_2 = span(x*x), S_0 = 0."""
    S = compose.s2(xi)
    return Grading(S, Z3, ((1,), (2,)), name="dim2-z3")


DECLARED_GROUPS = {
    "z2": Z2, "z2^2": Z2_2, "z2^3": Z2_3, "z3": Z3, "z3^2": Z3_2, "z4": Z4,
    "z-3grading": Z, "z-5grading": Z, "z^2": ZxZ, "zxz2": ZxZ2,
}
