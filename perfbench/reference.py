"""Memo-free reference products and tree invariants, written apart from omegarb.

The products follow the recursive definitions directly, on plain nested
tuples and dict sums, with no memo and no shared code with ``omegarb.trees``
or ``omegarb.words``; only the parameter structure (its tables and weights)
and the finite algebra's structure constants are read from the program's
objects, since they are the inputs.

Tree product (free Omega-Rota-Baxter algebra on typed angularly decorated
planar rooted trees): a tree is ``(children, angles)`` with each child a
leaf ``None`` or a typed edge ``(w, subtree)``.  Multiplying T by U joins
T's last child to U's first child.  If either is a leaf the two roots merge
and the leaf disappears.  If both are edges ``(a, L)`` and ``(b, R)`` the
pair is replaced, by the Rota-Baxter identity, with the single edges

    (a->b, (a|>b)L * R) + (a<-b, L * (a<|b)R) + lambda(a,b) (a.b, L * R)

where ``(w)X`` grafts X on a new root by an edge of type w.

Word product (the mixable shuffle with operator family): a word is
``(entries, types)``; for a = a0 (x)_alpha a' and b = b0 (x)_beta b' the
head is a0 b0 in the algebra and the tail is a', b', or, when both have
tails, (alpha->beta, P_(alpha|>beta)(a') b') + (alpha<-beta, a' P_(alpha<|beta)(b'))
+ lambda(alpha,beta) (alpha.beta, a' b'), with P_w(x) = 1 (x)_w x.
"""

from __future__ import annotations

from fractions import Fraction

from omegarb.scalars import FormalSum
from omegarb.trees import Tree
from omegarb.words import TypedWord


def _acc(out: dict, key, coeff):
    cur = out.get(key, 0) + coeff
    if cur:
        out[key] = cur
    else:
        out.pop(key, None)


def _weight(structure, a, b):
    if structure.weight_zero or structure.lam is None:
        return Fraction(0)
    return structure.lam[a][b]


# -- trees -------------------------------------------------------------------


def plain_tree(t: Tree):
    return (
        tuple(None if c is None else (c[0], plain_tree(c[1])) for c in t.children),
        tuple(t.angles),
    )


def program_tree(p) -> Tree:
    kids, angles = p
    return Tree(
        tuple(None if c is None else (c[0], program_tree(c[1])) for c in kids), angles
    )


def _graft(w, p):
    return (((w, p),), ())


def plain_tree_product(s, t, u) -> dict:
    """Product of two plain trees as a dict plain tree -> Fraction."""
    tk, ta = t
    uk, ua = u
    last, first = tk[-1], uk[0]
    angles = ta + ua
    if last is None or first is None:
        joined = first if last is None else last
        return {(tk[:-1] + (joined,) + uk[1:], angles): Fraction(1)}
    (a, left_sub), (b, right_sub) = last, first
    parts = [
        (s.right(a, b), plain_tree_product(s, _graft(s.rhd(a, b), left_sub), right_sub), 1),
        (s.left(a, b), plain_tree_product(s, left_sub, _graft(s.lhd(a, b), right_sub)), 1),
    ]
    lam = _weight(s, a, b)
    if lam:
        parts.append((s.dot(a, b), plain_tree_product(s, left_sub, right_sub), lam))
    out: dict = {}
    for w, inner, scale in parts:
        for x, c in inner.items():
            _acc(out, (tk[:-1] + ((w, x),) + uk[1:], angles), c * scale)
    return out


def tree_product(s, x: FormalSum, y: FormalSum) -> FormalSum:
    """Bilinear reference product of two tree sums over the structure s."""
    out: dict = {}
    for t, ct in x:
        pt = plain_tree(t)
        for u, cu in y:
            for p, c in plain_tree_product(s, pt, plain_tree(u)).items():
                _acc(out, p, c * ct * cu)
    return FormalSum({program_tree(p): c for p, c in out.items()})


def angle_word(t: Tree) -> tuple:
    """The planar angle word: angle labels read left to right through the tree."""
    out = []
    for i, child in enumerate(t.children):
        if child is not None:
            out.extend(angle_word(child[1]))
        if i < len(t.angles):
            out.append(t.angles[i])
    return tuple(out)


def edge_count(t: Tree) -> int:
    """Number of internal (typed) edges."""
    return sum(0 if c is None else 1 + edge_count(c[1]) for c in t.children)


def weightless(s) -> bool:
    return s.weight_zero or s.lam is None or not any(v for row in s.lam for v in row)


def tree_product_invariants(s, factors, result: FormalSum):
    """Check the shape of a product of basis trees ``factors`` (in order).

    Every output tree's angle word is the factors' words concatenated, and
    its edge count lies between the largest factor's and the sum of all,
    equal to the sum at weight 0.  Returns an error string or None.
    """
    word = tuple(ch for t in factors for ch in angle_word(t))
    counts = [edge_count(t) for t in factors]
    low, high = max(counts), sum(counts)
    if weightless(s):
        low = high
    for t, _ in result:
        if angle_word(t) != word:
            return f"angle word {angle_word(t)} is not {word}"
        e = edge_count(t)
        if not low <= e <= high:
            return f"edge count {e} outside [{low}, {high}]"
    return None


# -- words -------------------------------------------------------------------


def plain_word_product(s, algebra, a, b) -> dict:
    """Product of two plain words ``(entries, types)`` as a dict word -> Fraction."""
    (ae, at), (be, bt) = a, b
    head = [(k, c) for k, c in algebra.product_basis(ae[0], be[0])]
    if not at and not bt:
        return {((k,), ()): c for k, c in head}
    unit = algebra.unit
    if not bt:
        tails = [(at[0], {(ae[1:], at[1:]): Fraction(1)}, 1)]
    elif not at:
        tails = [(bt[0], {(be[1:], bt[1:]): Fraction(1)}, 1)]
    else:
        al, be_ = at[0], bt[0]
        ta, tb = (ae[1:], at[1:]), (be[1:], bt[1:])
        tails = [
            (
                s.right(al, be_),
                plain_word_product(s, algebra, ((unit,) + ta[0], (s.rhd(al, be_),) + ta[1]), tb),
                1,
            ),
            (
                s.left(al, be_),
                plain_word_product(s, algebra, ta, ((unit,) + tb[0], (s.lhd(al, be_),) + tb[1])),
                1,
            ),
        ]
        lam = _weight(s, al, be_)
        if lam:
            tails.append((s.dot(al, be_), plain_word_product(s, algebra, ta, tb), lam))
    out: dict = {}
    for k, ck in head:
        for ty, tail, scale in tails:
            for (te, tt), c in tail.items():
                _acc(out, ((k,) + te, (ty,) + tt), ck * c * scale)
    return out


def word_product(s, algebra, x: FormalSum, y: FormalSum) -> FormalSum:
    """Bilinear reference product of two word sums."""
    out: dict = {}
    for w, cw in x:
        for v, cv in y:
            pw = (w.entries, w.types)
            for p, c in plain_word_product(s, algebra, pw, (v.entries, v.types)).items():
                _acc(out, p, c * cw * cv)
    return FormalSum({TypedWord(e, t): c for (e, t), c in out.items()})
