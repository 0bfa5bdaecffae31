"""Typed angularly decorated planar rooted trees and their free algebra.

A :class:`Tree` is a root vertex with an ordered, nonempty tuple of
children separated by angle decorations.  Each child is either a leaf
(``None``) or an internal edge ``(type_index, subtree)`` typed by a carrier
element of the ambient parameter structure.  The one-leaf tree is the
multiplicative identity; the trivial tree appears only as a leaf child,
never as a standalone algebra element, which keeps the basis of formal
sums uniform.

Trees are hash-consed: there is one object per distinct tree, held weakly
by a module-level table keyed by (children, angles), so two trees are equal
exactly when they are the same object.  Equality and hashing are object
identity, done in C: the memo, the accumulators and formal sums find a tree
without running Python code, whatever its depth.  The table insert is one
atomic ``dict.setdefault``, so threads building the same tree at once all
get the one published object.

:class:`TreeAlgebra` implements the inductive product: depth-1 corollas
concatenate their angle lists; when at least one of the two boundary
children (last child of the left factor, first child of the right factor)
is a leaf, the roots merge and the boundary pair collapses onto the
non-leaf member; when both are internal edges with types a, b the boundary
pair expands to the three grafted terms typed (a->b, a|>b), (a<-b, a<|b)
and weight * (a.b) before merging, recursing on the subtrees.  Grafting on
a new root realizes the Rota-Baxter operator family.

The recursion is memoized on basis pairs, and its memo holds integer
numerators graded by the weight term.  In t*u the coefficient of a result
tree r carries exactly g = edges(t) + edges(u) - edges(r) factors lambda,
because the weight term merges two edges into one and the other two terms
keep the edge count.  With D the least common denominator of the lambda
table (1 in weight-0 mode), the memo stores coefficient * D**g, an int.
Each entry is built in one pass from the two or three memoized entries of
the recursion: the left head, the edge typed w over a result tree of the
entry, then the right tail, go straight into one dict; the two
edge-keeping terms copy their numerators and the weight term multiplies
them by the int lambda(a, b) * D.  No Fraction arithmetic happens inside.

The boundary to exact rationals, ``product``, ``diamond_basis`` and
``p_op`` are shared with the word algebra in :mod:`omegarb.free`.

The expression parser refuses a tree deeper than ``MAX_TREE_DEPTH`` levels
with :class:`ExprError`, so products and ``evaluate`` on parsed input stay
inside the default recursion limit.  A tree's edge count and depth are
set when it is built, from its subtrees, so ``edge_count`` and ``depth``
read them at any depth; ``leaf_count``, ``Tree.sort_key`` (computed when
asked for, not kept), pickling and ``tree_to_str`` are iterative and take
trees of any depth.
"""

from __future__ import annotations

import itertools
import weakref
from _weakref import _remove_dead_weakref
from fractions import Fraction
from functools import partial, reduce

from .expr import MAX_DEPTH as MAX_TREE_DEPTH
from .expr import ExprError, ExprParser
from .free import FreeAlgebra
from .omega import OmegaStructure, StructureError
from .scalars import FormalSum, drop_zeros, format_sum, graded_relabel

__all__ = [
    "Tree",
    "unit",
    "corolla",
    "graft",
    "depth",
    "branches",
    "leaf_count",
    "edge_count",
    "TreeAlgebra",
    "rb_operator",
    "assoc_counterexample_search",
    "all_trees",
    "tree_to_str",
    "sum_to_str",
    "parse_tree_expr",
    "MAX_TREE_DEPTH",
]


class Tree:
    """A typed, angularly decorated planar rooted tree.  Trees are
    hash-consed (see the module docstring), so they compare and hash by
    identity; pickling and copying return the table's tree, at any depth.
    The sort key is computed when asked for and not kept."""

    __slots__ = ("children", "angles", "_depth", "_edges", "__weakref__")

    def __new__(cls, children, angles):
        return _tree(tuple(children), tuple(angles))

    def __reduce__(self):
        return _from_key, (self.sort_key(),)

    def sort_key(self):
        """The flat preorder sequence: arity, angle labels, then per child 0
        (leaf) or 1, edge type and the subtree's sequence.  It orders trees
        as the nested (arity, angles, child markers) tuples would, and is
        built with a stack, so it compares and prints at any depth."""
        out = []
        # (tree, index of the next child to write)
        stack = [(self, 0)]
        while stack:
            node, i = stack.pop()
            kids = node.children
            if not i:
                out.append(len(kids))
                out.extend(node.angles)
            for j in range(i, len(kids)):
                c = kids[j]
                if c is None:
                    out.append(0)
                else:
                    out.append(1)
                    out.append(c[0])
                    stack.append((node, j + 1))
                    stack.append((c[1], 0))
                    break
        return tuple(out)

    def __repr__(self):
        return f"Tree{self.sort_key()!r}"


class _Entry(weakref.ref):
    # a table entry: a weak reference to a tree that knows its key
    __slots__ = ("key",)


# (children, angles) -> _Entry of the one live tree with them
_table: dict = {}


def _evict(entry):
    # called when the tree dies; removes the entry only if it is still dead,
    # never a live tree inserted under the same key since
    _remove_dead_weakref(_table, entry.key)


def _tree(children: tuple, angles: tuple) -> Tree:
    """The one tree with these children and angles (both tuples)."""
    key = (children, angles)
    entry = _table.get(key)
    if entry is not None:
        t = entry()
        if t is not None:
            return t
    if not children:
        raise ValueError("a tree has at least one child (the one-leaf tree)")
    if len(angles) != len(children) - 1:
        raise ValueError("angle count must be children count - 1")
    t = object.__new__(Tree)
    t.children = children
    t.angles = angles
    # the subtrees are built first, so their counts are set (a plain loop: fastest)
    edges = below = 0
    for c in children:
        if c is not None:
            sub = c[1]
            edges += sub._edges + 1
            if sub._depth > below:
                below = sub._depth
    t._edges = edges
    t._depth = below + 1
    entry = _Entry(t, _evict)
    entry.key = key
    while True:
        found = _table.setdefault(key, entry)()
        if found is not None:
            return found
        # a dead entry whose eviction has not run yet
        _remove_dead_weakref(_table, key)


def _from_key(key) -> Tree:
    """The tree whose ``sort_key`` is ``key``, built bottom up with a stack."""
    it = iter(key)

    def vertex():
        n = next(it)
        return tuple(itertools.islice(it, n - 1)), [], n

    # per open vertex: its angles, the children read so far, its arity
    stack = [vertex()]
    while True:
        angles, kids, n = stack[-1]
        if len(kids) < n:
            if next(it):
                kids.append(next(it))  # the edge type; its subtree follows
                stack.append(vertex())
            else:
                kids.append(None)
            continue
        t = _tree(tuple(kids), angles)
        stack.pop()
        if not stack:
            return t
        kids = stack[-1][1]
        kids.append((kids.pop(), t))


_UNIT = _tree((None,), ())


def unit() -> Tree:
    """The one-leaf single-vertex tree, the identity of the product."""
    return _UNIT


def corolla(angles) -> Tree:
    """A single vertex with only leaf children, decorated by the given angles."""
    angles = tuple(angles)
    return _tree((None,) * (len(angles) + 1), angles)


def graft(omega: int, t: Tree | FormalSum):
    """New root below the argument, connected by an edge typed ``omega``.

    On a sum this is the injective relabel :func:`scalars.graded_relabel`,
    which keeps the sum's lift.
    """
    if isinstance(t, FormalSum):
        return graded_relabel(t, lambda b: graft(omega, b))
    return _tree(((omega, t),), ())


def depth(t: Tree) -> int:
    """Vertices on a longest root-to-leaf path, set when the tree is built."""
    return t._depth


def branches(t: Tree) -> int:
    return len(t.children)


def edge_count(t: Tree) -> int:
    """Internal edges of a tree, set when the tree is built."""
    return t._edges


def leaf_count(t: Tree) -> int:
    count = 0
    stack = [t]
    while stack:
        for c in stack.pop().children:
            if c is None:
                count += 1
            else:
                stack.append(c[1])
    return count


class TreeAlgebra(FreeAlgebra):
    """The free algebra on trees over a parameter structure.

    Elements are formal sums of trees; the product is memoized on basis
    pairs, which makes large exhaustive identity scans cheap.
    """

    kind = "tree"
    # the grade of the numerator memo
    _grade = staticmethod(edge_count)
    # bound in the class body, not only inherited: perfbench/tracing.py
    # wraps these two in each algebra class's own __dict__
    product = FreeAlgebra.product
    diamond_basis = FreeAlgebra.diamond_basis

    def one(self) -> FormalSum:
        return FormalSum.term(_UNIT)

    def _prefix(self, w: int):
        # the basis map of P_w; trees key the kernel by the trees themselves
        return partial(graft, w), None

    def _diamond(self, t: Tree, u: Tree) -> dict:
        # the graded numerators of t*u: coefficient * D**(edges lost)
        key = (t, u)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        last = t.children[-1]
        first = u.children[0]
        head = t.children[:-1]
        tail = u.children[1:]
        angles = t.angles + u.angles
        if last is None or first is None:
            merged = first if last is None else last
            res = {_tree(head + (merged,) + tail, angles): 1}
        else:
            a, left_sub = last
            b, right_sub = first
            right, rhd, left, lhd, dot, lam = self._ops[a][b]
            up = _tree(((rhd, left_sub),), ())
            down = _tree(((lhd, right_sub),), ())
            diamond = self._diamond
            # (edge type w, numerators of the subtrees below it, int factor)
            parts = [(right, diamond(up, right_sub), 1), (left, diamond(left_sub, down), 1)]
            if lam:
                # the weight term merges two edges: one grade up
                parts.append((dot, diamond(left_sub, right_sub), lam))
            acc: dict = {}
            get = acc.get
            for w, sub, factor in parts:
                for sub_tree, n in sub.items():
                    tree = _tree(head + ((w, sub_tree),) + tail, angles)
                    acc[tree] = get(tree, 0) + factor * n
            res = drop_zeros(acc) if 0 in acc.values() else acc
        self._memo[key] = res
        return res

    def evaluate(self, x: FormalSum | Tree, f, target):
        """The universal morphism determined by the generator images ``f``.

        ``f`` maps angle labels to elements of ``target``, an algebra over
        the same parameter structure exposing one/product/p_op.
        """
        if target.omega != self.omega:
            raise StructureError("target algebra is over a different parameter structure")
        if isinstance(x, Tree):
            return self._evalTree(x, f, target)
        return x.apply_linear(lambda t: self._evalTree(t, f, target))

    def _evalTree(self, t: Tree, f, target):
        # frames [vertex, child index, factors] on an explicit stack, so any
        # depth works; value carries a finished subtree up to its parent
        stack, value = [[t, 0, []]], None
        while stack:
            node, i, factors = frame = stack[-1]
            if i == len(node.children):
                stack.pop()
                value = reduce(target.product, factors) if factors else target.one()
                continue
            if (child := node.children[i]) is not None:
                if value is None:
                    stack.append([child[1], 0, []])
                    continue
                factors.append(target.p_op(child[0], value))
                value = None
            if i < len(node.angles):
                label = node.angles[i]
                if label not in f:
                    raise StructureError(f"no image for generator {label!r}")
                factors.append(f[label])
            frame[1] = i + 1
        return value


def rb_operator(algebra: TreeAlgebra, omega: int, u) -> FormalSum:
    """Alias of grafting, exposing the operator-family role."""
    return algebra.p_op(omega, u)


def assoc_counterexample_search(omega: OmegaStructure, gens, bound: int = 3):
    """First associativity witness among triples of grafted generator trees.

    Trees are built by grafting the generator corollas (single angles plus
    the two-angle corolla when two generators are available) up to the depth
    bound; returns (t1, t2, t3) with (t1*t2)*t3 != t1*(t2*t3), or None.
    The search deepens one depth at a time: all triples of depth-2 trees come
    first, and at depth d only the triples holding at least one tree of depth
    d are scanned, so each triple of the full pool is scanned once.
    """
    alg = TreeAlgebra(omega)
    gens = list(gens)
    bases = [corolla((g,)) for g in gens]
    if len(gens) >= 2:
        bases.append(corolla((gens[0], gens[1])))
    pool = []
    tier = [graft(w, b) for b in bases for w in range(omega.size)]
    for d in range(2, max(bound, 2) + 1):
        if d > 2:
            tier = [graft(w, t) for t in tier for w in range(omega.size)]
        start = len(pool)
        pool.extend(tier)
        for i1, t1 in enumerate(pool):
            s1 = FormalSum.term(t1)
            for i2, t2 in enumerate(pool):
                s2 = FormalSum.term(t2)
                s12 = alg.product(s1, s2)
                # triples of shallower trees only were scanned at depth d - 1
                for t3 in pool if i1 >= start or i2 >= start else tier:
                    s3 = FormalSum.term(t3)
                    lhs = alg.product(s12, s3)
                    rhs = alg.product(s1, alg.product(s2, s3))
                    if lhs != rhs:
                        return (t1, t2, t3)
    return None


def all_trees(alphabet, n_types: int, max_leaves: int, max_depth: int):
    """All trees with the given bounds, canonically ordered.

    Exhaustive over shapes, angle decorations, and edge types; sizes grow
    fast, so callers keep the bounds small.
    """
    alphabet = tuple(alphabet)
    memo: dict = {}

    def trees_exact(p, d):
        key = (p, d)
        if key in memo:
            return memo[key]
        if d < 1:
            memo[key] = []
            return []
        out = []
        # child option lists per leaf count
        def child_options(q):
            edges = [(w, sub) for sub in trees_exact(q, d - 1) for w in range(n_types)]
            return [None] + edges if q == 1 else edges

        for k in range(1, p + 1):
            # the leaf counts of the k children: p split at k - 1 cuts
            for cuts in itertools.combinations(range(1, p), k - 1):
                bounds = (0,) + cuts + (p,)
                opt_lists = [child_options(b - a) for a, b in zip(bounds, bounds[1:])]
                for chosen in itertools.product(*opt_lists):
                    for angles in itertools.product(alphabet, repeat=k - 1):
                        out.append(_tree(chosen, angles))
        memo[key] = out
        return out

    result = []
    for p in range(1, max_leaves + 1):
        result.extend(trees_exact(p, max_depth))
    result.sort(key=Tree.sort_key)
    return result


# ---------------------------------------------------------------------------
# Serialization and parsing


def tree_to_str(t: Tree, type_labels) -> str:
    out = []
    # (tree, index of the next child to write), so any depth works
    stack = [(t, 0)]
    while stack:
        node, i = stack.pop()
        kids = node.children
        if i == len(kids):
            out.append(")")
            continue
        out.append(f" {node.angles[i - 1]} " if i else "(")
        stack.append((node, i + 1))
        child = kids[i]
        if child is None:
            out.append("|")
        else:
            out.append(f"[{type_labels[child[0]]}]")
            stack.append((child[1], 0))
    return "".join(out)


def sum_to_str(s: FormalSum, type_labels) -> str:
    return format_sum(s, lambda t: tree_to_str(t, type_labels))


class _TreeExprParser(ExprParser):
    """Tree-sum expressions: the shared grammar of :mod:`omegarb.expr`, with

        primary := SCALAR | tree
        tree    := '(' child (ANGLE child)* ')'
        child   := '|'  |  '[' TYPE ']' tree
    """

    kind = "tree"

    def primary(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return Fraction(tok[1])
        if tok[0] == "(":
            return FormalSum.term(self.tree())
        raise ExprError(f"expected a scalar or '(', found {tok[1]!r}", tok[2])

    def tree(self) -> Tree:
        self.enter(self.take("("), "tree")
        children = [self.child()]
        angles = []
        while self.peek()[0] != ")":
            name = self.take("name")
            angles.append(name[1])
            children.append(self.child())
        self.take(")")
        self.depth -= 1
        return Tree(tuple(children), tuple(angles))

    def child(self):
        tok = self.peek()
        if tok[0] == "|":
            self.take()
            return None
        if tok[0] == "[":
            return (self.type_label(), self.tree())
        raise ExprError(f"expected '|' or '[', found {tok[1]!r}", tok[2])


def parse_tree_expr(text: str, type_labels, algebra: TreeAlgebra | None = None) -> FormalSum:
    """Parse a tree-sum expression; with an algebra, '*' between trees multiplies."""
    return _TreeExprParser(text, type_labels, algebra).parse()
