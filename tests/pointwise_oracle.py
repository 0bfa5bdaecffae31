"""The hand-written pointwise scanners and enumeration filters that the
compiled equation table replaced, kept as the oracle for the tests.

Each identity is spelled out as nested table lookups over the rows of
rows; reports are lists of (tag, first witness, count) in the level's
report order, and filters return True when the level's own rows hold.
"""

from omegarb.omega import StructureError


class _Collector:
    def __init__(self):
        self.first = {}
        self.counts = {}

    def hit(self, tag, witness):
        if tag not in self.first:
            self.first[tag] = witness
        self.counts[tag] = self.counts.get(tag, 0) + 1

    def report(self, level, tag_order):
        assert set(self.first) <= set(tag_order)
        return level, [(tag, self.first[tag], self.counts[tag])
                       for tag in tag_order if tag in self.first]


DIA_TAGS = ("dia1", "dia2", "dia3", "dia4", "dia5")
EDS_TAGS = DIA_TAGS + tuple(f"EQ{k}" for k in range(1, 11))
LAM_TAGS = tuple(f"EQ{k}" for k in range(11, 17))
COND_TAGS = tuple(f"eq{k}" for k in range(17, 28))


def _scan_dia(L, R, n, col):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                if L[L[i][j]][k] != L[i][L[j][k]]:
                    col.hit("dia1", (i, j, k))
                if L[L[i][j]][k] != L[i][R[j][k]]:
                    col.hit("dia2", (i, j, k))
                if L[R[i][j]][k] != R[i][L[j][k]]:
                    col.hit("dia3", (i, j, k))
                if R[L[i][j]][k] != R[i][R[j][k]]:
                    col.hit("dia4", (i, j, k))
                if R[R[i][j]][k] != R[i][R[j][k]]:
                    col.hit("dia5", (i, j, k))


def _scan_eds(L, R, Lh, Rh, n, col):
    _scan_dia(L, R, n, col)
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                u = Lh[L[i][j]][k]   # (a<-b)<|c
                v = Rh[i][R[j][k]]   # a|>(b->c)
                w = Rh[j][k]         # b|>c
                if Rh[i][L[j][k]] != Rh[i][j]:
                    col.hit("EQ1", (i, j, k))
                if Lh[R[i][j]][k] != Lh[j][k]:
                    col.hit("EQ2", (i, j, k))
                if L[Lh[i][j]][u] != Lh[i][L[j][k]]:
                    col.hit("EQ3", (i, j, k))
                if Lh[Lh[i][j]][u] != Lh[j][k]:
                    col.hit("EQ4", (i, j, k))
                if R[Lh[i][j]][u] != Lh[i][R[j][k]]:
                    col.hit("EQ5", (i, j, k))
                if Rh[Lh[i][j]][u] != Rh[j][k]:
                    col.hit("EQ6", (i, j, k))
                if L[v][w] != Rh[L[i][j]][k]:
                    col.hit("EQ7", (i, j, k))
                if Lh[v][w] != Lh[i][j]:
                    col.hit("EQ8", (i, j, k))
                if R[v][w] != Rh[R[i][j]][k]:
                    col.hit("EQ9", (i, j, k))
                if Rh[v][w] != Rh[i][j]:
                    col.hit("EQ10", (i, j, k))


def check_diassociative(s):
    col = _Collector()
    _scan_dia(s.left.rows, s.right.rows, s.size, col)
    return col.report("diassoc", DIA_TAGS)


def check_eds(s):
    col = _Collector()
    _scan_eds(s.left.rows, s.right.rows, s.lhd.rows, s.rhd.rows, s.size, col)
    return col.report("eds", EDS_TAGS)


def check_lambda_ets(s):
    """EDS axioms, the six weight identities, and the guarded conditionals.

    A conditional pair is checked at a triple only when the corresponding
    unconditional weight equality holds there with a nonzero common value;
    when the equality itself fails only that violation is recorded.
    """
    if s.psi is not None and not s.weight_zero:
        raise StructureError(
            "not a strict lambda-ETS: structure carries a generalized psi map; "
            "use the map-level checker"
        )
    if not s.has_strict_weight and not s.weight_zero:
        raise StructureError("lambda-ETS check requires dot and lambda tables")
    col = _Collector()
    n = s.size
    L, R, Lh, Rh = s.left.rows, s.right.rows, s.lhd.rows, s.rhd.rows
    _scan_eds(L, R, Lh, Rh, n, col)
    if s.weight_zero:
        # weight-0 mode: the weight table is identically zero, all six weight
        # identities and every conditional guard degenerate.
        return col.report("lambda-ets", EDS_TAGS + LAM_TAGS + COND_TAGS)
    D = s.dot.rows
    lam = s.lam
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                u = Lh[L[i][j]][k]
                v = Rh[i][R[j][k]]
                w = Rh[j][k]
                # EQ11 + conditional pair (eq17, eq18)
                if lam[R[i][j]][k] != lam[j][k]:
                    col.hit("EQ11", (i, j, k))
                elif lam[j][k]:
                    if Rh[i][j] != Rh[i][D[j][k]]:
                        col.hit("eq17", (i, j, k))
                    if D[R[i][j]][k] != R[i][D[j][k]]:
                        col.hit("eq18", (i, j, k))
                # EQ12 + (eq19, eq20)
                if lam[Lh[i][j]][u] != lam[j][k]:
                    col.hit("EQ12", (i, j, k))
                elif lam[j][k]:
                    if D[Lh[i][j]][u] != Lh[i][D[j][k]]:
                        col.hit("eq19", (i, j, k))
                    if L[L[i][j]][k] != L[i][D[j][k]]:
                        col.hit("eq20", (i, j, k))
                # EQ13 + (eq23, eq24)
                if lam[L[i][j]][k] != lam[i][R[j][k]]:
                    col.hit("EQ13", (i, j, k))
                elif lam[L[i][j]][k]:
                    if D[L[i][j]][k] != D[i][R[j][k]]:
                        col.hit("eq23", (i, j, k))
                    if Lh[i][j] != Rh[j][k]:
                        col.hit("eq24", (i, j, k))
                # EQ14 + (eq21, eq22)
                if lam[v][w] != lam[i][j]:
                    col.hit("EQ14", (i, j, k))
                elif lam[i][j]:
                    if R[i][R[j][k]] != R[D[i][j]][k]:
                        col.hit("eq21", (i, j, k))
                    if D[v][w] != Rh[D[i][j]][k]:
                        col.hit("eq22", (i, j, k))
                # EQ15 + (eq25, eq26)
                if lam[i][j] != lam[i][L[j][k]]:
                    col.hit("EQ15", (i, j, k))
                elif lam[i][j]:
                    if Lh[D[i][j]][k] != Lh[j][k]:
                        col.hit("eq25", (i, j, k))
                    if L[D[i][j]][k] != D[i][L[j][k]]:
                        col.hit("eq26", (i, j, k))
                # EQ16 + (eq27)
                p = lam[i][j] * lam[D[i][j]][k]
                if p != lam[j][k] * lam[i][D[j][k]]:
                    col.hit("EQ16", (i, j, k))
                elif p:
                    if D[D[i][j]][k] != D[i][D[j][k]]:
                        col.hit("eq27", (i, j, k))
    return col.report("lambda-ets", EDS_TAGS + LAM_TAGS + COND_TAGS)


def check_ets(s):
    """EDS axioms plus all eighteen displayed identities, unconditional."""
    if s.dot is None or s.star is None:
        raise StructureError("ETS check requires dot and star tables")
    col = _Collector()
    n = s.size
    L, R, Lh, Rh = s.left.rows, s.right.rows, s.lhd.rows, s.rhd.rows
    D, S = s.dot.rows, s.star.rows
    _scan_eds(L, R, Lh, Rh, n, col)
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                u = Lh[L[i][j]][k]
                v = Rh[i][R[j][k]]
                w = Rh[j][k]
                if S[R[i][j]][k] != S[j][k]:
                    col.hit("EQ17", (i, j, k))
                if D[R[i][j]][k] != R[i][D[j][k]]:
                    col.hit("eq18", (i, j, k))
                if Rh[i][j] != Rh[i][D[j][k]]:
                    col.hit("eq17", (i, j, k))
                if S[Lh[i][j]][u] != S[j][k]:
                    col.hit("EQ20", (i, j, k))
                if D[Lh[i][j]][u] != Lh[i][D[j][k]]:
                    col.hit("eq19", (i, j, k))
                if L[L[i][j]][k] != L[i][D[j][k]]:
                    col.hit("eq20", (i, j, k))
                if S[v][w] != S[i][j]:
                    col.hit("EQ23", (i, j, k))
                if R[i][R[j][k]] != R[D[i][j]][k]:
                    col.hit("eq21", (i, j, k))
                if D[v][w] != Rh[D[i][j]][k]:
                    col.hit("eq22", (i, j, k))
                if S[L[i][j]][k] != S[i][R[j][k]]:
                    col.hit("EQ26", (i, j, k))
                if D[L[i][j]][k] != D[i][R[j][k]]:
                    col.hit("eq23", (i, j, k))
                if Lh[i][j] != Rh[j][k]:
                    col.hit("eq24", (i, j, k))
                if S[i][j] != S[i][L[j][k]]:
                    col.hit("EQ29", (i, j, k))
                if Lh[D[i][j]][k] != Lh[j][k]:
                    col.hit("eq25", (i, j, k))
                if L[D[i][j]][k] != D[i][L[j][k]]:
                    col.hit("eq26", (i, j, k))
                if S[i][j] != S[i][D[j][k]]:
                    col.hit("EQ32", (i, j, k))
                if S[D[i][j]][k] != S[j][k]:
                    col.hit("EQ33", (i, j, k))
                if D[D[i][j]][k] != D[i][D[j][k]]:
                    col.hit("eq27", (i, j, k))
    order = EDS_TAGS + ("EQ17", "eq18", "eq17", "EQ20", "eq19", "eq20", "EQ23",
                        "eq21", "eq22", "EQ26", "eq23", "eq24", "EQ29", "eq25",
                        "eq26", "EQ32", "EQ33", "eq27")
    return col.report("ets", order)


def dia_ok(L, R, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                a = L[L[i][j]][k]
                if a != L[i][L[j][k]] or a != L[i][R[j][k]]:
                    return False
                if L[R[i][j]][k] != R[i][L[j][k]]:
                    return False
                b = R[i][R[j][k]]
                if R[L[i][j]][k] != b or R[R[i][j]][k] != b:
                    return False
    return True


def eds_extra_ok(L, R, Lh, Rh, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                if Rh[i][L[j][k]] != Rh[i][j]:
                    return False
                if Lh[R[i][j]][k] != Lh[j][k]:
                    return False
                u = Lh[L[i][j]][k]
                if L[Lh[i][j]][u] != Lh[i][L[j][k]]:
                    return False
                if Lh[Lh[i][j]][u] != Lh[j][k]:
                    return False
                if R[Lh[i][j]][u] != Lh[i][R[j][k]]:
                    return False
                if Rh[Lh[i][j]][u] != Rh[j][k]:
                    return False
                v = Rh[i][R[j][k]]
                w = Rh[j][k]
                if L[v][w] != Rh[L[i][j]][k]:
                    return False
                if Lh[v][w] != Lh[i][j]:
                    return False
                if R[v][w] != Rh[R[i][j]][k]:
                    return False
                if Rh[v][w] != Rh[i][j]:
                    return False
    return True


def ets_extra_ok(L, R, Lh, Rh, S, D, n):
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                if S[R[i][j]][k] != S[j][k]:
                    return False
                if D[R[i][j]][k] != R[i][D[j][k]]:
                    return False
                if Rh[i][j] != Rh[i][D[j][k]]:
                    return False
                u = Lh[L[i][j]][k]
                if S[Lh[i][j]][u] != S[j][k]:
                    return False
                if D[Lh[i][j]][u] != Lh[i][D[j][k]]:
                    return False
                if L[L[i][j]][k] != L[i][D[j][k]]:
                    return False
                v = Rh[i][R[j][k]]
                w = Rh[j][k]
                if S[v][w] != S[i][j]:
                    return False
                if R[i][R[j][k]] != R[D[i][j]][k]:
                    return False
                if D[v][w] != Rh[D[i][j]][k]:
                    return False
                if S[L[i][j]][k] != S[i][R[j][k]]:
                    return False
                if D[L[i][j]][k] != D[i][R[j][k]]:
                    return False
                if Lh[i][j] != Rh[j][k]:
                    return False
                if S[i][j] != S[i][L[j][k]]:
                    return False
                if Lh[D[i][j]][k] != Lh[j][k]:
                    return False
                if L[D[i][j]][k] != D[i][L[j][k]]:
                    return False
                if S[i][j] != S[i][D[j][k]]:
                    return False
                if S[D[i][j]][k] != S[j][k]:
                    return False
                if D[D[i][j]][k] != D[i][D[j][k]]:
                    return False
    return True
