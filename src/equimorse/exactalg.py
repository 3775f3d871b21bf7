"""Exact rational homology of graded chain complexes, plain and Z_k-invariant.

Every Betti number in the package goes through one sparse route.  A
differential is given per degree as a list of sparse {row: coeff} columns,
column j holding the boundary of generator j; `sparse_rank` eliminates them
over Q, so the answers are exact.  A Z_k action is a signed permutation of
the generators, given per degree as one (position, sign) per generator.

Invariant homology is the homology of the invariant subcomplex, spanned by
the orbit sums whose closure sign is +1.  Each invariant Betti number is
cross-checked against an independent computation that walks no orbits: the
rank of the averaging operator on H_d is

    rank[A_d | B_d] - rank B_d - rank(d_d A_d),

where A_d holds the columns sum_{i<k} T^i e_j and B_d is the image of the
next differential.  A mismatch raises ValidationError.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ConfigurationError, ShapeError, ValidationError


def _rational(v) -> Fraction:
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"coefficient {v!r} is not a finite rational number") from None


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a reduced rational."""
    return _rational(str(s))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sparse_rank(columns: list[dict[int, Fraction]]) -> int:
    """Rank over Q of a matrix given as sparse {row: coeff} columns.

    Integer coefficients are read as rationals, so elimination stays exact.
    """
    cols = {j: {r: Fraction(v) for r, v in col.items() if v} for j, col in enumerate(columns)}
    cols = {j: col for j, col in cols.items() if col}
    row_occ: dict[int, set[int]] = {}
    for j, col in cols.items():
        for r in col:
            row_occ.setdefault(r, set()).add(j)
    rk = 0
    while cols:
        # pivot: scan the sparsest column, take its entry with fewest row occupants,
        # preferring +-1 values to limit fraction growth
        pc = min(cols, key=lambda j: len(cols[j]))
        best = None
        for r, v in cols[pc].items():
            key = (0 if abs(v) == 1 else 1, len(row_occ[r]))
            if best is None or key < best[0]:
                best = (key, r)
        pr = best[1]
        pv = cols[pc][pr]
        targets = [j for j in row_occ[pr] if j != pc]
        pcol = cols.pop(pc)
        for r in pcol:
            row_occ[r].discard(pc)
        for j in targets:
            col = cols[j]
            f = col[pr] / pv
            for r, v in pcol.items():
                new = col.get(r, Fraction(0)) - f * v
                if new:
                    if r not in col:
                        row_occ.setdefault(r, set()).add(j)
                    col[r] = new
                elif r in col:
                    del col[r]
                    row_occ[r].discard(j)
            if not col:
                del cols[j]
        rk += 1
    return rk


def _apply(cols, vec):
    # the sparse image sum_j vec[j] * cols[j]
    out = {}
    for j, c in vec.items():
        for r, v in cols[j].items():
            out[r] = out.get(r, 0) + c * v
    return {r: v for r, v in out.items() if v}


def betti_from_columns(cols) -> dict:
    """Betti numbers by degree of the complex with boundary columns cols[q].

    cols[q] lists one sparse {row: coeff} column per generator of degree q,
    rows indexing the generators of degree q - 1; zero entries are omitted
    from the result.
    """
    ranks = {q: sparse_rank(cs) for q, cs in cols.items()}
    out = {}
    for q, cs in cols.items():
        bq = len(cs) - ranks[q] - ranks.get(q + 1, 0)
        if bq:
            out[q] = bq
    return out


def _check_action(k, cols, act):
    """Require act to be a signed permutation of order dividing k commuting with cols.

    act[q][i] = (position of T e_i, sign), so T e_i = sign * e_position.
    """
    for q, perm in act.items():
        if len(perm) != len(cols[q]) or sorted(p for p, _ in perm) != list(range(len(perm))):
            raise ValidationError(f"action at degree {q} is not a signed permutation")
        for start in range(len(perm)):
            pos, sign = start, 1
            for _ in range(k):
                pos, s = perm[pos]
                sign *= s
            if (pos, sign) != (start, 1):
                raise ValidationError(f"action does not have order dividing k={k} at degree {q}")
    for q, cs in cols.items():
        lower = [{t: s} for t, s in act.get(q - 1, [])]
        for i, col in enumerate(cs):
            ti, ts = act[q][i]
            if {r: ts * v for r, v in cs[ti].items() if v} != _apply(lower, col):
                raise ValidationError(f"action does not commute with the differential at degree {q}")


def _averaging_betti(k, cols, act, q):
    # rank of the averaging operator on H_q, from the columns sum_{i<k} T^i e_j
    A = []
    for j in range(len(act[q])):
        col, pos, sign = {}, j, 1
        for _ in range(k):
            col[pos] = col.get(pos, 0) + sign
            pos, s = act[q][pos]
            sign *= s
        A.append(col)
    B = cols.get(q + 1, [])
    return (sparse_rank(A + B) - sparse_rank(B)
            - sparse_rank([_apply(cols[q], a) for a in A]))


def invariant_betti_from_columns(k, cols, act) -> dict:
    """Betti numbers of the subcomplex invariant under the Z_k action act.

    cols is as in `betti_from_columns`; act[q][i] = (position, sign) gives the
    image of generator i of degree q.  The action is checked first, and every
    Betti number is cross-checked against the rank of averaging on homology.
    """
    _check_action(k, cols, act)
    # orbit sums with closure sign +1 span the invariant subcomplex
    gens = {}
    for q, perm in act.items():
        gens[q] = []
        seen = [False] * len(perm)
        for start in range(len(perm)):
            if seen[start]:
                continue
            orbit = []
            pos, sign = start, 1
            while True:
                orbit.append((pos, sign))
                seen[pos] = True
                pos, s = perm[pos]
                sign *= s
                if pos == start:
                    break
            if sign == 1:
                gens[q].append(orbit)
    inv_cols = {}
    for q, q_gens in gens.items():
        lower_coord = {}
        for gidx, orbit in enumerate(gens.get(q - 1, [])):
            for pos, s in orbit:
                lower_coord[pos] = (gidx, s)
        inv_cols[q] = []
        for orbit in q_gens:
            col = {}
            for r, v in _apply(cols[q], dict(orbit)).items():
                hit = lower_coord.get(r)
                if hit is None:
                    raise ValidationError("invariant boundary leaves the invariant subcomplex")
                gidx, s = hit
                got = col.setdefault(gidx, v * s)
                if got != v * s:
                    raise ValidationError("invariant boundary coordinates are inconsistent")
            inv_cols[q].append(col)
    betti = betti_from_columns(inv_cols)
    for q in cols:
        check = _averaging_betti(k, cols, act, q)
        if betti.get(q, 0) != check:
            raise ValidationError(
                f"invariant subcomplex betti {betti.get(q, 0)} != rank of averaging "
                f"on homology {check} at degree {q}")
    return betti


def _integer(v, what) -> int:
    try:
        return int(v)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} {v!r} is not an integer") from None


def _entries(rows) -> dict:
    # [{"from", "to", "coeff"}, ...] -> {from: {to: coeff}}
    out: dict = {}
    for e in rows:
        out.setdefault(e["from"], {})[e["to"]] = parse_rational(e["coeff"])
    return out


class GradedChainComplex:
    """Finitely generated chain complex over Q, optionally with a Z_k action.

    Generators are named and ordered per degree; the differential drops degree
    by one.  The action is the image of 1 in Z_k and must be a signed
    permutation commuting with the differential.  Both are stored sparsely:
    d_cols[d][j] is the boundary of generator j of degree d as {row: coeff},
    and t_perm[d][j] = (position, sign) is its image under the action.

    >>> cx = GradedChainComplex(
    ...     k=2,
    ...     generators={2: ["x"], 1: ["y", "z"]},
    ...     differential={"x": {"y": 1, "z": -1}},
    ...     action={"x": {"x": -1}, "y": {"y": -1}, "z": {"z": -1}})
    >>> homology_betti(cx)
    {1: 1}
    >>> invariant_homology_betti(cx)
    {}
    """

    def __init__(self, k, generators, differential=None, action=None):
        self.k = _integer(k, "order k")
        if self.k < 1:
            raise ValidationError(f"order k must be positive, got {k}")
        self.generators = {_integer(d, "degree"): list(names)
                           for d, names in generators.items() if names}
        self.degrees = sorted(self.generators)
        self._where = {}
        for d, names in self.generators.items():
            for i, name in enumerate(names):
                if name in self._where:
                    raise ValidationError(f"duplicate generator name {name!r}")
                self._where[name] = (d, i)
        self.d_cols = {d: [{} for _ in self.generators[d]] for d in self.degrees}
        for src, targets in (differential or {}).items():
            d, j = self._locate(src)
            for dst, coeff in targets.items():
                e, i = self._locate(dst)
                if e != d - 1:
                    raise ShapeError(f"differential {src!r}->{dst!r} must drop degree by 1")
                c = _rational(coeff)
                if c:
                    self.d_cols[d][j][i] = c
        self.t_perm = None
        if action is not None:
            self.t_perm = {d: [None] * self.dim(d) for d in self.degrees}
            for src, targets in action.items():
                d, j = self._locate(src)
                for dst, coeff in targets.items():
                    e, i = self._locate(dst)
                    if e != d:
                        raise ShapeError(f"action {src!r}->{dst!r} must preserve degree")
                    c = _rational(coeff)
                    if not c:
                        continue
                    if abs(c) != 1 or self.t_perm[d][j] is not None:
                        raise ValidationError(f"action at degree {d} is not a signed permutation")
                    self.t_perm[d][j] = (i, int(c))
        self._validate()

    def _locate(self, name):
        if name not in self._where:
            raise ValidationError(f"unknown generator {name!r}")
        return self._where[name]

    def dim(self, d: int) -> int:
        return len(self.generators.get(d, ()))

    def _validate(self):
        for d in self.degrees:
            if d - 1 in self.d_cols:
                for col in self.d_cols[d]:
                    if _apply(self.d_cols[d - 1], col):
                        raise ValidationError(f"differential does not square to zero at degree {d}")
        if self.t_perm is None:
            return
        for d, perm in self.t_perm.items():
            if None in perm:
                raise ValidationError(f"action at degree {d} is not a signed permutation")
        _check_action(self.k, self.d_cols, self.t_perm)

    def to_json(self) -> dict:
        doc = {
            "k": self.k,
            "generators": {str(d): list(names) for d, names in self.generators.items()},
            "differential": [
                {"from": src, "to": self.generators[d - 1][i], "coeff": format_rational(c)}
                for d in self.degrees
                for src, col in zip(self.generators[d], self.d_cols[d])
                for i, c in sorted(col.items())],
        }
        if self.t_perm is not None:
            doc["action"] = [
                {"from": src, "to": self.generators[d][i], "coeff": str(s)}
                for d in self.degrees
                for src, (i, s) in zip(self.generators[d], self.t_perm[d])]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GradedChainComplex":
        try:
            k, generators = doc["k"], doc["generators"]
            diff = _entries(doc.get("differential", []))
            action = _entries(doc["action"]) if "action" in doc else None
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"chain complex document lacks or mistypes {exc}") from None
        return cls(k=k, generators=generators, differential=diff, action=action)


def homology_betti(cx: GradedChainComplex) -> dict:
    """Betti numbers over Q by degree; zero entries omitted."""
    return betti_from_columns(cx.d_cols)


def invariant_homology_betti(cx: GradedChainComplex) -> dict:
    """Betti numbers of the invariant subcomplex; cross-checked on homology."""
    if cx.t_perm is None:
        raise ConfigurationError("complex has no action")
    return invariant_betti_from_columns(cx.k, cx.d_cols, cx.t_perm)


def euler_characteristic(betti: dict) -> int:
    return sum((-1) ** int(d) * int(b) for d, b in betti.items())


def tensor_with_shift(cx: GradedChainComplex, mu: int, sign_flip: bool) -> GradedChainComplex:
    """Shift degrees by mu (tensor with one nondegenerate generator); optionally negate the action."""
    if sign_flip and cx.t_perm is None:
        raise ConfigurationError("sign_flip requires an action")
    generators = {d + mu: list(names) for d, names in cx.generators.items()}
    diff = {src: {cx.generators[d - 1][i]: c for i, c in col.items()}
            for d in cx.degrees for src, col in zip(cx.generators[d], cx.d_cols[d]) if col}
    action = None
    if cx.t_perm is not None:
        flip = -1 if sign_flip else 1
        action = {src: {cx.generators[d][i]: flip * s}
                  for d in cx.degrees for src, (i, s) in zip(cx.generators[d], cx.t_perm[d])}
    return GradedChainComplex(k=cx.k, generators=generators, differential=diff, action=action)
