"""Dense exact linear algebra over Q: the reference the sparse route is tested against.

Matrices are lists of rows of Fractions.  `DenseComplex` computes plain
homology from dense ranks, and invariant homology from the averaging
projector A = (1/k) sum T^i: the subcomplex spanned by a basis of im A, its
differential solved in that basis, and the rank of A on H_d as a second
route.  It shares no code with `equimorse.exactalg`.
"""
from __future__ import annotations

from fractions import Fraction


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(m):
    out = zeros(m, m)
    for i in range(m):
        out[i][i] = Fraction(1)
    return out


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise ValueError(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    cols = len(B[0]) if B else 0
    out = zeros(len(A), cols)
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a:
                Bk = B[k]
                oi = out[i]
                for j in range(cols):
                    if Bk[j]:
                        oi[j] += a * Bk[j]
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def is_zero(A):
    return all(a == 0 for row in A for a in row)


def rref(A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = [row[:] for row in A]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = R[r][c]
        R[r] = [v / inv for v in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A):
    return len(rref(A)[1])


def kernel_basis(A, ncols=None):
    """Basis vectors (as columns) of ker A; ncols needed when A has no rows."""
    if ncols is None:
        ncols = len(A[0]) if A else 0
    if not A:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    R, pivots = rref(A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def column_space_basis(A):
    """Columns of A forming a basis of the column space."""
    _, pivots = rref(A)
    return [[row[c] for row in A] for c in pivots]


def cols_to_mat(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]


def solve_columns(B, Y):
    """Solve B X = Y for X, with B of full column rank; exact."""
    nrows = len(B)
    p = len(B[0]) if B else 0
    q = len(Y[0]) if Y else 0
    aug = [B[i] + Y[i] for i in range(nrows)]
    R, pivots = rref(aug)
    if pivots[:p] != list(range(p)) or len(pivots) > p:
        raise ValueError("system is inconsistent or B is column-rank deficient")
    X = zeros(p, q)
    for i in range(p):
        for j in range(q):
            X[i][j] = R[i][p + j]
    return X


def _is_signed_permutation(T):
    m = len(T)
    for row in T:
        nz = [a for a in row if a != 0]
        if len(nz) != 1 or abs(nz[0]) != 1:
            return False
    for c in range(m):
        if sum(1 for i in range(m) if T[i][c] != 0) != 1:
            return False
    return True


class DenseComplex:
    """Chain complex over Q with dense boundary and action matrices per degree."""

    def __init__(self, k, generators, differential=None, action=None):
        self.k = int(k)
        self.generators = {int(d): list(names) for d, names in generators.items() if names}
        self.degrees = sorted(self.generators)
        pos = {name: (d, i) for d, names in self.generators.items()
               for i, name in enumerate(names)}
        self.d_mat = {d: zeros(self.dim(d - 1), self.dim(d)) for d in self.degrees}
        for src, targets in (differential or {}).items():
            d, j = pos[src]
            for dst, coeff in targets.items():
                e, i = pos[dst]
                assert e == d - 1
                self.d_mat[d][i][j] = Fraction(coeff)
        self.t_mat = None
        if action is not None:
            self.t_mat = {d: zeros(self.dim(d), self.dim(d)) for d in self.degrees}
            for src, targets in action.items():
                d, j = pos[src]
                for dst, coeff in targets.items():
                    e, i = pos[dst]
                    assert e == d
                    self.t_mat[d][i][j] = Fraction(coeff)
        self._validate()

    @classmethod
    def from_json(cls, doc):
        def entries(rows):
            out = {}
            for e in rows:
                out.setdefault(e["from"], {})[e["to"]] = Fraction(e["coeff"])
            return out

        action = entries(doc["action"]) if "action" in doc else None
        return cls(doc["k"], doc["generators"], entries(doc["differential"]), action)

    @classmethod
    def from_columns(cls, k, cols, act):
        """The complex of sparse columns cols[q] and (position, sign) action act[q]."""
        generators = {q: [(q, i) for i in range(len(cs))] for q, cs in cols.items()}
        differential = {(q, j): {(q - 1, r): v for r, v in col.items()}
                        for q, cs in cols.items() for j, col in enumerate(cs)}
        action = {(q, j): {(q, p): s} for q, perm in act.items() for j, (p, s) in enumerate(perm)}
        return cls(k, generators, differential, action)

    def dim(self, d):
        return len(self.generators.get(d, ()))

    def boundary(self, d):
        return self.d_mat.get(d, zeros(self.dim(d - 1), self.dim(d)))

    def _validate(self):
        for d in self.degrees:
            if self.dim(d - 1) > 0:
                if not is_zero(mat_mul(self.boundary(d - 1), self.boundary(d))):
                    raise ValueError(f"differential does not square to zero at degree {d}")
        if self.t_mat is None:
            return
        for d in self.degrees:
            T = self.t_mat[d]
            if not _is_signed_permutation(T):
                raise ValueError(f"action at degree {d} is not a signed permutation")
            P = identity(self.dim(d))
            for _ in range(self.k):
                P = mat_mul(T, P)
            if P != identity(self.dim(d)):
                raise ValueError(f"action does not have order dividing k={self.k}")
            if self.dim(d - 1):
                if mat_mul(self.t_mat[d - 1], self.boundary(d)) != mat_mul(self.boundary(d), T):
                    raise ValueError(f"action does not commute with the differential at {d}")

    def averaging(self, d):
        """A = (1/k) sum of T^i on degree d; idempotent projector onto invariants."""
        T = self.t_mat[d]
        m = self.dim(d)
        acc = zeros(m, m)
        P = identity(m)
        for _ in range(self.k):
            acc = mat_add(acc, P)
            P = mat_mul(T, P)
        return mat_scale(Fraction(1, self.k), acc)

    def homology_betti(self):
        out = {}
        for d in self.degrees:
            b = self.dim(d) - rank(self.boundary(d)) - rank(self.boundary(d + 1))
            if b:
                out[d] = b
        return out

    def _invariant_subcomplex(self):
        """Per-degree basis of im A and the differential in that basis."""
        basis = {d: column_space_basis(self.averaging(d)) for d in self.degrees}
        dmats = {}
        for d in self.degrees:
            img = mat_mul(self.boundary(d), cols_to_mat(basis[d], self.dim(d)))
            prev = basis.get(d - 1, [])
            if not prev:
                if not is_zero(img):
                    raise ValueError("averaged differential leaves the invariant subcomplex")
                dmats[d] = zeros(0, len(basis[d]))
            else:
                dmats[d] = solve_columns(cols_to_mat(prev, self.dim(d - 1)), img)
        return basis, dmats

    def invariant_homology_betti(self):
        """Betti numbers of the invariant subcomplex, checked against averaging on H_d."""
        basis, dmats = self._invariant_subcomplex()
        out = {}
        for d in self.degrees:
            b = len(basis[d]) - rank(dmats[d]) - rank(dmats.get(d + 1, zeros(0, 0)))
            # rank of averaging on H_d: dim(A Z_d + B_d) - dim B_d
            Z = cols_to_mat(kernel_basis(self.boundary(d), self.dim(d)), self.dim(d))
            AZ = mat_mul(self.averaging(d), Z)
            B = self.boundary(d + 1)
            b_check = rank([az + b for az, b in zip(AZ, B)]) - rank(B)
            if b != b_check:
                raise ValueError(f"invariant betti {b} != averaging rank {b_check} at {d}")
            if b:
                out[d] = b
        return out
