"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's own code paths: Pauli
matrices, tensor products, partial traces and singular values are all
built from scratch so that agreement with the package is meaningful.
"""

import math

import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = [SX, SY, SZ]


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def obs(v):
    return v[0] * SX + v[1] * SY + v[2] * SZ


def oracle_svetlichny_matrix(a, ap, b, bp, c, cp):
    """Literal eight-term operator from Cartesian direction vectors."""
    A, Ap, B, Bp, C, Cp = map(obs, (a, ap, b, bp, c, cp))
    return (kron3(A, B + Bp, C) + kron3(A, B - Bp, Cp)
            + kron3(Ap, B - Bp, C) - kron3(Ap, B + Bp, Cp))


def observable(v):
    """v . sigma for a BlochVector v: the traceless Hermitian 2x2 matrix
    with eigenvalues +-1, by one einsum of its Cartesian components."""
    return np.einsum("i,ijk->jk", v.cartesian, np.array(PAULI))


def svetlichny_operator(s):
    """Hermitian 8x8 Svetlichny operator of SvetlichnySettings s, from
    observable, with D = B + B' and D' = B - B' (the operator route that
    svetlichny_value's contraction is checked against)."""
    A, Ap = observable(s.a), observable(s.a_p)
    B, Bp = observable(s.b), observable(s.b_p)
    C, Cp = observable(s.c), observable(s.c_p)
    d = B + Bp
    dp = B - Bp
    return (np.kron(np.kron(A, d), C) + np.kron(np.kron(A, dp), Cp)
            + np.kron(np.kron(Ap, dp), C) - np.kron(np.kron(Ap, d), Cp))


def oracle_tensor(rho_entries):
    """All 27 triple-Pauli expectations via explicit traces."""
    m = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                m[i, j, k] = np.trace(
                    rho_entries @ kron3(PAULI[i], PAULI[j], PAULI[k])).real
    return m


def oracle_pair_matrix(rho_entries):
    t = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho_entries @ np.kron(PAULI[i], PAULI[j])).real
    return t


def oracle_flatten(m):
    """3x9 flattening with row j and column 3*i + k, by explicit loops."""
    out = np.zeros((3, 9))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[j, 3 * i + k] = m[i, j, k]
    return out


def oracle_reduce_pure(amps, n, keep):
    """Reduced density matrix of a pure state, A A^dagger, with A[r, c] the
    amplitude whose kept qubits read r and dropped qubits read c, placed
    by bit arithmetic on the basis labels."""
    keep = list(keep)
    drop = [q for q in range(n) if q not in keep]
    labels = np.arange(2**n)
    row = sum(((labels >> (n - 1 - q)) & 1) << (len(keep) - 1 - pos)
              for pos, q in enumerate(keep))
    col = sum(((labels >> (n - 1 - q)) & 1) << (len(drop) - 1 - pos)
              for pos, q in enumerate(drop))
    a = np.zeros((2**len(keep), 2**len(drop)), dtype=complex)
    a[row, col] = amps
    return a @ a.conj().T


def oracle_grid_search(m, dirs, chunk=32):
    """The grid oracle by the enumeration it had before its symmetry
    reduction: every unordered (b, b') pair of grid directions, every c
    and every c', with a and a' solved exactly as |u| + |w|."""
    n = len(dirs)
    iu, ju = np.triu_indices(n)
    dp = dirs[iu] + dirs[ju]
    dm = dirs[iu] - dirs[ju]
    best = 0.0
    for start in range(0, dp.shape[0], chunk):
        sl = slice(start, start + chunk)
        k_plus = np.einsum("ijk,pj->pik", m, dp[sl])
        k_minus = np.einsum("ijk,pj->pik", m, dm[sl])
        a1 = dirs @ k_plus.transpose(0, 2, 1)
        a2 = dirs @ k_minus.transpose(0, 2, 1)
        n1 = np.einsum("pqi,pqi->pq", a1, a1)
        n2 = np.einsum("pqi,pqi->pq", a2, a2)
        cross = a1 @ a2.transpose(0, 2, 1)
        u_sq = n1[:, :, None] + 2.0 * cross + n2[:, None, :]
        w_sq = n2[:, :, None] - 2.0 * np.swapaxes(cross, 1, 2) + n1[:, None, :]
        value = np.sqrt(np.maximum(u_sq, 0.0)) + np.sqrt(np.maximum(w_sq, 0.0))
        best = max(best, float(value.max()))
    return best


def oracle_projected_gradient_max(u, v, iters=4000, lr=0.5):
    """Numerical maximization of u.x + v.y on the unit sphere in R^8."""
    coef = np.concatenate([u, v])
    z = np.ones(8) / math.sqrt(8.0)
    for _ in range(iters):
        z = z + lr * coef
        z /= np.linalg.norm(z)
    return float(coef @ z)


def random_pure(n, rng):
    a = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return a / np.linalg.norm(a)


def random_density_entries(n, rng):
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def drop_memos(monkeypatch):
    """Read and keep no matrix memo (svl.qstate._derived), until
    monkeypatch undoes it: every call builds its tensor and its closed
    form afresh."""
    for module in ("svl.correlations", "svl.svetlichny"):
        monkeypatch.setattr(f"{module}._derived", lambda rho, key, build: build())


@pytest.fixture
def closed_form_runs(monkeypatch):
    """The tensors maximize_svetlichny's closed form is built for, and the
    flattenings whose largest singular value is taken, in call order."""
    import svl.correlations as correlations
    import svl.svetlichny as svetlichny

    exact, singular = [], []
    directions = svetlichny._exact_directions
    largest = correlations.largest_singular_value
    monkeypatch.setattr(svetlichny, "_exact_directions",
                        lambda tensor: exact.append(tensor) or directions(tensor))
    monkeypatch.setattr(correlations, "largest_singular_value",
                        lambda mat: singular.append(mat) or largest(mat))
    return exact, singular
