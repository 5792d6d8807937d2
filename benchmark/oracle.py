"""Independent oracle for the benchmark's output checks.

Nothing here imports `burau`.  The Burau matrix is rebuilt numerically as a
product of 2x2 generator blocks, spectral radii come from float `eigvals`
(to locate maxima) and from `mpmath` at high precision (to judge a reported
value), and the free-group side is a separate Artin-action iteration.

Conventions, matching the package's documented ones: letters act left to
right, B(uv) = B(u) B(v), and the generator s_k acts on rows/columns k, k+1
(1-based) by the block [[1 - t, t], [1, 0]]; s_k^-1 by its inverse
[[0, 1], [1/t, 1 - 1/t]].
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

MP_DPS = 40

GOLDEN = (3 + math.sqrt(5)) / 2


def generator_block(letter: int, t):
    """The 2x2 block of s_k (letter k > 0) or s_k^-1 (letter -k)."""
    if letter > 0:
        return ((1 - t, t), (1, 0))
    return ((0, 1), (1 / t, 1 - 1 / t))


def burau_at(n: int, letters, t, one=1.0 + 0j) -> list:
    """Full Burau matrix B(t) as a list of rows, for scalar t of any numeric
    type (complex, mpmath.mpc).  Right-multiplies by each generator block;
    only columns k-1, k change."""
    b = [[one if i == j else 0 * one for j in range(n)] for i in range(n)]
    for v in letters:
        k = abs(v)
        (g00, g01), (g10, g11) = generator_block(v, t)
        for row in b:
            left, right = row[k - 1], row[k]
            row[k - 1] = left * g00 + right * g10
            row[k] = left * g01 + right * g11
    return b


def burau_grid(n: int, letters, ts: np.ndarray) -> np.ndarray:
    """B(t) for every t of a 1-D array, as a (len(ts), n, n) stack."""
    ts = np.asarray(ts, dtype=complex)
    b = np.broadcast_to(np.eye(n, dtype=complex), (len(ts), n, n)).copy()
    for v in letters:
        k = abs(v)
        (g00, g01), (g10, g11) = generator_block(v, ts[:, None])
        left = b[:, :, k - 1].copy()
        right = b[:, :, k].copy()
        b[:, :, k - 1] = left * g00 + right * g10
        b[:, :, k] = left * g01 + right * g11
    return b


def reduce_matrix(b: np.ndarray) -> np.ndarray:
    """Reduced Burau matrix P B Q in the basis u_i = e_i - e_{i+1} of the
    zero-sum row space: row i is (row_i - row_{i+1}) of B, expressed by its
    prefix sums.  Works on a single matrix or a stack."""
    b = np.asarray(b)
    n = b.shape[-1]
    p = np.zeros((n - 1, n))
    q = np.zeros((n, n - 1))
    for i in range(n - 1):
        p[i, i], p[i, i + 1] = 1, -1
        q[: i + 1, i] = 1
    return p @ b @ q


def unit(theta: float) -> complex:
    return complex(math.cos(theta), math.sin(theta))


def grid_thetas(grid: int) -> np.ndarray:
    return np.array([2 * math.pi * k / grid for k in range(grid)])


def float_radii(n: int, letters, thetas) -> np.ndarray:
    """Float spectral radius of the full B(t) at each angle (batched eigvals)."""
    ts = np.array([unit(th) for th in thetas])
    return np.abs(np.linalg.eigvals(burau_grid(n, letters, ts))).max(axis=1)


def _mp_radius(n: int, letters, make_t) -> float:
    """`make_t` builds the mpmath point once the working precision is set."""
    with mpmath.workdps(MP_DPS):
        b = burau_at(n, letters, make_t(), one=mpmath.mpc(1))
        eigs = mpmath.eig(mpmath.matrix(b), left=False, right=False)
        return float(max(abs(e) for e in eigs))


def mp_radius(n: int, letters, theta) -> float:
    """Spectral radius of the full B(exp(i theta)) in `MP_DPS`-digit
    arithmetic, rounded to a float.  High precision matters on degenerate
    spectra, where float eigvals smear a multiple unit eigenvalue (the B6
    full twist reads 1 + 4.6e-8 in float)."""
    return _mp_radius(n, letters, lambda: mpmath.expj(mpmath.mpf(theta)))


def mp_radius_at(n: int, letters, t: complex) -> float:
    """As `mp_radius`, at an arbitrary nonzero complex t."""
    return _mp_radius(n, letters, lambda: mpmath.mpc(t.real, t.imag))


def grid_argmax(n: int, letters, grid: int):
    """(theta, float radius) of the largest float radius on the uniform grid."""
    thetas = grid_thetas(grid)
    radii = float_radii(n, letters, thetas)
    k = int(np.argmax(radii))
    return float(thetas[k]), float(radii[k])


def refined_sup(n: int, letters, grid: int, iterations: int = 60) -> float:
    """High-precision maximum of the radius near the float grid argmax, by
    golden-section search on `mp_radius`.  Every evaluated value is a lower
    bound on the true supremum; the search brings it within rounding of it
    at a smooth or corner maximum."""
    theta0, _ = grid_argmax(n, letters, grid)
    step = 2 * math.pi / grid
    a, b = theta0 - step, theta0 + step
    inv_phi = (math.sqrt(5) - 1) / 2
    c, d = b - (b - a) * inv_phi, a + (b - a) * inv_phi
    fc, fd = mp_radius(n, letters, c), mp_radius(n, letters, d)
    best = max(fc, fd, mp_radius(n, letters, theta0))
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv_phi
            fc = mp_radius(n, letters, c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv_phi
            fd = mp_radius(n, letters, d)
        best = max(best, fc, fd)
    return best


def largest_real_root(coeffs_desc) -> float:
    """Largest real root of an integer polynomial, coefficients descending."""
    with mpmath.workdps(MP_DPS):
        rts = mpmath.polyroots(coeffs_desc, maxsteps=200, extraprec=200)
        return float(max(mpmath.re(r) for r in rts if abs(mpmath.im(r)) < 1e-20))


# Closed forms for the paper's worked examples.
EX1_SUP = GOLDEN                                      # B3 '1 -2', equality
EX2_DILATATION = largest_real_root([1, -2, 0, -2, 1])  # B4 '1 -2 -3', strict gap
EX3_SUP = largest_real_root([1, -1, -1, -1, 1])        # B5 '4 3 2 1 4 3', equality


def permutation_from_matrix(n: int, letters) -> list:
    """Strand images read off B(1), which is a permutation matrix:
    entry (i, j) is 1 exactly when strand i+1 goes to j+1."""
    b = burau_at(n, letters, 1.0 + 0j)
    perm = []
    for i in range(n):
        cols = [j for j in range(n) if abs(b[i][j] - 1) < 1e-12]
        perm.append(cols[0] + 1 if len(cols) == 1 else 0)
    return perm


# -- free group ------------------------------------------------------------

def artin_images(n: int, letters) -> list:
    """Images of x_1..x_n under the braid's Artin action, reduced, with each
    letter's action substituted into the current images (letters act first
    to last).  s_k: x_k -> x_k x_{k+1} x_k^-1, x_{k+1} -> x_k;
    s_k^-1: x_k -> x_{k+1}, x_{k+1} -> x_{k+1}^-1 x_k x_{k+1}."""
    images = [[i] for i in range(1, n + 1)]
    for v in letters:
        gen = [[i] for i in range(1, n + 1)]
        k = abs(v)
        if v > 0:
            gen[k - 1], gen[k] = [k, k + 1, -k], [k]
        else:
            gen[k - 1], gen[k] = [k + 1], [-(k + 1), k, k + 1]
        images = [substitute(gen, img)[0] for img in images]
    return images


def substitute(images, word):
    """Replace each letter of `word` by its image (inverted for negative
    letters) and freely reduce.  Returns (reduced letters, cancelled)."""
    out: list = []
    raw = 0
    for v in word:
        img = images[abs(v) - 1]
        seq = img if v > 0 else [-u for u in reversed(img)]
        raw += len(seq)
        for u in seq:
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return out, len(out) != raw


def occurrence(n: int, images) -> list:
    rows = []
    for img in images:
        row = [0] * n
        for v in img:
            row[abs(v) - 1] += 1
        rows.append(row)
    return rows


def growth_sequence(n: int, letters, p_max: int, budget: int) -> dict:
    """Norms (longest image, i.e. the occurrence matrix's max row sum) of
    the powers 1..p_max, the per-step cancellation flags, whether the letter
    budget stopped the sequence, and the occurrence matrices of the first
    and second powers.  The budget rule is the documented one: stop before
    power p when (total letters of power p-1) * (longest base image)
    exceeds the budget."""
    base = artin_images(n, letters)
    longest = max((len(img) for img in base), default=1)
    current = base
    norms = [max(len(img) for img in base)]
    flags = [False]
    square = None
    exceeded = False
    for p in range(2, p_max + 1):
        if sum(len(img) for img in current) * max(1, longest) > budget:
            exceeded = True
            break
        step = [substitute(base, img) for img in current]
        current = [s[0] for s in step]
        flags.append(any(s[1] for s in step))
        norms.append(max(len(img) for img in current))
        if p == 2:
            square = occurrence(n, current)
    return {"norms": norms, "flags": flags, "budget_exceeded": exceeded,
            "base": occurrence(n, base), "square": square}


# -- exact polynomial outputs ----------------------------------------------

def eval_laurent(obj: dict, t: complex) -> complex:
    """Evaluate the program's Laurent JSON {"exp": "coeff", ...} at t; the
    coefficients must be integer strings."""
    acc = 0j
    for exp, coeff in obj.items():
        if not isinstance(coeff, str):
            raise ValueError(f"coefficient {coeff!r} is not an integer string")
        acc += int(coeff) * t ** int(exp)
    return acc


def laurent_scale(obj: dict) -> float:
    return sum(abs(int(c)) for c in obj.values())


def eval_bivariate(obj: dict, x: complex, t: complex):
    """Value and magnitude scale of the program's bivariate JSON
    {"variable": v, "coefficients": [c_0, c_1, ...]} = sum c_k(t) x^k."""
    value = 0j
    scale = 0.0
    for k, c in enumerate(obj["coefficients"]):
        value += eval_laurent(c, t) * x ** k
        scale += laurent_scale(c) * abs(x) ** k
    return value, scale


def random_unit_points(rng, count: int) -> list:
    return [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(count)]
