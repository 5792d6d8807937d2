"""Complex specializations of Laurent matrices and of their characteristic
polynomials, polynomial roots as companion-matrix eigenvalues, spectral
radii, unit-circle sweeps, and the resultant certificate for unit-circle
roots.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .braid import BraidWord
from .foxburau import BurauMatrix, burau_matrix, reduce_full
from .laurent import BivariatePoly, LaurentMatrix, charpoly

MAX_COMPLEX_DIM = 64
LEADING_EPS = 1e-12

# A root modulus within COMPARISON_TOL of 1 is a unit root; a resultant
# below CERTIFICATE_TOL fires the unit-root screen; a fired screen makes the
# certificate inconclusive while the closest root modulus is within
# REFUTE_MARGIN of 1; golden-section refinement stops at intervals of
# REFINE_INTERVAL radians.
COMPARISON_TOL = 1e-9
CERTIFICATE_TOL = 1e-8
REFUTE_MARGIN = 1e-6
REFINE_INTERVAL = 1e-10

_CLUSTER_RADIUS = 6e-2
_CLUSTER_GATE = 1e-10

# Grid points per block of the batched sweep and strict-gap screen, so that
# their matrix, Sylvester and eigenvalue stacks stay small whatever the grid.
_BLOCK = 256

# Largest unit-circle grid, refused before any grid work.  A sweep of L(24)
# at grid 2^14 takes 2.9-3.7 s (shared 2-CPU Xeon), so 12-15 s at the cap.
MAX_GRID = 1 << 16


def _check_grid(grid: int) -> None:
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if grid > MAX_GRID:
        raise ValueError(f"grid limited to {MAX_GRID} points, got {grid}")


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense complex polynomial, coefficients ascending; the leading
    coefficient is kept above a fixed magnitude floor."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("ComplexPolynomial needs at least a constant term")
        if len(self.coeffs) > 1 and abs(self.coeffs[-1]) <= LEADING_EPS:
            raise ValueError("leading coefficient below tolerance")

    @staticmethod
    def make(coeffs) -> "ComplexPolynomial":
        items = [complex(c) for c in coeffs]
        while len(items) > 1 and abs(items[-1]) <= LEADING_EPS:
            items.pop()
        if not items:
            items = [0j]
        return ComplexPolynomial(tuple(items))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, z: complex) -> complex:
        return reduce(lambda acc, c: acc * z + c, reversed(self.coeffs), 0)


def specialize(m: LaurentMatrix, t: complex) -> np.ndarray:
    """Entrywise evaluation at a nonzero complex number."""
    return _evaluate(*_coefficient_array(m), [t])[0]


def _coefficient_array(m: LaurentMatrix | BivariatePoly):
    """Dense coefficient array of a Laurent matrix, (d, d, K), or of the
    Laurent coefficients of a polynomial in X, (degree + 1, K), and the
    exponent of its first slice: m(t) = sum_k coeffs[..., k] * t^(low + k)."""
    if isinstance(m, BivariatePoly):
        shape, entries = (len(m.coeffs),), m.coeffs
    else:
        shape, entries = (m.dim, m.dim), [e for row in m.rows for e in row]
    exps = [e for entry in entries for e, _ in entry.terms]
    low = min(exps, default=0)
    coeffs = np.zeros((len(entries), max(exps, default=0) - low + 1), dtype=complex)
    for i, entry in enumerate(entries):
        for e, c in entry.terms:
            coeffs[i, e - low] = c
    return coeffs.reshape(*shape, coeffs.shape[1]), low


def _evaluate(coeffs: np.ndarray, low: int, ts) -> np.ndarray:
    """The stack of m(t), one slice per nonzero t in ts, for the coefficient
    array of m."""
    ts = np.asarray(ts, dtype=complex)
    if np.any(ts == 0):
        raise ValueError("cannot specialize at t = 0")
    powers = ts[:, None] ** np.arange(low, low + coeffs.shape[-1])
    stack = np.einsum("...k,pk->p...", coeffs, powers)
    if not np.all(np.isfinite(stack.view(float))):
        raise ValueError("specialization produced non-finite entries")
    return stack


def _moduli(stack: np.ndarray) -> np.ndarray:
    """Eigenvalue moduli of every matrix in the stack, by batched eigenvalues;
    a row of NaN where the eigenvalue iteration fails."""
    try:
        return np.abs(np.linalg.eigvals(stack))
    except np.linalg.LinAlgError:
        out = np.full(stack.shape[:-1], np.nan)
        for p, a in enumerate(stack):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[p] = np.abs(np.linalg.eigvals(a))
        return out


def _block_radii(coeffs: np.ndarray, low: int, ts: np.ndarray) -> np.ndarray:
    """Spectral radii of m(t) at the points ts, by batched eigenvalues in
    blocks of ``_BLOCK`` points; NaN where the eigenvalue iteration fails."""
    radii = np.empty(len(ts))
    for start in range(0, len(ts), _BLOCK):
        block = slice(start, start + _BLOCK)
        radii[block] = _moduli(_evaluate(coeffs, low, ts[block])).max(-1)
    return radii


def _mirror(values: np.ndarray, grid: int) -> np.ndarray:
    """Values at k = 0 .. count - 1 of the grid 2 pi k / grid, extended to
    the whole grid by value(-theta) = value(theta)."""
    return np.concatenate([values, values[1:grid - len(values) + 1][::-1]])


def specialize_bivariate(p: BivariatePoly, t: complex) -> ComplexPolynomial:
    """Evaluate every Laurent coefficient at t."""
    if t == 0:
        raise ValueError("cannot specialize at t = 0")
    if p.is_zero:
        return ComplexPolynomial.make([0j])
    return ComplexPolynomial.make(p.coefficients_at(t))


def roots(p: ComplexPolynomial) -> list:
    """All complex roots with multiplicity: the eigenvalues of the companion
    matrix (``np.roots``), zero roots split off exactly.  Clusters that
    agree with a multiple root are replaced by their centroid, which
    restores full accuracy at degenerate points.  Raises
    ``np.linalg.LinAlgError`` when the eigenvalue iteration fails.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    coeffs = list(p.coeffs)
    zero_roots = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
        zero_roots += 1
    if len(coeffs) == 1:
        return [0j] * zero_roots
    monic = [c / coeffs[-1] for c in coeffs]
    zs = _merge_root_clusters(np.roots(monic[::-1]).tolist(), monic)
    found = [0j] * zero_roots + zs
    found.sort(key=lambda z: (z.real, z.imag))
    return found


def _merge_root_clusters(zs, monic):
    """Replace groups of nearby roots by their centroid when the centroid
    is itself a numerical root of the group's multiplicity m: every Taylor
    coefficient p^(j)(c)/j!, j < m, is small against the same sum taken over
    absolute values.  A group that fails loses its member farthest from the
    centroid and is tried again, so a simple root beside a multiple one
    stays apart; genuinely distinct close roots stay untouched."""
    n = len(zs)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            tol = _CLUSTER_RADIUS * (1 + min(abs(zs[i]), abs(zs[j])))
            if abs(zs[i] - zs[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = list(zs)
    pairs = [(c, abs(c)) for c in reversed(monic)]
    for members in groups.values():
        while len(members) > 1:
            centroid = sum(zs[i] for i in members) / len(members)
            if _taylor_small(pairs, centroid, len(members)):
                for i in members:
                    out[i] = centroid
                break
            members.remove(max(members, key=lambda i: abs(zs[i] - centroid)))
    return out


def _taylor_small(pairs, z, count: int) -> bool:
    """Whether each Taylor coefficient p^(j)(z)/j!, j < count, of p is at
    most ``_CLUSTER_GATE`` times the same coefficient of |p| at |z|, for the
    descending coefficient pairs (c, |c|) of p and |p|: one synthetic
    division by X - z per j carries both."""
    r = abs(z)
    for _ in range(count):
        acc = scale = 0
        quotient = []
        for c, a in pairs:
            acc, scale = acc * z + c, scale * r + a
            quotient.append((acc, scale))
        if not abs(acc) <= _CLUSTER_GATE * max(scale, 1e-300):
            return False
        pairs = quotient[:-1]
    return True


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a dense complex matrix, with each
    cluster of eigenvalues that agrees with a multiple root of the monic
    characteristic polynomial (``np.poly`` of the eigenvalues) replaced by
    its centroid, as ``roots`` does."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > MAX_COMPLEX_DIM:
        raise ValueError(f"dimension {n} exceeds limit {MAX_COMPLEX_DIM}")
    if n == 0:
        return 0.0
    eigs = np.linalg.eigvals(m)
    monic = np.poly(eigs)[::-1].tolist()
    return max(abs(z) for z in _merge_root_clusters(eigs.tolist(), monic))


@dataclass(frozen=True)
class SweepResult:
    """Spectral radii over a uniform unit-circle grid plus a refined maximum."""

    grid: int
    samples: tuple
    theta_star: float
    t_star: complex
    radius_star: float
    refinement_iterations: int
    skipped: tuple


def sweep_unit_circle(m: LaurentMatrix, grid: int = 1024,
                      refine: bool = True, *,
                      half_radii: np.ndarray | None = None) -> SweepResult:
    """Maximum spectral radius of m(t) over the unit circle.

    Specializes m on the grid t = exp(2 pi i k / grid) in blocks of
    ``_BLOCK`` points and takes every radius from batched eigenvalues.  The
    matrix has integer coefficients, so m(conj t) = conj m(t) and its radius
    is symmetric under theta -> -theta: only k = 0 .. grid/2 are evaluated,
    the rest are mirrored, and reported maxima lie in [0, pi].
    Golden-section refinement runs around each strict local maximum whose
    grid value lies within ``margin`` of the grid maximum, where ``margin``
    is the largest difference between neighbouring grid values; the searches
    advance in lockstep, one batched evaluation per step.  Points where the
    eigenvalue iteration fails are skipped, not fatal.  The grid runs from 8
    to ``MAX_GRID`` points.
    ``half_radii``, when given, are the radii at k = 0 .. grid/2, NaN where
    the eigenvalue iteration failed, for a caller that has them already;
    the sweep then takes no eigenvalues on the grid.
    """
    _check_grid(grid)
    coeffs, low = _coefficient_array(m)
    count = grid // 2 + 1
    thetas = 2 * math.pi * np.arange(grid) / grid
    if half_radii is None:
        half_radii = _block_radii(coeffs, low, np.exp(1j * thetas[:count]))
    elif len(half_radii) != count:
        raise ValueError(f"half_radii needs {count} values for grid {grid}")
    values = _mirror(np.asarray(half_radii, dtype=float), grid)

    def radii_at(points: list) -> list:
        stack = _evaluate(coeffs, low, [cmath.exp(1j * theta) for theta in points])
        return [-math.inf if math.isnan(value) else value
                for value in _moduli(stack).max(-1).tolist()]

    finite = ~np.isnan(values)
    samples = tuple((theta, value) for theta, value, ok in
                    zip(thetas.tolist(), values.tolist(), finite) if ok)
    skipped = tuple((int(k), "eigenvalue iteration did not converge")
                    for k in np.flatnonzero(~finite))
    best_theta, best_value = 0.0, 0.0
    if samples:
        k = int(np.nanargmax(values))
        best_theta, best_value = float(thetas[k]), float(values[k])

    iterations = 0
    if refine and samples:
        v = np.where(finite, values, -np.inf)
        left, right = np.roll(v, 1), np.roll(v, -1)
        steps = np.abs(values - np.roll(values, -1))
        margin = steps[~np.isnan(steps)].max(initial=0.0)
        peaks = ((v >= left) & (v >= right) & ((v > left) | (v > right))
                 & (v >= best_value - margin))
        step = 2 * math.pi / grid
        searches = [_golden_section_max(center - step, center + step,
                                        REFINE_INTERVAL)
                    for center in thetas[:count][peaks[:count]].tolist()]
        for theta, value, its in _lockstep(radii_at, searches):
            iterations += its
            theta %= 2 * math.pi
            if theta > math.pi:
                theta = 2 * math.pi - theta
            if value > best_value or (value == best_value and theta < best_theta):
                best_theta, best_value = theta, value

    return SweepResult(
        grid=grid,
        samples=samples,
        theta_star=best_theta,
        t_star=cmath.exp(1j * best_theta),
        radius_star=best_value,
        refinement_iterations=iterations,
        skipped=skipped,
    )


_INV_PHI = (math.sqrt(5.0) - 1) / 2


def _golden_section_max(a: float, b: float, interval_tol: float):
    """Golden-section search for a maximum in [a, b], as a generator: it
    yields each point it needs, is sent the function value there, and
    returns (theta, value, iterations)."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc = yield c
    fd = yield d
    iterations = 0
    while b - a > interval_tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = yield d
    theta = (a + b) / 2
    return theta, max((yield theta), fc, fd), iterations


def _lockstep(f, searches: list) -> list:
    """Runs generator searches side by side.  Each step evaluates the points
    that the unfinished searches ask for with one call of f on their list
    and sends each search its value.  Returns the searches' results."""
    results = [None] * len(searches)
    asks = {k: next(search) for k, search in enumerate(searches)}
    while asks:
        for k, value in zip(list(asks), f(list(asks.values()))):
            try:
                asks[k] = searches[k].send(value)
            except StopIteration as done:
                results[k] = done.value
                del asks[k]
    return results


# The spot points t = exp(2 pi i / k), by k.
_SPOT_POINTS = (
    ("t=-1", 2, -1.0 + 0j),
    ("t=exp(2*pi*i/3)", 3, cmath.exp(2j * math.pi / 3)),
    ("t=exp(2*pi*i/4)", 4, 1j),
    ("t=exp(2*pi*i/5)", 5, cmath.exp(2j * math.pi / 5)),
    ("t=exp(2*pi*i/6)", 6, cmath.exp(1j * math.pi / 3)),
)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy lower bound ln(max(1, R*)) with the sweep behind it."""

    strands: int
    sweep: SweepResult
    bound: float
    spot_values: tuple


def entropy_lower_bound(w: BraidWord, grid: int = 1024,
                        refine: bool = True) -> EntropyReport:
    """Lower bound for the topological entropy of any homeomorphism inducing
    the braid: ln of the unit-circle supremum of the Burau spectral radius.
    Spot points exp(2 pi i / k), k > n, lie inside Squier's arc: radius 1."""
    full = burau_matrix(w)
    sweep = burau_radius_sweep(reduce_full(full).matrix, grid, refine)
    spots = tuple((label, 1.0 if k > w.strands
                   else spectral_radius(specialize(full.matrix, t)))
                  for label, k, t in _SPOT_POINTS)
    bound = math.log(sweep.radius_star)
    return EntropyReport(strands=w.strands, sweep=sweep, bound=bound,
                         spot_values=spots)


def _outside_arc(reduced: LaurentMatrix, grid: int):
    """The half grid t = exp(2 pi i k / grid), k = 0 .. grid/2, and the mask
    of its points outside Squier's arc |theta| < 2 pi / n, n = dim + 1, by
    the integer test n k >= grid.  On the arc the reduced Burau matrix is
    unitary for Squier's positive definite Hermitian form, so every
    eigenvalue has modulus 1 (Squier, Proc. AMS 1984; McMullen, Math. Ann.
    2013)."""
    k = np.arange(grid // 2 + 1)
    return np.exp(1j * (2 * math.pi * k / grid)), (reduced.dim + 1) * k >= grid


def burau_radius_sweep(reduced: LaurentMatrix, grid: int = 1024,
                       refine: bool = True) -> SweepResult:
    """Unit-circle sweep of a braid's Burau spectral radius, run on its
    reduced matrix: det(X I - B) = (X - 1) det(X I - B_reduced), so the full
    radius is max(1, reduced radius) at every t.  The samples stay reduced
    radii; ``radius_star`` is the full radius.

    Grid points inside Squier's arc (``_outside_arc``) read exactly 1 with
    no eigenvalues taken; ``sweep_unit_circle`` gets the radii as
    ``half_radii``.

    On |t| = 1 the reduced spectrum is closed under lam -> 1/conj(lam), so
    when every eigenvalue at the maximum has the same float modulus the
    spectrum lies on the unit circle and the radius is exactly 1.  This drops
    the rounding of |t^n| that the t^n I of a full twist carries into every
    eigenvalue.  It can lower the float maximum only by rounding, so it suits
    a lower bound, not a gap check.
    """
    _check_grid(grid)
    ts, outside = _outside_arc(reduced, grid)
    radii = np.ones(len(ts))
    radii[outside] = _block_radii(*_coefficient_array(reduced), ts[outside])
    sweep = sweep_unit_circle(reduced, grid, refine, half_radii=radii)
    moduli = np.abs(np.linalg.eigvals(specialize(reduced, sweep.t_star)))
    if moduli.max() == moduli.min():
        return replace(sweep, radius_star=1.0)
    return replace(sweep, radius_star=max(1.0, sweep.radius_star))


def reciprocal_conjugate(p: ComplexPolynomial) -> ComplexPolynomial:
    """Coefficients reversed and conjugated."""
    if p.degree < 1:
        raise ValueError("reciprocal conjugate needs degree >= 1")
    return ComplexPolynomial.make(tuple(c.conjugate() for c in reversed(p.coeffs)))


def resultant(p: ComplexPolynomial, q: ComplexPolynomial) -> complex:
    """Determinant of the Sylvester matrix of p and q."""
    if p.degree < 1 or q.degree < 1:
        raise ValueError("resultant needs two polynomials of degree >= 1 "
                         "with nondegenerate leading coefficients")
    return complex(np.linalg.det(_sylvester(np.array(p.coeffs[::-1]),
                                            np.array(q.coeffs[::-1]))))


def _sylvester(p_desc: np.ndarray, q_desc: np.ndarray) -> np.ndarray:
    """Sylvester matrices of stacks of descending coefficient rows."""
    m, n = p_desc.shape[-1] - 1, q_desc.shape[-1] - 1
    s = np.zeros(p_desc.shape[:-1] + (m + n, m + n), dtype=complex)
    for r in range(n):
        s[..., r, r:r + m + 1] = p_desc
    for r in range(m):
        s[..., n + r, r:r + n + 1] = q_desc
    return s


def _abs_from_log(log_abs):
    """exp of log |values|: math.inf, with no warning, past float range."""
    with np.errstate(over="ignore"):
        return np.exp(log_abs)


@dataclass(frozen=True)
class UnitRootCertificate:
    """Outcome of the unit-circle root test for one polynomial.

    ``fired`` is the necessary condition: the resultant of p with its
    reciprocal conjugate is below ``CERTIFICATE_TOL``.  Its modulus is read
    as exp(log |det|) from ``slogdet`` of the Sylvester matrix, so it is
    ``math.inf`` past float range, never NaN.  ``min_unit_distance`` is the
    direct check min | |root| - 1 |.
    """

    resultant_abs: float | None
    fired: bool
    min_unit_distance: float
    verdict: str


def unit_circle_root_certificate(p: ComplexPolynomial) -> UnitRootCertificate:
    """Necessary-condition screen plus direct root-modulus check.

    Verdicts: "has unit root" when the direct check finds one, "no unit root"
    when the screen does not fire or the direct check clearly refutes it, and
    "inconclusive" when the screen fires and the closest root modulus sits in
    the numerical gray zone between the two.  A vanishing resultant alone is
    never conclusive: any root multiset closed under z -> 1/conj(z), such as
    a real palindromic polynomial, fires the screen with no root on the
    circle.
    """
    if p.degree < 1:
        raise ValueError("certificate needs degree >= 1")
    q = reciprocal_conjugate(p)
    if q.degree >= 1:
        log_res = np.linalg.slogdet(_sylvester(np.array(p.coeffs[::-1]),
                                               np.array(q.coeffs[::-1])))[1]
        res_abs = float(_abs_from_log(log_res))
        fired = bool(log_res < math.log(CERTIFICATE_TOL))
    else:
        res_abs = None
        fired = False
    min_distance = min(abs(abs(r) - 1) for r in roots(p))
    if min_distance <= COMPARISON_TOL:
        verdict = "has unit root"
    elif fired and min_distance <= REFUTE_MARGIN:
        verdict = "inconclusive"
    else:
        verdict = "no unit root"
    return UnitRootCertificate(resultant_abs=res_abs, fired=fired,
                               min_unit_distance=min_distance, verdict=verdict)


@dataclass(frozen=True)
class GapReport:
    """Grid evidence that a growth rate stays strictly above the unit-circle
    spectral-radius supremum."""

    lam: float
    grid: int
    sweep: SweepResult
    min_resultant_abs: float | None
    min_resultant_theta: float
    fired_points: tuple
    unit_root_points: tuple
    inconclusive_points: tuple
    skipped: tuple
    gap_holds: bool


def strict_gap_check(full: BurauMatrix, lam: float, grid: int = 4096,
                     refine: bool = True, *,
                     reduced_charpoly: BivariatePoly | None = None) -> GapReport:
    """Check lam > sup of the Burau spectral radius over the unit circle,
    for a braid given by its full Burau matrix.

    Grid points inside Squier's arc (``_outside_arc``) have radius 1 < lam:
    they are neither screened nor skipped.  At each other grid point t the
    reduced characteristic polynomial is specialized at t, rescaled by
    substituting lam*X for X, and screened for unit-circle roots (a root
    there would witness an eigenvalue of modulus lam).  The screen is one
    batched pass over those points of k = 0 .. grid/2, in blocks of
    ``_BLOCK`` points, mirrored to the rest of the grid: |Res(p, p*)|
    as exp(log |det|) from ``slogdet`` of a stack of Sylvester matrices, so
    that it never overflows to NaN, and the root-modulus distance
    min | |mu|/lam - 1 | from the eigenvalues mu of the reduced matrix.
    Those eigenvalues are the only ones taken on the grid: the sweep gets
    its grid radii max |mu| from the screen.
    Gray-band points (the resultant fires, the distance is within the
    certificate's ``REFUTE_MARGIN``, or p* drops degree) are decided by the
    per-point ``unit_circle_root_certificate`` instead, whose roots merge
    the clusters that float eigenvalues make of a multiple root; every
    other point has no unit root.  A point where an eigenvalue iteration
    fails is skipped.

    Also reports the sweep maximum of the full radius, max(1, reduced
    radius), against lam; the float maximum stands as it is, since a radius
    read low could accept a gap that does not hold.
    ``min_resultant_abs`` is the minimum over the screened points, None
    when none has a resultant, and ``math.inf`` when the smallest |Res|
    lies past float range.  A gap holds only on complete evidence: no grid
    point skipped, by the screen or by the sweep, no unit root, and the
    sweep maximum below lam.
    ``reduced_charpoly``, when given, is the charpoly of the reduced matrix,
    for a caller that has it already.
    """
    _check_grid(grid)
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    reduced = reduce_full(full).matrix
    bi = charpoly(reduced) if reduced_charpoly is None else reduced_charpoly
    ts, outside = _outside_arc(reduced, grid)
    log_res, distance, radii = (np.full(len(ts), v) for v in (np.nan, np.inf, 1.0))
    log_res[outside], distance[outside], radii[outside] = _unit_root_screen(
        reduced, bi, lam, ts[outside])
    sweep = sweep_unit_circle(reduced, grid, refine, half_radii=radii)
    sweep = replace(sweep, radius_star=max(1.0, sweep.radius_star))

    log_res, distance = _mirror(log_res, grid), _mirror(distance, grid)
    res = _abs_from_log(log_res)
    failed = _mirror(outside, grid) & (np.isnan(log_res) | np.isnan(distance))
    gray = ~failed & ((log_res < math.log(CERTIFICATE_TOL))
                      | (distance <= REFUTE_MARGIN))
    res[failed] = np.nan
    skipped = [(k, "eigenvalue iteration did not converge")
               for k in np.flatnonzero(failed).tolist()]
    fired = []
    unit_root = []
    inconclusive = []
    for k in np.flatnonzero(gray).tolist():
        theta = 2 * math.pi * k / grid
        poly = specialize_bivariate(bi, cmath.exp(1j * theta))
        scaled = ComplexPolynomial.make(
            tuple(c * lam ** idx for idx, c in enumerate(poly.coeffs)))
        try:
            cert = unit_circle_root_certificate(scaled)
        except np.linalg.LinAlgError as exc:
            skipped.append((k, str(exc)))
            res[k] = np.nan
            continue
        res[k] = np.nan if cert.resultant_abs is None else cert.resultant_abs
        if cert.fired:
            fired.append(theta)
        if cert.verdict == "has unit root":
            unit_root.append(theta)
        elif cert.verdict == "inconclusive":
            inconclusive.append(theta)

    # Not nanargmin, which ranks NaN as inf: a NaN could tie |Res| = inf.
    min_res = None
    min_res_theta = 0.0
    with_res = np.flatnonzero(~np.isnan(res))
    if with_res.size:
        k = int(with_res[np.argmin(res[with_res])])
        min_res, min_res_theta = float(res[k]), 2 * math.pi * k / grid
    gap_holds = (sweep.radius_star < lam and not unit_root and not skipped
                 and not sweep.skipped)
    return GapReport(
        lam=lam,
        grid=grid,
        sweep=sweep,
        min_resultant_abs=min_res,
        min_resultant_theta=min_res_theta,
        fired_points=tuple(fired),
        unit_root_points=tuple(unit_root),
        inconclusive_points=tuple(inconclusive),
        skipped=tuple(sorted(skipped)),
        gap_holds=gap_holds,
    )


def _unit_root_screen(reduced: LaurentMatrix, bi: BivariatePoly, lam: float,
                      ts: np.ndarray):
    """Batched unit-root screen of p(X) = charpoly(reduced)(lam X) at the
    points ts, in blocks of ``_BLOCK``, with one eigenvalue pass: log
    |Res(p, p*)| from ``slogdet`` of one Sylvester matrix per point, and,
    from the eigenvalues mu of reduced(t), whose quotients by lam are the
    roots of p, the distance min | |mu|/lam - 1 | and the radius max |mu|.
    Distance and radius are NaN where the eigenvalue iteration fails; the
    log resultant is -inf where p* drops degree (the constant term of p is
    below ``LEADING_EPS``), which sends the point to the per-point
    certificate."""
    mcoeffs, mlow = _coefficient_array(reduced)
    pcoeffs, plow = _coefficient_array(bi)
    scale = lam ** np.arange(len(bi.coeffs))
    log_res, distance, radii = (np.empty(len(ts)) for _ in range(3))
    for start in range(0, len(ts), _BLOCK):
        block = slice(start, start + _BLOCK)
        p = _evaluate(pcoeffs, plow, ts[block]) * scale
        log_res[block] = np.where(np.abs(p[:, 0]) > LEADING_EPS, np.linalg.slogdet(
            _sylvester(p[:, ::-1], p.conj()))[1], -np.inf)
        moduli = _moduli(_evaluate(mcoeffs, mlow, ts[block]))
        distance[block] = np.abs(moduli / lam - 1).min(-1)
        radii[block] = moduli.max(-1)
    return log_res, distance, radii
