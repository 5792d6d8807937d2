"""The strict-gap check one grid point at a time: the test oracle for the
batched screen in ``burau.spectral.strict_gap_check``.

At every grid point the reduced characteristic polynomial is specialized,
rescaled by lam*X for X, and put through ``unit_circle_root_certificate``
(Sylvester resultant plus merged companion-matrix roots).  No mirroring, no
blocks and no eigenvalues of the Burau matrix: it shares only the sweep and
the per-point certificate with the library.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from burau.foxburau import BurauMatrix, reduce_full
from burau.laurent import BivariatePoly, charpoly
from burau.spectral import (
    ComplexPolynomial,
    GapReport,
    UnitRootCertificate,
    specialize_bivariate,
    sweep_unit_circle,
    unit_circle_root_certificate,
)


def pointwise_strict_gap_check(full: BurauMatrix, lam: float, grid: int = 4096,
                               refine: bool = True) -> tuple[GapReport, list]:
    """``strict_gap_check`` with one certificate per grid point, inside
    Squier's arc too, and the |Res| of every grid point k (None where the
    certificate has none or failed)."""
    if lam <= 1:
        raise ValueError("lam must exceed 1")
    reduced = reduce_full(full).matrix
    bi = charpoly(reduced)
    sweep = sweep_unit_circle(reduced, grid, refine)
    sweep = replace(sweep, radius_star=max(1.0, sweep.radius_star))

    min_res = None
    min_res_theta = 0.0
    fired = []
    unit_root = []
    inconclusive = []
    skipped = []
    resultants = [None] * grid
    for k in range(grid):
        theta = 2 * math.pi * k / grid
        try:
            cert = point_certificate(bi, lam, theta)
        except np.linalg.LinAlgError as exc:
            skipped.append((k, str(exc)))
            continue
        resultants[k] = cert.resultant_abs
        if cert.resultant_abs is not None and (
                min_res is None or cert.resultant_abs < min_res):
            min_res = cert.resultant_abs
            min_res_theta = theta
        if cert.fired:
            fired.append(theta)
        if cert.verdict == "has unit root":
            unit_root.append(theta)
        elif cert.verdict == "inconclusive":
            inconclusive.append(theta)

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
        skipped=tuple(skipped),
        gap_holds=gap_holds,
    ), resultants


def point_certificate(bi: BivariatePoly, lam: float,
                      theta: float) -> UnitRootCertificate:
    """The certificate of bi specialized at exp(i theta), X rescaled by lam."""
    poly = specialize_bivariate(bi, cmath.exp(1j * theta))
    scaled = ComplexPolynomial.make(
        tuple(c * lam ** idx for idx, c in enumerate(poly.coeffs)))
    return unit_circle_root_certificate(scaled)
