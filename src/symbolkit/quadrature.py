"""Quadrature of density measures.

``ExponentPanels`` is the one tabulation of a density measure per
cut-off radius, fixed by the density and the radius alone.  It folds the
two sides of the support onto eps <= y <= y_max and reads the density
through its level map, which takes a 1-d array of jump sizes to their
levels; nodes are evaluated on both sides at once.  The exponent takes a
Kronrod rule where a frequency oscillates little over a panel and a
Filon-type rule elsewhere, so the exponent at one frequency does not
depend on the other frequencies of a call; the moments for simulation
(jump rate, second moment, mean over a band) integrate the same panels'
interpolants (``ExponentPanels.band``).  The build raises
QuadratureError with the relative error achieved when it cannot reach
its tolerance within QUAD_MAX_PANELS panels.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "QUAD_MAX_PANELS",
    "INTERP_REL_TOL",
    "ExponentPanels",
    "QuadratureError",
]

# a density's level map: jump sizes (1-d) to their levels
Levels = Callable[[np.ndarray], np.ndarray]


class QuadratureError(ArithmeticError):
    """A density's panel set failed to reach its interpolation tolerance
    within QUAD_MAX_PANELS panels."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


# Kronrod 15-point rule on [-1, 1] (QUADPACK's qk15): the nodes in [0, 1]
# and their weights, mirrored below.
_GK_HALF_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_GK_HALF_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_X = np.concatenate([-_GK_HALF_X[:-1], _GK_HALF_X[::-1]])
_GK_WK = np.concatenate([_GK_HALF_WK[:-1], _GK_HALF_WK[::-1]])

QUAD_MAX_PANELS = 1 << 16    # cap on the panels of one panel set
QUAD_WORK_ITEMS = 1 << 17    # integrand values per work block (2 MB complex)


def _log_edges(breaks) -> np.ndarray:
    """Panel edges in log y: each interval between consecutive breaks cut
    into equal pieces of log width at most 1."""
    logs = np.log(breaks)
    return np.concatenate([np.linspace(a, b, max(1, math.ceil(b - a)) + 1)[:-1]
                           for a, b in zip(logs[:-1], logs[1:])] + [logs[-1:]])


def _kronrod_nodes(levels: Levels, lo_u: np.ndarray, hi_u: np.ndarray):
    """Nodes y of the panels lo_u <= log y <= hi_u and the density on
    both sides, level(y) and level(-y)."""
    y = np.exp(0.5 * (lo_u + hi_u)[:, None] + 0.5 * (hi_u - lo_u)[:, None] * _GK_X)
    pos, neg = levels(np.concatenate([y.ravel(), -y.ravel()])).reshape(2, *y.shape)
    return y, pos, neg


# The exponent's panel set: Gauss–Legendre interpolation nodes per panel;
# the interpolation error allowed, relative to the panel's mass or to
# INTERP_MASS_FLOOR times the total mass, whichever is larger; and the
# phase xi h (h a panel's half-width) above which a panel takes the Filon
# rule, the threshold of QUADPACK's QAWO.
INTERP_NODES = 24
INTERP_REL_TOL = 1e-11
INTERP_MASS_FLOOR = 1e-6
FILON_MIN_PHASE = 2.0


def _sin_minus_chi_theta(theta: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """sin(theta) - chi theta for chi in {0, 1}, without cancellation
    where chi = 1 and theta is small; the compensated integrand is
    O(theta^3) there.  Below |theta| = 0.5 the Taylor series through
    theta^13 is accurate to about 1e-15 relative, where the direct
    difference loses 6 eps / theta^2."""
    t2 = theta * theta
    series = -theta * t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (
        1.0 - t2 / 72.0 * (1.0 - t2 / 110.0 * (1.0 - t2 / 156.0)))))
    return np.where(chi & (np.abs(theta) < 0.5), series, np.sin(theta) - chi * theta)


def _legendre_vander(t: np.ndarray, n: int) -> np.ndarray:
    """P_0 .. P_{n-1} at the points t, one row per point, by the
    three-term recurrence."""
    v = np.empty((t.size, n))
    v[:, 0] = 1.0
    v[:, 1] = t
    for k in range(1, n - 1):
        v[:, k + 1] = ((2 * k + 1) * t * v[:, k] - k * v[:, k - 1]) / (k + 1)
    return v


@functools.cache
def _legendre_interpolation(n: int):
    """Gauss–Legendre nodes t on [-1, 1], their weights w, and the (n, n)
    matrix that takes values at the nodes to the Legendre coefficients of
    their interpolant, c_k = (k + 1/2) sum_j w_j P_k(t_j) v_j.  The nodes
    are 5 Newton steps on P_n from -cos(pi (j + 3/4) / (n + 1/2)), which
    reach them to rounding; w_j = 2 / ((1 - t_j^2) P_n'(t_j)^2)."""
    t = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for step in range(6):
        v = _legendre_vander(t, n + 1)
        slope = n * (v[:, n - 1] - t * v[:, n]) / (1.0 - t * t)
        if step < 5:
            t = t - v[:, n] / slope
    w = 2.0 / ((1.0 - t * t) * slope * slope)
    return t, w, (np.arange(n) + 0.5)[:, None] * (v[:, :n] * w[:, None]).T


def _bessel_sums(phase: np.ndarray, coefs: list) -> list:
    """For each (n, F) array c in coefs, the sums over even k and over odd
    k of c_k j_k(phase), with j_k the spherical Bessel functions at the
    (F,) phases, all above 0.  Where phase >= n the forward recurrence
    j_{k+1} = (2k+1)/phase j_k - j_{k-1} is stable and runs from j_0 and
    j_1; below, Miller's backward recurrence starts 20 orders above n and
    is scaled to j_0 or j_1, whichever is larger."""
    n = coefs[0].shape[0]
    sums = [np.empty((2, phase.size)) for _ in coefs]
    j0 = np.sin(phase) / phase
    j1 = (j0 - np.cos(phase)) / phase
    forward = phase >= n
    for sel in (forward, ~forward):
        if not sel.any():
            continue
        inv = 1.0 / phase[sel]
        parts = [c[:, sel] for c in coefs]
        if sel is forward:
            prev, cur = j0[sel], j1[sel]
            acc = [[c[0] * prev, c[1] * cur] for c in parts]
            for k in range(1, n - 1):
                prev, cur = cur, (2 * k + 1) * inv * cur - prev
                for a, c in zip(acc, parts):
                    a[(k + 1) % 2] += c[k + 1] * cur
            scale = 1.0
        else:
            prev, cur = np.zeros(inv.size), np.ones(inv.size)
            acc = [[0.0, 0.0] for _ in parts]
            for k in range(n + 20, 0, -1):
                prev, cur = cur, (2 * k + 1) * inv * cur - prev
                if k <= n:
                    for a, c in zip(acc, parts):
                        a[(k - 1) % 2] = a[(k - 1) % 2] + c[k - 1] * cur
            # cur is the unscaled j_0 and prev the unscaled j_1
            scale = np.where(np.abs(j0[sel]) >= np.abs(j1[sel]), j0[sel] / cur, j1[sel] / prev)
        for out, a in zip(sums, acc):
            out[0, sel] = a[0] * scale
            out[1, sel] = a[1] * scale
    return sums


class ExponentPanels:
    """The jump part I(xi) of a density measure's exponent on one panel set,
    fixed by the density and the cut-off radius r alone.

    The panels are equally spaced in log y between eps, r and y_max (log
    width at most 1) and bisected in log y until the degree
    INTERP_NODES - 1 interpolants of level(y) + level(-y) and level(y) -
    level(-y) at Gauss–Legendre nodes in y are within INTERP_REL_TOL of
    the panel's mass (at least INTERP_MASS_FLOOR of the total mass), as
    estimated by their two highest Legendre coefficients; no frequency
    enters.  Past QUAD_MAX_PANELS, or at a level that is not finite, the
    build raises QuadratureError with the worst relative error.

    At a positive frequency xi each panel of half-width h takes one rule:
    the Kronrod 15-point rule in log y on -2 sin^2(y xi / 2)(level(y) +
    level(-y)) and (sin(y xi) - chi y xi)(level(y) - level(-y)) where
    xi h <= FILON_MIN_PHASE, which does not cancel at small xi; elsewhere
    a Filon-type rule, which integrates the interpolants exactly against
    e^{i xi y} - 1 - i xi y chi through the moments 2 i^k j_k(xi h) of
    the Legendre polynomials (Iserles and Norsett, Proc. R. Soc. A 461,
    2005; QUADPACK's QAWO), with an error that does not grow with xi.
    Each (frequency, panel) value depends on that pair alone, and a
    frequency's panel values are summed in panel order, so I(xi) is a
    function of xi alone, bit for bit, in any batch.

    ``band`` integrates the same interpolants against a power of y over
    part of the support: the moments that set a density's jump sampler.
    """

    def __init__(self, levels: Levels, eps: float, y_max: float, r: float):
        breaks = [eps, r, y_max] if eps < r < y_max else [eps, y_max]
        edges = _log_edges(breaks)
        lo_u, hi_u = edges[:-1], edges[1:]
        kept, floor = [], None
        while True:
            even, odd, mass, error = self._interpolants(levels, lo_u, hi_u)
            if floor is None:
                floor = INTERP_MASS_FLOOR * mass.sum()
            bound = INTERP_REL_TOL * np.maximum(mass, floor)
            bad = ~(error <= bound)
            kept.append((lo_u[~bad], hi_u[~bad], even[~bad], odd[~bad]))
            if not bad.any():
                break
            mid = 0.5 * (lo_u[bad] + hi_u[bad])
            n_panels = sum(part[0].size for part in kept) + 2 * mid.size
            if (n_panels > QUAD_MAX_PANELS or not np.all(np.isfinite(error))
                    or np.any(mid <= lo_u[bad]) or np.any(mid >= hi_u[bad])):
                with np.errstate(divide="ignore", invalid="ignore"):
                    worst = np.max(error[bad] / bound[bad]) * INTERP_REL_TOL
                raise QuadratureError(
                    f"density interpolation did not converge within {QUAD_MAX_PANELS} panels",
                    float(worst))
            lo_u = np.concatenate([lo_u[bad], mid])
            hi_u = np.concatenate([mid, hi_u[bad]])
        order = np.argsort(np.concatenate([part[0] for part in kept]))
        lo_u, hi_u, even, odd = (np.concatenate([part[i] for part in kept])[order]
                                 for i in range(4))
        self.left, self.right = a, b = np.exp(lo_u), np.exp(hi_u)
        self.center, self.half = 0.5 * (a + b), 0.5 * (b - a)
        self.even_coefs, self.odd_coefs = even, odd
        # Kronrod rule in log y: halved nodes and weighted levels
        y, pos, neg = _kronrod_nodes(levels, lo_u, hi_u)
        weight = 0.5 * (hi_u - lo_u)[:, None] * y * _GK_WK
        self.y_half = 0.5 * y
        self.even_weight = -2.0 * (pos + neg) * weight
        # Filon rule: h times the Legendre coefficients times 2 (-1)^(k // 2),
        # one row per order; row 0 is the panel's integral
        sign = 2.0 * (-1.0) ** (np.arange(INTERP_NODES) // 2)
        self.even_moments = np.ascontiguousarray((sign * self.half[:, None] * even).T)
        self.is_odd = bool(np.any(odd) or np.any(pos != neg))
        if self.is_odd:
            self.y = y
            self.odd_weight = (pos - neg) * weight
            # the compensator's panels: the interval [eps, r]
            self.chi = self.center <= r
            self.odd_moments = np.ascontiguousarray((sign * self.half[:, None] * odd).T)
            # integral of y times the odd interpolant over each panel in [eps, r]
            self.odd_first = np.where(self.chi, self.half * (
                2.0 * self.center * odd[:, 0] + (2.0 / 3.0) * self.half * odd[:, 1]), 0.0)

    @staticmethod
    def _interpolants(levels: Levels, lo_u: np.ndarray, hi_u: np.ndarray):
        """Legendre coefficients of the interpolants of level(y) + level(-y)
        and level(y) - level(-y) at INTERP_NODES Gauss–Legendre nodes of
        the panels lo_u <= log y <= hi_u, each panel's mass (the integral
        of |level(y)| + |level(-y)|) and its interpolation error estimate,
        2h times the larger of the interpolants' two highest coefficients
        (|c_{n-2}| + |c_{n-1}|).  The density is evaluated on at most
        QUAD_WORK_ITEMS nodes at a time."""
        t, w, to_coefs = _legendre_interpolation(INTERP_NODES)
        parts = []
        step = max(1, QUAD_WORK_ITEMS // (2 * INTERP_NODES))
        for i in range(0, lo_u.size, step):
            a, b = np.exp(lo_u[i:i + step]), np.exp(hi_u[i:i + step])
            h = 0.5 * (b - a)
            y = (0.5 * (a + b))[:, None] + h[:, None] * t
            pos, neg = levels(np.concatenate([y.ravel(), -y.ravel()])).reshape(2, *y.shape)
            even, odd = (pos + neg) @ to_coefs.T, (pos - neg) @ to_coefs.T
            mass = h * ((np.abs(pos) + np.abs(neg)) @ w)
            tail = np.maximum(np.abs(even[:, -2:]).sum(axis=1), np.abs(odd[:, -2:]).sum(axis=1))
            parts.append((even, odd, mass, 2.0 * h * tail))
        return [np.concatenate(column) for column in zip(*parts)]

    def band(self, lo: float, hi: float, power: int) -> np.ndarray:
        """Integrals of y^power (level(y), level(-y)) over lo <= y <= hi,
        one value per side: each panel's interpolants integrated over the
        panel's part of the band by the INTERP_NODES-point Gauss–Legendre
        rule, exact for an interpolant times y^2, in blocks of at most
        QUAD_WORK_ITEMS Legendre values."""
        t, w, _ = _legendre_interpolation(INTERP_NODES)
        a, b = np.maximum(self.left, lo), np.minimum(self.right, hi)
        inside = np.flatnonzero(b > a)
        total = np.zeros(2)
        step = max(1, QUAD_WORK_ITEMS // (INTERP_NODES * INTERP_NODES))
        for i in range(0, inside.size, step):
            p = inside[i:i + step]
            h = 0.5 * (b[p] - a[p])
            y = (0.5 * (a[p] + b[p]))[:, None] + h[:, None] * t
            u = (y - self.center[p, None]) / self.half[p, None]
            vander = _legendre_vander(u.ravel(), INTERP_NODES).reshape(*u.shape, INTERP_NODES)
            even, odd = self.even_coefs[p, :, None], self.odd_coefs[p, :, None]
            sides = vander @ np.concatenate([even + odd, even - odd], axis=2)
            total += 0.5 * ((h[:, None] * w * y ** power)[..., None] * sides).sum(axis=(0, 1))
        return total

    def exponents(self, xi: np.ndarray) -> np.ndarray:
        """I at the (m,) positive frequencies xi, in blocks of frequencies
        of at most QUAD_WORK_ITEMS Kronrod nodes."""
        step = max(1, QUAD_WORK_ITEMS // (self.center.size * _GK_X.size))
        return np.concatenate([self._block(xi[i:i + step]) for i in range(0, xi.size, step)])

    def _block(self, xi: np.ndarray) -> np.ndarray:
        phase = xi[:, None] * self.half
        kronrod = phase <= FILON_MIN_PHASE
        re = np.empty(phase.shape)
        im = np.zeros(phase.shape)
        rows, cols = np.nonzero(kronrod)
        if rows.size:
            s = np.sin(xi[rows, None] * self.y_half[cols])
            re[rows, cols] = (s * s * self.even_weight[cols]).sum(axis=1)
            if self.is_odd:
                theta = xi[rows, None] * self.y[cols]
                im[rows, cols] = (_sin_minus_chi_theta(theta, self.chi[cols, None])
                                  * self.odd_weight[cols]).sum(axis=1)
        rows, cols = np.nonzero(~kronrod)
        if rows.size:
            angle = xi[rows] * self.center[cols]
            cos, sin = np.cos(angle), np.sin(angle)
            coefs = [self.even_moments[:, cols]]
            if self.is_odd:
                coefs.append(self.odd_moments[:, cols])
            sums = _bessel_sums(phase[rows, cols], coefs)
            re[rows, cols] = sums[0][0] * cos - sums[0][1] * sin - coefs[0][0]
            if self.is_odd:
                im[rows, cols] = (sums[1][0] * sin + sums[1][1] * cos
                                  - xi[rows] * self.odd_first[cols])
        out = np.empty(xi.size, dtype=complex)
        out.real = re.sum(axis=1)
        out.imag = im.sum(axis=1)
        return out
