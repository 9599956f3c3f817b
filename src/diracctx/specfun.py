"""Special functions and quadrature rules used by the eigenstate machinery.

Everything here is dimensionless: radial integration runs over the scaled
coordinate rho, angular integration over (cos(theta), phi).
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI = 4.0 * math.pi


def hyp1f1_terminating(p: int, q: float, z):
    """Terminating confluent hypergeometric series 1F1(p; q; z) for non-positive integer p.

    With n = -p and alpha = q - 1 this is L_n^alpha(z) / binom(n + alpha, n)
    (DLMF 13.6, 18.9), evaluated by the generalized-Laguerre three-term
    recurrence with that normalization folded in,
    (k + q) M_{k+1} = (2k + q - z) M_k - k M_{k-1}. Summing the series term by
    term instead cancels catastrophically for large n and z.
    """
    if not isinstance(p, (int, np.integer)):
        raise ValueError(f"first argument must be a non-positive integer, got {p!r}")
    if p > 0:
        raise ValueError(f"first argument must be non-positive (terminating series), got {p}")
    if q <= 0 and float(q).is_integer():
        raise ValueError(f"second argument must not be a non-positive integer, got {q}")
    z = np.asarray(z, dtype=float)
    prev = np.ones_like(z)
    cur = prev if p == 0 else 1.0 - z / q
    for k in range(1, -p):
        prev, cur = cur, ((2 * k + q - z) * cur - k * prev) / (k + q)
    return cur if cur.ndim else float(cur)


def _legendre_upward(l: int, m: int, x):
    """Associated Legendre P_l^m(x) for m >= 0, Condon-Shortley phase included."""
    # seed P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}, then recur upward in l
    pmm = np.ones_like(x)
    if m > 0:
        somx2 = np.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(m):
            pmm = pmm * (-fact) * somx2
            fact += 2.0
    if l == m:
        return pmm
    pmmp1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pmmp1
    for ll in range(m + 2, l + 1):
        pll = (x * (2 * ll - 1) * pmmp1 - (ll + m - 1) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pmmp1


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_lm(theta, phi) with Condon-Shortley phase."""
    if abs(m) > l:
        raise ValueError(f"|m| <= l required, got l={l}, m={m}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    am = abs(m)
    # (l-m)!/(l+m)! via lgamma to stay finite for large l
    norm = math.sqrt((2 * l + 1) / FOUR_PI) * math.exp(
        0.5 * (math.lgamma(l - am + 1) - math.lgamma(l + am + 1))
    )
    val = norm * _legendre_upward(l, am, np.cos(theta)) * np.exp(1j * am * phi)
    if m < 0:
        val = (-1.0) ** am * np.conj(val)
    return val if val.ndim else complex(val)


def radial_nodes(count: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule of count nodes for the weight rho^alpha e^-rho.

    Nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
    Comp. 23, 1969). Weights are the Christoffel numbers 1/sum_j p_j(x)^2 over
    the orthonormal polynomials, built by their three-term recurrence; squared
    eigenvector components lose relative accuracy at the outer nodes. They are
    returned as plain weights w e^rho rho^-alpha, so sum(w * h(rho)) is exact
    for h = rho^alpha e^-rho P(rho) with deg P <= 2 count - 1.
    """
    k = np.arange(count)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k * (k + alpha))  # off[j] couples p_{j-1} and p_j; off[0] = 0
    rho = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    # p_j scaled by sqrt(Gamma(alpha + 1)), which re-enters through lgamma; the
    # weights are formed in log space, since e^rho alone overflows past rho ~ 709
    prev = np.zeros_like(rho)
    cur = np.ones_like(rho)
    total = np.ones_like(rho)
    for j in range(count - 1):
        prev, cur = cur, ((rho - diag[j]) * cur - off[j] * prev) / off[j + 1]
        total += cur * cur
    return rho, np.exp(rho - alpha * np.log(rho) + math.lgamma(alpha + 1.0) - np.log(total))


def quadrature_nodes(radial: tuple[np.ndarray, np.ndarray], polar: int) -> tuple:
    """Product rule on the (radial, polar, 2) grid: the radial rule (rho,
    weights) that radial_nodes built, polar Gauss-Legendre nodes in
    cos(theta), and the 2-point trapezoid in phi, which is exact for
    e^(i k phi) with |k| <= 1.

    Returns the node axes (rho, theta, phi), shaped to broadcast to the grid,
    and the weight of each grid node with the rho^2 of the volume element.
    """
    rho, wr = radial
    ct, wt = np.polynomial.legendre.leggauss(polar)
    phi = np.array([0.0, math.pi])
    weight = (wr * rho**2)[:, None, None] * wt[:, None] * np.full(2, math.pi)
    return (rho[:, None, None], np.arccos(ct)[None, :, None], phi[None, None, :]), weight
