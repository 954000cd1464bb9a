"""Fusion-center decision rules and detection-risk machinery.

The fusion center sees the sanitized vector Z and decides the public
hypothesis H; its minimum error probability (Bayes error) is the utility
of a privacy mapping, while the Bayes error of detecting G measures how
well the private hypothesis is protected.

This module also computes the binary detection risk R_g for telling
G = g apart from G = 0 on an intermediate sanitized alphabet, together
with the model constant c_G and the risk threshold theta whose
satisfaction enforces a posterior-ratio budget on G.

Every function here reads the pushed law of (H, G, Z): a ``PushedModel``
from ``model.push_forward``, or the p(g, y) table of one.  A caller that
needs the rule, the error, c_G and the risks of one mapping pushes it
forward once and reads them all from that one table.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import PushedModel

RATIO_TIE_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class FusionRule:
    """Deterministic decision map from flattened Z^s to {0, 1}."""

    table: np.ndarray  # (z_size**s,) of 0/1
    s: int
    z_size: int

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int8)
        if table.shape != (self.z_size ** self.s,):
            raise ValueError(
                f"rule table has shape {table.shape}, expected ({self.z_size ** self.s},)"
            )
        if not np.isin(table, (0, 1)).all():
            raise ValueError("rule table entries must be 0 or 1")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def optimal_rule_from_pushed(pushed: PushedModel) -> FusionRule:
    """Maximum-a-posteriori rule for H; ties broken toward H = 0."""
    p_hz = pushed.p_hz()
    table = (p_hz[1] > p_hz[0]).astype(np.int8)
    return FusionRule(table, pushed.s, pushed.z_size)


def bayes_error_H_pushed(pushed: PushedModel) -> float:
    """Bayes error for H: P(rule(Z) != H) under the optimal rule."""
    p_hz = pushed.p_hz()
    return float(np.minimum(p_hz[0], p_hz[1]).sum())


def bayes_error_G_pushed(pushed: PushedModel) -> float:
    """Minimum error of the 2**q-ary MAP detector for G: 1 - sum_z max_g p(g, z)."""
    p_gz = pushed.p_gz()
    return float(1.0 - p_gz.max(axis=0).sum())


# -- pairwise detection risks ---------------------------------------------


def min_risks(p_gy: np.ndarray, p_g: np.ndarray) -> dict:
    """g -> min over detectors of R_g, for every live g != 0.

    ``p_gy`` holds p(g, y) on its last two axes (n_g, n_y); any leading
    axes index candidates, and each R_g takes their shape.  ``p_g`` is the
    G marginal the conditionals are normalized by; g is live when p_g[g]
    and p_g[0] are both positive.  R_g = sum_y min(p(y|0), p(y|g)) / 2.
    """
    if p_g[0] <= 0:
        return {}
    p0 = p_gy[..., 0, :] / p_g[0]
    return {
        g: 0.5 * np.minimum(p0, p_gy[..., g, :] / p_g[g]).sum(axis=-1)
        for g in range(1, len(p_g))
        if p_g[g] > 0
    }


def compute_c_G(pushed: PushedModel) -> float:
    """min over g != 0 of the extreme-likelihood-set probabilities.

    For each g the two candidates are P(Y in argmin_y l_g | G=0) and
    P(Y in argmax_y l_g | G=g) on the pushed law of (G, Y), where
    l_g = p(y|g) / p(y|0) is inf where p(y|0) = 0; ratio ties within 1e-12
    relative are grouped into the arg sets.  With no live g (as in
    ``min_risks``) the value is 1.
    """
    p_gy = pushed.p_gz()
    p_g = p_gy.sum(axis=1)
    if p_g[0] <= 0:
        return 1.0
    p0 = p_gy[0] / p_g[0]
    best = 1.0
    for g in range(1, pushed.n_g):
        if p_g[g] <= 0:
            continue
        pg = p_gy[g] / p_g[g]
        live = (p0 > 0) | (pg > 0)  # nonempty, as pg sums to one
        ell = np.divide(pg, p0, out=np.full(p0.shape, np.inf), where=p0 > 0)[live]
        argmin = ell <= ell.min() * (1 + RATIO_TIE_RTOL) + 1e-300
        argmax = ell >= ell.max() * (1 - RATIO_TIE_RTOL) - 1e-300
        best = min(best, float(p0[live][argmin].sum()), float(pg[live][argmax].sum()))
    return best


def theta(eps_i: float, c_g: float) -> float:
    """Risk threshold (1 - c_G (1 - e^{-eps_I/2})) / 2 on [0, 1/2]."""
    if eps_i < 0:
        raise ValueError(f"eps_i must be nonnegative, got {eps_i}")
    if not 0.0 <= c_g <= 1.0:
        raise ValueError(f"c_G must lie in [0, 1], got {c_g}")
    return (1.0 - c_g * (1.0 - math.exp(-eps_i / 2.0))) / 2.0


@dataclasses.dataclass(frozen=True)
class PrivacyRiskProfile:
    """Per-g minimum detection risks plus the constants they are held against.

    ``min_risks`` are measured on the returned mapping.  ``c_g`` and
    ``theta`` are the pair the design enforced, not recomputed on that
    mapping: ``theta == theta(eps_i, c_g)`` for a finite budget and 0 when
    ``eps_i`` is infinite.
    """

    min_risks: dict  # g -> min over detectors of R_g
    c_g: float
    theta: float
