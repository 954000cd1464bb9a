"""Per-sensor randomized privacy mappings and their compositions.

A sensor channel is a row-stochastic matrix p(z | x).  A network mapping is
the product-form collection of one channel per sensor.  Two-stage mappings
concatenate two network mappings per sensor, either sanitizing for the
private hypothesis first and then adding local noise ("ill") or the other
way around ("lip").

Every block step over one sensor's channel, parametric or empirical, is one
``solve_channel_lp``: a linear program over the local-budget polytope
``ldp_polytope`` plus the caller's own rows over the channel entries.  The
polytope is a per-output floor plus an excess, one ratio row per entry, and
has no ratio rows once e^-eps_ld is below ``LP_TOL`` (the ratio repair then
enforces the budget).  Its column and row layout is known only here.

Every model, mapping and spec file is read by ``read_document``, so a malformed
one is one ``ModelFormatError`` that names it; ``write_json`` writes every
model, mapping and result file.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .simplex import LP_TOL, solve_lp

ROW_ATOL = 1e-12
#: the largest finite local budget: e^eps_ld is a float up to it
MAX_EPS_LD = math.log(np.finfo(float).max)


class ModelFormatError(ValueError):
    """A table, or a model, mapping or spec file (whose path leads the message), out of format."""


@dataclasses.dataclass(frozen=True)
class SensorChannel:
    """Row-stochastic matrix p(z | x) with rows indexed by the input symbol."""

    rows: np.ndarray  # (x_size, z_size)

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"channel matrix must be 2-D and non-empty, got {rows.shape}")
        if not np.all(rows >= 0):
            raise ValueError("channel has a negative or NaN entry")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_ATOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"channel row {bad} sums to {float(sums[bad])!r}")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def x_size(self) -> int:
        return self.rows.shape[0]

    @property
    def z_size(self) -> int:
        return self.rows.shape[1]

    def to_dict(self) -> dict:
        return {"x_size": self.x_size, "z_size": self.z_size, "rows": self.rows.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SensorChannel":
        ch = cls(np.asarray(data["rows"], dtype=float))
        if ch.x_size != int(data["x_size"]) or ch.z_size != int(data["z_size"]):
            raise ValueError("declared channel sizes do not match the matrix")
        return ch


@dataclasses.dataclass(frozen=True)
class NetworkMapping:
    """Ordered per-sensor channels; the network acts as their product."""

    channels: tuple

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("a network mapping needs at least one channel")
        for ch in chans:
            if not isinstance(ch, SensorChannel):
                raise TypeError("channels must be SensorChannel instances")
        object.__setattr__(self, "channels", chans)

    @property
    def s(self) -> int:
        return len(self.channels)

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample z (shape (n, s)) for observation rows x (shape (n, s))."""
        x = np.asarray(x)
        z = np.empty_like(x)
        for t, ch in enumerate(self.channels):
            cdf = np.cumsum(ch.rows, axis=1)
            u = rng.random(x.shape[0])
            z[:, t] = np.minimum((u[:, None] > cdf[x[:, t]]).sum(axis=1), ch.z_size - 1)
        return z

    def network(self) -> "NetworkMapping":
        """The one channel per sensor that the network applies: this mapping itself."""
        return self

    def to_json(self) -> list:
        """The mapping file's payload: a list of channels."""
        return [ch.to_dict() for ch in self.channels]

    @classmethod
    def from_list(cls, data: list) -> "NetworkMapping":
        return cls(tuple(SensorChannel.from_dict(d) for d in data))


@dataclasses.dataclass(frozen=True)
class TwoStageMapping:
    """Per-sensor concatenation of two mappings, tagged "ill" or "lip"."""

    stage1: NetworkMapping
    stage2: NetworkMapping
    arch: str

    def __post_init__(self):
        if self.arch not in ("ill", "lip"):
            raise ValueError(f"architecture must be 'ill' or 'lip', got {self.arch!r}")
        if self.stage1.s != self.stage2.s:
            raise ValueError("both stages must cover the same sensors")
        for t, (a, b) in enumerate(zip(self.stage1.channels, self.stage2.channels)):
            if a.z_size != b.x_size:
                raise ValueError(
                    f"sensor {t}: stage-1 output size {a.z_size} != stage-2 input {b.x_size}"
                )

    def network(self) -> NetworkMapping:
        """The two stages collapsed into one channel per sensor."""
        chans = []
        for a, b in zip(self.stage1.channels, self.stage2.channels):
            rows = a.rows @ b.rows
            rows = rows / rows.sum(axis=1, keepdims=True)
            chans.append(SensorChannel(rows))
        return NetworkMapping(tuple(chans))

    def to_json(self) -> dict:
        """The mapping file's payload: the tag and both stages."""
        return {
            "arch": self.arch,
            "stage1": self.stage1.to_json(),
            "stage2": self.stage2.to_json(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TwoStageMapping":
        return cls(
            NetworkMapping.from_list(data["stage1"]),
            NetworkMapping.from_list(data["stage2"]),
            str(data["arch"]),
        )


def identity_mapping(s: int, x_size: int) -> NetworkMapping:
    eye = np.eye(x_size)
    return NetworkMapping(tuple(SensorChannel(eye) for _ in range(s)))


def uniform_mapping(s: int, x_size: int, z_size: int) -> NetworkMapping:
    rows = np.full((x_size, z_size), 1.0 / z_size)
    return NetworkMapping(tuple(SensorChannel(rows) for _ in range(s)))


def randomized_response(x_size: int, eps: float) -> SensorChannel:
    """Symmetric response channel: keep the symbol w.p. e^eps/(e^eps+k-1).

    Satisfies the local ratio bound with budget exactly ``eps``, which
    ``check_eps_ld`` must accept.
    """
    if np.isinf(check_eps_ld(eps)):
        return SensorChannel(np.eye(x_size))
    e = np.exp(eps)
    keep = e / (e + x_size - 1)
    off = 1.0 / (e + x_size - 1)
    rows = np.full((x_size, x_size), off)
    np.fill_diagonal(rows, keep)
    return SensorChannel(rows)


def random_channel(seed, x_size: int, z_size: int) -> SensorChannel:
    """Rows drawn uniformly from the probability simplex, reproducibly.

    Uses normalized exponential variates, which are exactly uniform on the
    simplex.  ``seed`` is an int or a ``SeedSequence``.
    """
    if x_size < 1 or z_size < 1:
        raise ValueError("alphabet sizes must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.exponential(size=(x_size, z_size))
    return SensorChannel(raw / raw.sum(axis=1, keepdims=True))


def random_mapping(seed: int, s: int, x_size: int, z_size: int) -> NetworkMapping:
    """Independent ``random_channel`` draws for every sensor, seeded as a family."""
    seeds = np.random.SeedSequence(seed).spawn(s)
    return NetworkMapping(tuple(random_channel(ss, x_size, z_size) for ss in seeds))


def check_eps_ld(eps_ld: float) -> float:
    """``eps_ld`` if it is nonnegative, and inf or at most ``MAX_EPS_LD``; else a ValueError.

    Beyond ``MAX_EPS_LD`` neither e^eps_ld nor a channel's ratio is a float,
    so no step or audit could tell the budget from inf.
    """
    if not eps_ld >= 0:
        raise ValueError(f"eps_ld must be nonnegative, got {eps_ld}")
    if math.isfinite(eps_ld) and eps_ld > MAX_EPS_LD:
        raise ValueError(f"eps_ld must be inf or at most {MAX_EPS_LD:.6f} (where e^eps_ld "
                         f"is a float), got {eps_ld}")
    return eps_ld


def ldp_polytope(x_size: int, z_size: int, eps_ld: float):
    """Linear constraints of the channels whose local budget is at most eps_ld.

    Each entry of a column within the budget lies between a floor m_z and
    e^eps m_z (Kairouz, Oh & Viswanath 2016), so p(z|x) = m_z + s(z|x) with
    s, m >= 0, rows sum_z s(z|x) + sum_z m_z = 1 per x, and one ratio row
    s(z|x) - (e^eps - 1) m_z <= 0 per entry.  (s, m) -> (p, m) is a bijection
    onto {m_z <= p(z|x) <= e^eps m_z}, which m_z = min_x p(z|x) meets
    whenever the bound holds: every LP over it has the same optimum.

    Variables are s(z | x) flattened as x * z_size + z, then m_0 .. m_{z-1};
    returns (a_eq, b_eq, a_ub, b_ub), the ratio rows in entry order.  With
    eps_ld infinite, x_size < 2 or e^-eps_ld below ``LP_TOL`` (the finest
    ratio the solver resolves) there are no ratio rows (None) and no floor
    columns: the variables are p, and ``repair_ratio_columns`` meets the budget.
    """
    nv = x_size * z_size
    shifted = x_size >= 2 and math.exp(-eps_ld) >= LP_TOL
    n_cols = nv + z_size if shifted else nv
    a_eq = np.zeros((x_size, n_cols))
    for x in range(x_size):
        a_eq[x, x * z_size:(x + 1) * z_size] = 1.0
    a_eq[:, nv:] = 1.0
    b_eq = np.ones(x_size)
    if not shifted:
        return a_eq, b_eq, None, None
    a_ub = np.zeros((nv, n_cols))
    k = np.arange(nv)
    a_ub[k, k], a_ub[k, nv + k % z_size] = 1.0, -math.expm1(eps_ld)
    return a_eq, b_eq, a_ub, np.zeros(nv)


def repair_ratio_columns(rows: np.ndarray, eps_ld: float) -> np.ndarray:
    """Snap solver noise so a channel's ratio budget holds exactly after rounding.

    Negative entries are clipped to zero; each column is lifted to at least
    e^-eps_ld times its maximum (or zeroed when its maximum is below 1e-12),
    and rows are renormalized.
    """
    rows = np.clip(rows, 0.0, None)
    if math.isfinite(eps_ld):
        floor = np.exp(-eps_ld)
        for z in range(rows.shape[1]):
            col = rows[:, z]
            mx = col.max()
            rows[:, z] = 0.0 if mx <= 1e-12 else np.maximum(col, mx * floor)
    else:
        rows[rows <= 1e-12] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


def solve_channel_lp(shape, eps_ld, cost, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """Minimize cost . p over the channels p of ``shape`` with local budget at most eps_ld.

    p is the channel p(z | x) flattened as x * z_size + z; ``cost`` and the
    extra rows ``a_ub``/``a_eq`` run over p, and go below the polytope's
    rows.  Returns the optimal rows repaired by ``repair_ratio_columns``;
    raises LPInfeasible when no channel meets the rows.
    """
    x_size, z_size = shape
    nv = x_size * z_size
    poly_eq, poly_beq, poly_ub, poly_bub = ldp_polytope(x_size, z_size, eps_ld)
    n_floor = poly_eq.shape[1] - nv

    def over_floor(a):  # over (s, m) with p = s + m: m_z's coefficient sums p(z|x)'s over x
        a = np.asarray(a, dtype=float)
        floor = a.reshape(a.shape[:-1] + (x_size, z_size)).sum(axis=-2)
        return np.concatenate([a, floor[..., :n_floor]], axis=-1)

    def stack(poly, poly_b, extra, extra_b):
        if extra is None:
            return poly, poly_b
        if poly is None:
            return over_floor(extra), extra_b
        return np.vstack([poly, over_floor(extra)]), np.concatenate([poly_b, extra_b])

    a_ub, b_ub = stack(poly_ub, poly_bub, a_ub, b_ub)
    a_eq, b_eq = stack(poly_eq, poly_beq, a_eq, b_eq)
    x = solve_lp(over_floor(cost), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq).x
    rows = x[:nv].reshape(x_size, z_size)
    return repair_ratio_columns(rows + x[nv:] if n_floor else rows, eps_ld)


# -- documents ----------------------------------------------------------------


def write_json(path, payload) -> None:
    """The one JSON writer: ``payload`` indented one space, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_document(path, parse, decode=json.loads):
    """``parse(decode(text))`` of the UTF-8 file at ``path``: the one document reader.

    A file that does not decode, or a KeyError, TypeError or ValueError from
    ``parse``, is one ModelFormatError led by the path; an OSError passes through.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(decode(fh.read()))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _mapping_from_json(data):
    """The mapping a mapping file's payload (``to_json``) describes, or the
    ``mapping`` entry of a result document (``privdet design`` or ``epic``)."""
    if isinstance(data, dict) and "mapping" in data:
        data = data["mapping"]
    if isinstance(data, list):
        return NetworkMapping.from_list(data)
    if isinstance(data, dict) and "arch" in data:
        return TwoStageMapping.from_dict(data)
    raise ValueError("unrecognized mapping layout")


def save_mapping(mapping, path) -> None:
    """Write a network or two-stage mapping's ``to_json`` payload with ``write_json``."""
    if not isinstance(mapping, (NetworkMapping, TwoStageMapping)):
        raise TypeError(f"cannot serialize {type(mapping).__name__}")
    write_json(path, mapping.to_json())


def load_mapping(path):
    """The mapping in a file ``save_mapping``, ``privdet design`` or ``privdet epic`` wrote,
    read by ``read_document``."""
    return read_document(path, _mapping_from_json)
