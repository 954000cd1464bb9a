"""Discrete probability models over (H, G, X) and their sanitized images.

H is a binary public hypothesis, G a vector of q binary private hypothesis
components (so G ranges over 2**q values), and X = (X_1, ..., X_s) the
per-sensor observations, each on the alphabet {0, ..., x_size - 1}.

A model is a prior table p(h, g) plus one conditional table p(x_t | h, g)
per sensor.  This assumes the observations are conditionally independent
given (H, G), the assumption the parametric designs build on: each sensor
gets its own local mapping, designed from its own conditional law.
Operations work factor-wise, so the joint observation space X^s is only
materialized on request (``joint_hgx``), flattened row-major with sensor 1
most significant.  Model files store this form as ``"form": "cond_indep"``.

All model objects are immutable after construction; every operation here
is a pure function of its inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channels import ModelFormatError, NetworkMapping, read_document, write_json

# Tolerance on user-supplied tables, and after arithmetic (summation error
# over up to ~1e6 terms).
PROB_ATOL_INPUT = 1e-12
PROB_ATOL_DERIVED = 1e-10

# Refuse to materialize joint tables bigger than this many cells.
EXPANSION_CAP = 50_000_000


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _check_rows_stochastic(table: np.ndarray, what: str, atol: float = PROB_ATOL_INPUT) -> None:
    if not np.all(table >= 0):
        idx = tuple(int(i) for i in np.argwhere(~(table >= 0))[0])
        raise ModelFormatError(f"{what} has entry {float(table[idx])!r} at {idx}, negative or NaN")
    sums = table.sum(axis=-1)
    bad = np.abs(sums - 1.0) > atol
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ModelFormatError(
            f"{what} row {idx} sums to {float(sums[idx])!r} (deficit {1.0 - sums[idx]:.3e})"
        )


@dataclasses.dataclass(frozen=True)
class JointModel:
    """Joint law of (H, G, X_1..X_s) with X_t independent given (H, G).

    ``_stages`` holds the stage designs made on this model, so that each is
    made once per model and input (``design._once_per_model``), and the
    data sets drawn from it, each once per (n, seed)
    (``epic.dataset_from_model``); ``_p_x`` holds the marginal ``p_x``
    computed once.  A replaced or reloaded model starts both empty.
    """

    s: int
    x_size: int
    q: int
    prior: np.ndarray  # (2, 2**q), p(h, g)
    conditionals: tuple  # s tables (2, 2**q, x_size), p(x_t | h, g)
    _stages: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)
    _p_x: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s < 1 or self.x_size < 1 or self.q < 1:
            raise ModelFormatError("s, x_size and q must all be >= 1")
        prior = _as_readonly(self.prior)
        if prior.shape != (2, self.n_g):
            raise ModelFormatError(f"prior shape {prior.shape} != (2, {self.n_g})")
        if not np.all(prior >= 0):
            raise ModelFormatError("prior has a negative or NaN entry")
        mass = prior.sum()
        if abs(mass - 1.0) > PROB_ATOL_INPUT:
            raise ModelFormatError(f"prior mass is {float(mass)!r} (deficit {1.0 - mass:.3e})")
        conds = tuple(_as_readonly(c) for c in self.conditionals)
        if len(conds) != self.s:
            raise ModelFormatError(f"expected {self.s} conditionals, got {len(conds)}")
        for t, c in enumerate(conds):
            if c.shape != (2, self.n_g, self.x_size):
                raise ModelFormatError(
                    f"conditional {t} shape {c.shape} != (2, {self.n_g}, {self.x_size})"
                )
            _check_rows_stochastic(c, f"conditional table {t}")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "conditionals", conds)

    # -- basic views ------------------------------------------------------

    @property
    def n_g(self) -> int:
        return 2 ** self.q

    @property
    def n_x(self) -> int:
        return self.x_size ** self.s

    def joint_hgx(self) -> np.ndarray:
        """Full joint table p(h, g, x-vector) of shape (2, 2**q, x_size**s)."""
        cells = 2 * self.n_g * self.n_x
        if cells > EXPANSION_CAP:
            raise ModelFormatError(
                f"joint expansion needs {cells} cells (cap {EXPANSION_CAP}); "
                "work factor-wise at this size"
            )
        return _sensor_product(self.prior[:, :, None], self.conditionals)

    def p_x(self) -> np.ndarray:
        """Marginal over the flattened observation vector, read-only.

        Computed from ``joint_hgx`` on the first call and kept: later calls
        return the same array, so one budget report builds the joint once.
        """
        if self._p_x is None:
            p_x = self.joint_hgx().sum(axis=(0, 1))
            p_x.setflags(write=False)
            object.__setattr__(self, "_p_x", p_x)
        return self._p_x

    # -- sampling ---------------------------------------------------------

    def sample(self, n: int, rng: np.random.Generator):
        """Draw n i.i.d. samples; returns (h, g, x) with x of shape (n, s)."""
        flat_prior = self.prior.reshape(-1)
        hg = rng.choice(flat_prior.size, size=n, p=flat_prior)
        h, g = np.divmod(hg, self.n_g)
        x = np.empty((n, self.s), dtype=np.int64)
        u = rng.random((n, self.s))
        for t in range(self.s):
            cdf = np.cumsum(self.conditionals[t], axis=-1)  # (2, n_g, x_size)
            x[:, t] = np.minimum(
                (u[:, t, None] > cdf[h, g]).sum(axis=1), self.x_size - 1
            )
        return h, g, x

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "x_size": self.x_size,
            "q": self.q,
            "form": "cond_indep",
            "prior": self.prior.tolist(),
            "conditionals": [c.tolist() for c in self.conditionals],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JointModel":
        if not isinstance(data, dict):
            raise ModelFormatError("expected a JSON object at top level")
        try:
            if data["form"] != "cond_indep":
                raise ModelFormatError(
                    f"unsupported model form {data['form']!r}; only 'cond_indep' is supported"
                )
            return cls(
                s=int(data["s"]),
                x_size=int(data["x_size"]),
                q=int(data["q"]),
                prior=np.asarray(data["prior"], dtype=float),
                conditionals=tuple(np.asarray(c, dtype=float) for c in data["conditionals"]),
            )
        except KeyError as exc:
            raise ModelFormatError(f"model file is missing field {exc.args[0]!r}") from exc


@dataclasses.dataclass(frozen=True)
class PushedModel:
    """Joint law of (H, G, Z) obtained by pushing a model through a mapping.

    Keeps references to the source model and mapping so that views that
    genuinely involve X (identifiability, I(X;Z), ...) stay computable; the
    sizes s, q and z_size are read from them.
    """

    joint: np.ndarray  # (2, 2**q, z_size**s)
    source: JointModel
    mapping: NetworkMapping

    def __post_init__(self):
        joint = _as_readonly(self.joint)
        if np.any(joint < 0):
            raise ModelFormatError("pushed joint has a negative entry")
        if abs(joint.sum() - 1.0) > PROB_ATOL_DERIVED:
            raise ModelFormatError(f"pushed joint mass is {float(joint.sum())!r}")
        drift = np.abs(joint.sum(axis=2) - self.source.prior).max()
        if drift > PROB_ATOL_DERIVED:
            raise ModelFormatError(f"(H, G) marginal drifted by {drift:.3e} under push-forward")
        object.__setattr__(self, "joint", joint)

    @property
    def s(self) -> int:
        return self.source.s

    @property
    def q(self) -> int:
        return self.source.q

    @property
    def z_size(self) -> int:
        return self.mapping.channels[0].z_size

    @property
    def n_g(self) -> int:
        return 2 ** self.q

    @property
    def n_z(self) -> int:
        return self.z_size ** self.s

    def p_gz(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def p_hz(self) -> np.ndarray:
        return self.joint.sum(axis=1)


def push_forward(model: JointModel, mapping: NetworkMapping) -> PushedModel:
    """Push (H, G, X) through a product-form mapping, yielding (H, G, Z).

    The computation is factor-wise per sensor and never touches X^s.
    """
    _check_compatible(model, mapping)
    pushed = [c @ ch.rows for c, ch in zip(model.conditionals, mapping.channels)]
    joint = _sensor_product(model.prior[:, :, None], pushed)
    return PushedModel(joint, model, mapping)


def push_forward_model(model: JointModel, mapping: NetworkMapping) -> JointModel:
    """Like :func:`push_forward`, but returns the image as a JointModel.

    Used to treat an intermediate sanitized alphabet as the observation
    space of a downstream design stage.
    """
    _check_compatible(model, mapping)
    z_size = mapping.channels[0].z_size
    conds = tuple(c @ ch.rows for c, ch in zip(model.conditionals, mapping.channels))
    conds = tuple(c / c.sum(axis=-1, keepdims=True) for c in conds)
    return JointModel(model.s, z_size, model.q, model.prior, conds)


def _sensor_product(table: np.ndarray, factors) -> np.ndarray:
    """Fold per-sensor (..., k) factors into the flattened last axis of table.

    Each factor multiplies in as a new least significant digit, so the
    result's last axis is row-major over (table's axis, factor 1, ...).
    The other axes broadcast: (2, n_g, k) factors fold into a (2, n_g, 1)
    table, and with a stack axis in front one call folds a table per entry.
    """
    for f in factors:
        prod = table[..., :, None] * f[..., None, :]
        table = prod.reshape(prod.shape[:-2] + (-1,))
    return table


def _check_compatible(model: JointModel, mapping: NetworkMapping) -> None:
    if len(mapping.channels) != model.s:
        raise ModelFormatError(
            f"mapping has {len(mapping.channels)} channels for a {model.s}-sensor model"
        )
    for t, ch in enumerate(mapping.channels):
        if ch.x_size != model.x_size:
            raise ModelFormatError(
                f"channel {t} expects inputs of size {ch.x_size}, model has {model.x_size}"
            )
    z_sizes = {ch.z_size for ch in mapping.channels}
    if len(z_sizes) != 1:
        raise ModelFormatError("all channels must share one output alphabet")


# -- synthetic model generator ---------------------------------------------

# Mean offsets of the shifted-noise observation family, indexed by (h, g).
_BASE_SHIFT = {(0, 0): -3.0, (0, 1): -1.0, (1, 0): 1.0, (1, 1): 3.0}
_NOISE_OFFSETS = np.arange(-2, 3)  # uniform over 5 values


def generate_correlated_model(
    seed: int, s: int, x_size: int, target_corr: float = 0.2, jitter: float = 0.5
) -> JointModel:
    """Seeded model with uniform H and G marginals whose corr(H, G) equals target_corr exactly.

    With both marginals at 1/2 every correlation in [-1, 1] is feasible:
    p(1, 1) = p(0, 0) = (1 + target_corr) / 4.  Per-sensor conditionals come
    from a shifted-noise family (mean offset -3/-1/+1/+3 per (h, g) cell
    plus uniform noise over five steps), rescaled onto {0, ..., x_size - 1}.
    ``jitter``, finite and nonnegative, perturbs each sensor's offsets by a
    seeded uniform amount in [-jitter, jitter] so sensors are not identical;
    jitter=0 reproduces the family verbatim.
    """
    if x_size < 1:
        raise ValueError(f"x_size must be >= 1, got {x_size}")
    if not -1.0 <= target_corr <= 1.0:
        raise ValueError(f"target_corr must lie in [-1, 1], got {target_corr}")
    if not 0.0 <= jitter < np.inf:
        raise ValueError(f"jitter must be a finite nonnegative number, got {jitter}")
    p11 = 0.25 + target_corr * 0.25
    prior = np.array([[p11, 0.5 - p11], [0.5 - p11, p11]])
    prior /= prior.sum()

    rng = np.random.default_rng(seed)
    conds = []
    scale = (x_size - 1) / 10.0 if x_size > 1 else 0.0
    for _ in range(s):
        table = np.zeros((2, 2, x_size))
        for (h, g), base in _BASE_SHIFT.items():
            mu = base + (rng.uniform(-jitter, jitter) if jitter > 0 else 0.0)
            for offset in _NOISE_OFFSETS:
                v = mu + offset
                sym = int(round((v + 5.0) * scale)) if x_size > 1 else 0
                sym = min(max(sym, 0), x_size - 1)
                table[h, g, sym] += 1.0 / len(_NOISE_OFFSETS)
        conds.append(table)
    return JointModel(s, x_size, 1, prior, tuple(conds))


def table3_model(s: int = 4, target_corr: float = 0.2) -> JointModel:
    """The shifted-noise synthetic family on its native 11-symbol alphabet."""
    return generate_correlated_model(
        seed=0, s=s, x_size=11, target_corr=target_corr, jitter=0.0
    )


# -- file I/O ---------------------------------------------------------------


def save_model(model: JointModel, path) -> None:
    """Write ``model.to_dict()`` through ``channels.write_json``."""
    write_json(path, model.to_dict())


def load_model(path) -> JointModel:
    """The model in a file ``save_model`` wrote, read by ``channels.read_document``."""
    return read_document(path, JointModel.from_dict)
