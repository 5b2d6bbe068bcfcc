"""Pointwise nonlinearities with bias, and their equivariance checks."""

from dataclasses import dataclass

import numpy as np

from .numerics import check_tol
from .reps import is_permutation_rep

KINDS = ("relu", "tanh", "threshold", "sign_threshold")


@dataclass(frozen=True)
class ActivationSpec:
    """Scalar map applied coordinatewise.

    relu(t) = max(t, 0); tanh; threshold(theta)(t) = t - theta for
    t >= theta else 0; sign_threshold(theta)(t) = +1 for t >= theta
    else -1.
    """

    kind: str
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")

    def scalar(self, t, out=None):
        """Apply the scalar map elementwise to an array.

        ``out``, when given, receives the result and may be ``t`` itself.
        """
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "relu":
            return np.maximum(t, 0.0, out=out)
        if self.kind == "tanh":
            return np.tanh(t, out=out)
        above = t >= self.theta
        if out is None:
            out = np.empty_like(t)
        if self.kind == "threshold":
            np.subtract(t, self.theta, out=out)
            out[~above] = 0.0
        else:
            out.fill(-1.0)
            out[above] = 1.0
        return out

    def slope(self, h, out):
        """Elementwise derivative at t, read from the output h = scalar(t),
        written into ``out`` (which may be ``h`` itself).

        tanh: 1 - h^2; relu and threshold: 1 where h > 0 (which holds
        exactly where t > 0, resp. t > theta), else 0; sign_threshold: 0.
        Subgradients at kinks are 0.
        """
        if self.kind == "tanh":
            np.multiply(h, h, out=out)
            return np.subtract(1.0, out, out=out)
        if self.kind == "sign_threshold":
            out.fill(0.0)
            return out
        return np.greater(h, 0.0, out=out)

    def derivative(self, t):
        """Elementwise derivative (subgradient 0 at kinks)."""
        t = np.asarray(t, dtype=np.float64)
        h = self.scalar(t, out=np.empty_like(t))
        return self.slope(h, out=h)

    def __str__(self):
        if self.kind in ("relu", "tanh"):
            return self.kind
        return f"{self.kind}:{self.theta:.17g}"


def parse_activation(text):
    """Parse 'relu', 'tanh', 'threshold:3.0' or 'sign_threshold:3.0'.

    A threshold must be a finite number; anything else raises a
    ValueError naming ``text``.
    """
    kind, sep, theta = text.strip().partition(":")
    if kind not in KINDS:
        raise ValueError(f"unknown activation {text!r}")
    if kind in ("relu", "tanh"):
        if sep:
            raise ValueError(f"activation {kind!r} takes no threshold")
        return ActivationSpec(kind)
    if not sep:
        raise ValueError(f"activation {kind!r} needs a threshold, e.g. {kind}:3.0")
    try:
        value = float(theta)
    except ValueError:
        raise ValueError(f"activation {text!r} has a non-numeric threshold") from None
    if not np.isfinite(value):
        raise ValueError(f"activation {text!r} needs a finite threshold")
    return ActivationSpec(kind, value)


@dataclass
class Report:
    """Outcome of an equivariance check. ``coverage`` names what it
    covers: ``exhaustive (|G|)`` or ``sampled (m of |G|)`` elements, the
    ``generators (k of |G|)`` where a generator sweep failed, or an exact
    ``certificate (k generators)``."""

    passed: bool
    max_residual: float
    witness: tuple | None = None
    coverage: str | None = None


def apply_pointwise(spec, b, v):
    """sigma_b(v) = sigma(v + b), coordinatewise."""
    b = np.asarray(b, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if b.shape[-1] != v.shape[-1]:
        raise ValueError(f"length mismatch: bias {b.shape} vs input {v.shape}")
    return spec.scalar(v + b)


def check_pointwise_equivariance(spec, b, rep, trials=20, seed=0, tol=1e-9):
    """Check sigma_b(rho(g) v) = rho(g) sigma_b(v) on random vectors.

    Exhaustive over the group when |G| <= 5000, otherwise over
    ``trials`` sampled elements. Test vectors are seeded uniform in
    [-2, 4] so thresholds around 3.0 see both sides; residuals are
    absolute infinity norms. Returns a Report with the worst (g, v)
    witness on failure.
    """
    # network imports this module, so its verifier is imported here
    from .network import _check_on_vectors

    b = np.asarray(b, dtype=np.float64)
    if b.shape != (rep.degree,):
        raise ValueError(f"bias must have length {rep.degree}")
    return _check_on_vectors(
        lambda v: apply_pointwise(spec, b, v), rep, rep, (-2.0, 4.0), trials, seed,
        tol, relative=False,
    )


def is_compatible(spec, b, rep, tol=1e-9):
    """Certified-sufficient condition for pointwise equivariance.

    True iff the representation is a permutation representation and the
    finite bias is fixed by every generator: no generator moves it by
    more than ``tol`` (finite and non-negative). Sufficient, not
    necessary.
    """
    check_tol(tol, strict=False)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (rep.degree,) or not np.isfinite(b).all():
        return False
    if not is_permutation_rep(rep):
        return False
    for g in rep.gen_images:
        if np.abs(g @ b - b).max() > tol:
            return False
    return True
