"""Executable toy tasks: center of mass, image decoloring/flips, and
antisymmetric (Slater-determinant) functions."""

from dataclasses import dataclass

import numpy as np

from .groups import group_from_spec
from .network import Dataset, check_map_equivariance
from .numerics import determinant
from .reps import defining_rep, parse_rep_spec


def com_dataset(m, samples, seed=0):
    """Flattened random point clouds paired with their centers of mass.

    Inputs are uniform in [-1, 1]; deterministic per seed. Each target is
    the mean of the row's m points by an exactly rounded sum per
    coordinate, bitwise ``math.fsum(points) / m``, with no call per row.
    numpy's uniform draw is -1 + 2u with u a multiple of 2^-53, so every
    input is an exact multiple of 2^-52 in [-1, 1]. Each input splits
    into hi, its nearest multiple of 2^-26, and lo = x - hi. For
    m < 2^26 the m values of either part sum exactly in any order, so
    adding the two sums rounds the exact sum once, as fsum does.
    """
    if m < 1 or samples < 1:
        raise ValueError("m and samples must be >= 1")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(samples, 3 * m))
    points = inputs.reshape(samples, m, 3)
    hi = np.round(points * 2.0 ** 26) * 2.0 ** -26
    lo = points - hi
    return Dataset(inputs, (hi.sum(axis=1) + lo.sum(axis=1)) / m)


@dataclass
class GridImage:
    """N x N RGB image; values in [0, 255], shape (N, N, 3)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.n, self.n, 3):
            raise ValueError(
                f"expected values of shape ({self.n}, {self.n}, 3), "
                f"got {self.values.shape}"
            )


def random_image(n, seed=0):
    """Seeded random image with integer channel values in [0, 255]."""
    rng = np.random.default_rng(seed)
    return GridImage(n, rng.integers(0, 256, size=(n, n, 3)).astype(np.float64))


def decolor(img):
    """Map every pixel to pitch black iff r=g=b=0, else pure white."""
    nonzero = (img.values != 0.0).any(axis=2)
    out = np.zeros_like(img.values)
    out[nonzero] = 255.0
    return GridImage(img.n, out)


def flip(img, axis):
    """Reverse the row order (top_bottom) or column order (left_right)."""
    if axis == "top_bottom":
        return GridImage(img.n, img.values[::-1].copy())
    if axis == "left_right":
        return GridImage(img.n, img.values[:, ::-1].copy())
    raise ValueError(f"axis must be 'top_bottom' or 'left_right', got {axis!r}")


def write_image(img, fh):
    """Text format: header 'N 3', then N*N lines of three integers."""
    fh.write(f"{img.n} 3\n")
    for r in range(img.n):
        for c in range(img.n):
            px = img.values[r, c]
            fh.write(f"{int(px[0])} {int(px[1])} {int(px[2])}\n")


def read_image(fh):
    """Read an 'N 3' header, N a positive integer, then N*N pixel lines
    of three values each. The pixels are read before the array is built,
    so a header naming more pixels than the file holds fails early."""
    header = fh.readline().split()
    valid = len(header) == 2 and header[1] == "3" and header[0].isdecimal()
    n = int(header[0]) if valid else 0
    if n < 1:
        raise ValueError(f"image header must be 'N 3' with N a positive integer, "
                         f"got {' '.join(header)!r}")
    pixels = []
    for r in range(n):
        for c in range(n):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValueError(f"pixel ({r}, {c}): expected three values")
            for v in parts:
                try:
                    pixels.append(float(v))
                except ValueError:
                    raise ValueError(f"pixel ({r}, {c}): {v!r} is not a number") from None
    return GridImage(n, np.array(pixels).reshape(n, n, 3))


def slater_det(feature_matrix):
    """Determinant of M[i][j] = phi_j(v_i), via pivoted elimination."""
    return float(determinant(feature_matrix))


def monomial_features(points, direction):
    """Feature matrix M[i][j] = (v_i . u)^j for j = 0..m-1."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    proj = points @ np.asarray(direction, dtype=np.float64)
    return proj[:, None] ** np.arange(m)[None, :]


def slater_wavefunction(dim=3, seed=0):
    """Antisymmetric function of m points: det of seeded monomial features."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.sqrt(u @ u)

    def f(points):
        return slater_det(monomial_features(points, u))

    return f


def check_antisymmetry(f, m, dim=3, trials=10, seed=0, tol=1e-10):
    """Exhaustively test f(pi v) = sign(pi) f(v) over all of S_m.

    ``f`` maps an (m, dim) array to a scalar. This is the map check of
    ``symmetric:m`` from ``tensor:dim(defining)`` (the points, flattened
    row by row) to ``sign``. Limited to m <= 6 (720 permutations);
    inputs are seeded uniform in [-1, 1] and residuals are normalized by
    1 + |f(v)|. The witness on failure is ``(perm, points)``, with
    ``f(points[list(perm)])`` deviating most.
    """
    if m > 6:
        raise ValueError("exhaustive antisymmetry check is limited to m <= 6")
    group = group_from_spec(f"symmetric:{m}")
    report = check_map_equivariance(
        lambda batch: np.array([[f(v.reshape(m, dim))] for v in batch]),
        parse_rep_spec(group, f"tensor:{dim}(defining)"),
        parse_rep_spec(group, "sign"),
        trials=trials, seed=seed, tol=tol,
    )
    if report.witness is not None:
        g, v = report.witness
        # g sends e_j to e_targets[j]: row i has its 1 in column argsort(targets)[i]
        perm = tuple(int(i) for i in np.argsort(defining_rep(group).targets[g]))
        report.witness = (perm, v.reshape(m, dim))
    return report
