import numpy as np

from equikit import kernels


def test_gram_schmidt_orthonormality():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((12, 40))
    q, kept = kernels.orthonormal_rows(v, 1e-12)
    assert kept == 12
    gram = q @ q.T
    assert np.abs(gram - np.eye(kept)).max() < 1e-12
