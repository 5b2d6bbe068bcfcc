"""equikit: build and verify equivariant feed-forward networks over
finite matrix groups."""

from .activations import (
    ActivationSpec,
    Report,
    apply_pointwise,
    check_pointwise_equivariance,
    is_compatible,
    parse_activation,
)
from .groups import FiniteGroup, ClosureError, close, group_from_spec, named_group
from .intertwiners import IntertwinerBasis, hom_dim_oracle, solve_basis
from .network import (
    Dataset,
    DivergenceError,
    EquivariantNetwork,
    build,
    check_map_equivariance,
    check_stack_equivariance,
    load_model,
    save_model,
)
from .numerics import determinant, matrix_rank, nullspace, orthonormalize
from .reps import (
    Representation,
    defining_rep,
    direct_sum,
    extend,
    fixed_subspace,
    is_permutation_rep,
    parse_rep_chain,
    parse_rep_spec,
    permutation_rep,
    sign_rep,
    tensor_identity,
    trivial_rep,
)
from .structured import bttb, circulant, circulant_basis, param_count, toeplitz

__version__ = "0.1.0"

__all__ = [
    "ActivationSpec",
    "ClosureError",
    "Dataset",
    "DivergenceError",
    "EquivariantNetwork",
    "FiniteGroup",
    "IntertwinerBasis",
    "Report",
    "Representation",
    "apply_pointwise",
    "bttb",
    "build",
    "check_map_equivariance",
    "check_pointwise_equivariance",
    "check_stack_equivariance",
    "circulant",
    "circulant_basis",
    "close",
    "defining_rep",
    "determinant",
    "direct_sum",
    "extend",
    "fixed_subspace",
    "group_from_spec",
    "hom_dim_oracle",
    "is_compatible",
    "is_permutation_rep",
    "load_model",
    "matrix_rank",
    "named_group",
    "nullspace",
    "orthonormalize",
    "param_count",
    "parse_activation",
    "parse_rep_chain",
    "parse_rep_spec",
    "permutation_rep",
    "save_model",
    "sign_rep",
    "solve_basis",
    "tensor_identity",
    "toeplitz",
    "trivial_rep",
]
