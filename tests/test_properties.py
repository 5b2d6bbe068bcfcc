"""Property tests over random small groups and representations.

Groups are closures of random permutation and signed-permutation
generator sets of degree <= 4; representations come from the spec
language. The signed-permutation paths of the solver, the closure and
the extension are compared bitwise with their dense oracles, and spec
reps composed from a named group's index arrays with the extension of
their generator images. Rotation groups through cos/sin exercise the
dense closure itself. Examples are derandomized so the suite is
reproducible. The check's exact certificate is compared with dense
products of the generator images and with the per-element check. On
symmetric groups, solver dimensions are compared with a class-sum
oracle that enumerates nothing, up to symmetric:20.
"""

import functools
import itertools
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from helpers import (
    _affine_rows,
    add_at_project,
    cayley_outcome,
    class_dim_oracle,
    first_failing_relator,
    orbit_nullspace,
    permutation_matrix,
    reference_check,
    spec_images,
    word_products,
    words,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equikit import groups, intertwiners, network, reps
from equikit.activations import ActivationSpec
from equikit.groups import close
from equikit.intertwiners import hom_dim_oracle, solve_basis
from equikit.numerics import nullspace, signed_permutation_matrices, signed_permutations
from equikit.reps import (
    InconsistentImagesError,
    Representation,
    defining_rep,
    direct_sum,
    extend,
    parse_rep_spec,
    tensor_identity,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


@st.composite
def generator_sets(draw):
    """(generator matrices, their underlying permutations)."""
    n = draw(st.integers(1, 4))
    signed = draw(st.booleans())
    count = draw(st.integers(1, 3))
    gens, perms = [], []
    for _ in range(count):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]) if signed else st.just(1.0),
                              min_size=n, max_size=n))
        gens.append(permutation_matrix(perm) @ np.diag(signs))
        perms.append(perm)
    return gens, perms


def rep_specs(perms):
    """Spec strings of degree <= 8; ``perm:`` replays the generators'
    underlying permutations, which a signed permutation maps to
    homomorphically."""
    perm_spec = "perm:" + "|".join(",".join(str(i) for i in p) for p in perms)
    leaves = st.sampled_from(["defining", "sign", "trivial:1", "trivial:2", perm_spec])
    return st.one_of(
        leaves,
        leaves.map(lambda s: f"tensor:2({s})"),
        st.lists(leaves, min_size=2, max_size=2).map(lambda p: "sum(" + ";".join(p) + ")"),
    )


@st.composite
def rep_pairs(draw):
    gens, perms = draw(generator_sets())
    group = close(gens)
    spec_in = draw(rep_specs(perms))
    spec_out = draw(rep_specs(perms))
    return parse_rep_spec(group, spec_in), parse_rep_spec(group, spec_out)


@PROPERTY_SETTINGS
@given(rep_pairs())
def test_solver_dimension_matches_character_oracle(pair):
    rep_in, rep_out = pair
    assert solve_basis(rep_in, rep_out).dim == hom_dim_oracle(rep_in, rep_out)


@PROPERTY_SETTINGS
@given(rep_pairs())
def test_basis_commutes_with_every_generator(pair):
    rep_in, rep_out = pair
    basis = solve_basis(rep_in, rep_out).basis
    for g_in, g_out in zip(rep_in.gen_images, rep_out.gen_images):
        for b in basis:
            assert np.abs(b @ g_in - g_out @ b).max() <= 1e-10


@PROPERTY_SETTINGS
@given(rep_pairs())
def test_rep_spec_round_trips(pair):
    for rep in pair:
        again = parse_rep_spec(rep.group, rep.spec)
        assert again.spec == rep.spec
        assert np.array_equal(again.images, rep.images)


@PROPERTY_SETTINGS
@given(rep_pairs())
def test_orbit_basis_is_bitwise_the_dense_basis(pair):
    # every rep drawn here has signed permutation generator images, so
    # solve_basis takes the union-find orbit path; the dense nullspace,
    # whose zeros are all +0.0, is the oracle
    rep_in, rep_out = pair
    basis = solve_basis(rep_in, rep_out).basis
    ns = nullspace(intertwiners._constraint_stack(rep_in, rep_out))
    assert not np.signbit(ns[ns == 0.0]).any()
    dense = ns.T.reshape(ns.shape[1], rep_out.degree, rep_in.degree)
    assert basis.shape == dense.shape
    assert basis.strides == dense.strides
    assert basis.tobytes() == dense.tobytes()


@PROPERTY_SETTINGS
@given(generator_sets(), st.booleans(), st.data())
def test_signed_closure_and_extension_are_bitwise_dense(drawn, negative_zeros, data):
    gens, perms = drawn
    if negative_zeros:
        gens = [np.where(g == 0.0, -0.0, g) for g in gens]
    assert signed_permutations(np.stack(gens)) is not None
    group = close(gens)
    dense = groups._close_dense(gens)
    assert (reps.defining_rep(group).images.tobytes()
            == reps.defining_rep(dense).images.tobytes())
    assert words(group) == words(dense)
    assert group.cayley.tobytes() == dense.cayley.tobytes()
    assert group.parents.tobytes() == dense.parents.tobytes()
    rep = parse_rep_spec(group, data.draw(rep_specs(perms)))
    images = reps._extend_dense(group, rep.gen_images)
    assert rep.images.tobytes() == images.tobytes()


@PROPERTY_SETTINGS
@given(generator_sets())
def test_perm_leaf_arrays_are_bitwise_the_dense_route(drawn):
    # a perm: leaf's index arrays are bitwise the signed reading of its
    # dense permutation matrices, and so are its walked element arrays
    gens, perms = drawn
    group = close(gens)
    rep = parse_rep_spec(group, "perm:" + "|".join(",".join(map(str, p)) for p in perms))
    matrices = [permutation_matrix(p) for p in perms]
    dense = extend(group, matrices)
    for got, want in [*zip(rep.gen_arrays, signed_permutations(np.stack(matrices))),
                      (rep.targets, dense.targets), (rep.signs, dense.signs)]:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@st.composite
def rotation_steps(draw):
    """(n, k) with 2 <= n <= 12 and k coprime to n: R(2 pi k / n) has order n."""
    n = draw(st.integers(2, 12))
    k = draw(st.sampled_from([k for k in range(1, n) if math.gcd(k, n) == 1]))
    return n, k


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


@PROPERTY_SETTINGS
@given(rotation_steps(), st.booleans())
def test_dense_closure_of_rotations_has_cyclic_or_dihedral_order(step, reflect):
    n, k = step
    gens = [rotation(2 * np.pi * k / n)]
    if reflect:
        gens.append(np.diag([1.0, -1.0]))
    # cos/sin leave 1e-16 residues where exact zeros belong, so the
    # rotation is not an exact signed permutation: the dense path runs
    assert signed_permutations(np.stack(gens)) is None
    group = close(gens)
    assert group.gen_arrays is None
    assert group.order == (2 * n if reflect else n)
    rep = extend(group, gens)
    assert rep.images.shape == (group.order, 2, 2)


# --- the walk and the replay against products along each word --------------


def extend_outcome(group, gen_images):
    try:
        return extend(group, gen_images).images.tobytes()
    except InconsistentImagesError as err:
        return "inconsistent", err.element, err.generator, err.residual


def assert_walk_is_the_word_products(rep, data):
    """The rep's images and its group's defining rep's element data are
    the products along the words, bitwise, and ``extend`` of one
    perturbed generator image (an entry nudged off the signed path, or a
    column negated on it) fails where the plain loop does, with the same
    residual."""
    group, gen_images = rep.group, rep.gen_images
    assert rep.images.tobytes() == word_products(group, gen_images).tobytes()
    defining = reps.defining_rep(group)
    if group.gen_arrays is None:
        assert defining.images.tobytes() == word_products(group, group.generators).tobytes()
    else:
        products = word_products(group, signed_permutation_matrices(*group.gen_arrays))
        targets, signs = signed_permutations(products)
        assert np.array_equal(defining.targets, targets)
        assert np.array_equal(defining.signs, signs)
        assert defining.images.tobytes() == products.tobytes()
    perturbed = gen_images.copy()
    gi = data.draw(st.integers(0, group.gen_count - 1))
    col = data.draw(st.integers(0, rep.degree - 1))
    if data.draw(st.booleans()):
        perturbed[gi, col, col] += 1e-3
    else:
        perturbed[gi, :, col] *= -1.0
        perturbed += 0.0  # the negated zeros back to +0.0
    assert extend_outcome(group, perturbed) == cayley_outcome(group, perturbed)


@PROPERTY_SETTINGS
@given(generator_sets(), st.data())
def test_walked_images_are_the_word_products(drawn, data):
    gens, perms = drawn
    group = close(gens)
    assert_walk_is_the_word_products(parse_rep_spec(group, data.draw(rep_specs(perms))), data)


@PROPERTY_SETTINGS
@given(rotation_steps(), st.data())
def test_walked_rotation_images_are_the_word_products(step, data):
    n, k = step
    gens = [rotation(2 * np.pi * k / n), np.diag([1.0, -1.0])]
    rep = extend(close(gens), gens)
    assert rep.targets is None
    assert_walk_is_the_word_products(rep, data)


# --- spec reps composed from index arrays against the extension ------------

COMPOSED_GROUPS = [f"symmetric:{m}" for m in range(1, 6)] + [
    f"{kind}:{n}" for kind in ("cyclic", "torus", "p4", "p4m") for n in (1, 2, 3, 4, 8)
]


@functools.lru_cache(maxsize=None)
def named(spec):
    return groups.group_from_spec(spec)


def perm_leaves(group):
    """``perm:`` specs for a signed permutation group: its generators'
    underlying permutations with the points reversed, the action of the
    determinant on two points, and every generator to one transposition
    (a homomorphism on some groups, not on others)."""
    n = group.dim
    flip = np.arange(n)[::-1]
    gen_targets = reps.defining_rep(group).targets[group.cayley[0]]
    dets = np.linalg.det(group.generators)

    def spec(perms):
        return "perm:" + "|".join(",".join(str(i) for i in p) for p in perms)

    return [
        spec([flip[t[flip]] for t in gen_targets]),
        spec([[1, 0] if d < 0 else [0, 1] for d in dets]),
        spec([[1, 0, 2]] * group.gen_count),
    ]


def spec_trees(group):
    leaves = st.sampled_from(["defining", "sign", "trivial:0", "trivial:1", "trivial:2"]
                             + perm_leaves(group))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.integers(1, 2), inner).map(lambda t: f"tensor:{t[0]}({t[1]})"),
        st.lists(inner, min_size=1, max_size=3).map(lambda p: "sum(" + ";".join(p) + ")"),
    ), max_leaves=4)


def arrays_outcome(build):
    """A built rep's index arrays and generators' index arrays (with
    dtypes) and generator-image bytes, or the error it raised. The
    generators' arrays are checked against every element's at the
    generators and against the reading of the generator images."""
    try:
        rep = build()
    except InconsistentImagesError as err:
        return "inconsistent", err.element, err.generator, err.residual
    except ValueError as err:
        return "invalid", str(err)
    gen_targets, gen_signs = rep.gen_arrays
    at_gens = rep.group.cayley[0]
    assert np.array_equal(gen_targets, rep.targets[at_gens])
    assert np.array_equal(gen_signs, rep.signs[at_gens])
    read_targets, read_signs = signed_permutations(rep.gen_images)
    assert np.array_equal(gen_targets, read_targets) and np.array_equal(gen_signs, read_signs)
    return (rep.degree, rep.spec, rep.targets.dtype, rep.targets.shape, rep.targets.tobytes(),
            rep.signs.dtype, rep.signs.shape, rep.signs.tobytes(),
            gen_targets.dtype, gen_targets.shape, gen_targets.tobytes(),
            gen_signs.dtype, gen_signs.shape, gen_signs.tobytes(), rep.gen_images.dtype,
            rep.gen_images.shape, rep.gen_images.tobytes())


@pytest.mark.parametrize("group_spec", COMPOSED_GROUPS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_composed_spec_rep_is_bitwise_the_extension(group_spec, data):
    group = named(group_spec)
    spec = data.draw(spec_trees(group))
    node = reps._parse_spec(group, spec, 0)[1]
    composed = arrays_outcome(lambda: parse_rep_spec(group, spec))
    assert composed == arrays_outcome(
        lambda: extend(group, spec_images(group, node), spec=spec)), spec
    if composed[0] in ("inconsistent", "invalid"):
        return
    rep = parse_rep_spec(group, spec)
    lifted = arrays_outcome(lambda: tensor_identity(rep, 2))
    assert lifted == arrays_outcome(
        lambda: extend(group, reps._tensor_images(rep.gen_images, 2), spec=f"tensor:2({spec})"))
    parts = [rep, defining_rep(group)]
    summed = arrays_outcome(lambda: direct_sum(parts))
    assert summed == arrays_outcome(lambda: extend(
        group, reps._sum_images([r.gen_images for r in parts]), spec=f"sum({spec};defining)"))


# --- orbit-form bases against the dense orbit oracle ----------------------

ORBIT_GROUPS = ["cyclic:5", "symmetric:3", "symmetric:4", "torus:3", "p4:2", "p4:3",
                "p4m:2", "p4m:3"]


def relabelled_leaf(group, relabel):
    """``perm:`` spec of the group's defining permutation rep with its
    points renamed by ``relabel``: q[relabel[j]] = relabel[t[j]]."""
    targets = group.gen_arrays[0]
    maps = np.empty_like(targets)
    maps[:, relabel] = relabel[targets]
    return "perm:" + "|".join(",".join(map(str, m)) for m in maps.tolist())


@st.composite
def signed_chains(draw):
    """A pair of spec reps of a named group built from relabelled
    ``perm:`` leaves, ``sum(...;sign)``, ``tensor:d(...)`` and sums, at
    most 1600 index pairs; a sign part against a permutation part gives
    orbits with odd sign cycles, which the solve zeroes."""
    group = named(draw(st.sampled_from(ORBIT_GROUPS)))
    relabel = np.array(draw(st.permutations(range(group.dim))))
    leaves = st.sampled_from(["defining", "sign", "trivial:1", "trivial:2",
                              relabelled_leaf(group, relabel)])
    specs = st.recursive(leaves, lambda inner: st.one_of(
        inner.map(lambda s: f"sum({s};sign)"),
        st.tuples(st.integers(2, 3), inner).map(lambda t: f"tensor:{t[0]}({t[1]})"),
        st.lists(inner, min_size=2, max_size=3).map(lambda p: "sum(" + ";".join(p) + ")"),
    ), max_leaves=3)
    rep_in, rep_out = (parse_rep_spec(group, draw(specs)) for _ in range(2))
    assume(rep_in.degree * rep_out.degree <= 1600)
    return rep_in, rep_out


def spec_chain(group_spec, spec_in, spec_out):
    group = named(group_spec)
    return parse_rep_spec(group, spec_in), parse_rep_spec(group, spec_out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(signed_chains(), st.integers(0, 2 ** 32 - 1))
# long signed cycles: cyclic:256's generator is one 256-cycle on the
# defining points, with sign -1 on the sign coordinate
@example(spec_chain("cyclic:256", "sum(defining;sign)", "sum(defining;sign)"), 0)
@example(spec_chain("cyclic:256", "sum(defining;sign)", "sign"), 1)
def test_orbit_form_is_bitwise_the_orbit_oracle(chain, seed):
    # the dense view scattered from the orbit form is the oracle's basis,
    # memory layout included, and realize (a gather) is bitwise the dot
    # product with its rows, zero and negative-zero coefficients included,
    # with every zero +0.0: a 1 x 1 basis's dot is a bare product, which
    # keeps -0.0, where every longer sum gives +0.0
    rep_in, rep_out = chain
    basis = solve_basis(rep_in, rep_out)
    shape = (rep_out.degree, rep_in.degree)
    rng = np.random.default_rng(seed)
    dim = basis.dim
    trials = [rng.standard_normal(dim), np.where(rng.random(dim) < 0.5, 0.0, -rng.random(dim)),
              np.full(dim, -0.0)]
    realized = [basis.realize(c) for c in trials]  # before the dense view exists
    ns = orbit_nullspace(rep_in.gen_arrays, rep_out.gen_arrays)
    dense = ns.T.reshape(ns.shape[1], *shape)
    assert (dim, basis.basis.shape, basis.basis.strides) == (
        dense.shape[0], dense.shape, dense.strides)
    assert basis.basis.tobytes() == dense.tobytes()
    for c, got in zip(trials, realized):
        assert got.tobytes() == (np.dot(c, ns.T).reshape(shape) + 0.0).tobytes()


def hidden_layer_basis(basis):
    """The ``[W | b]`` basis a network gives ``basis`` as its hidden layer
    (``EquivariantNetwork.layer_bases``), ahead of a trivial:1 layer."""
    rep_out = basis.rep_out
    last = parse_rep_spec(rep_out.group, "trivial:1")
    bases = [basis, solve_basis(rep_out, last)]
    net = network.EquivariantNetwork(rep_out.group, [basis.rep_in, rep_out, last], bases,
                                     np.zeros(basis.dim + 1 + bases[1].dim), TANH)
    return net.layer_bases[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(signed_chains(), st.integers(0, 2 ** 32 - 1))
@example(spec_chain("cyclic:256", "sum(defining;sign)", "sum(defining;sign)"), 0)
@example(spec_chain("symmetric:5", "tensor:3(sum(defining;sign))", "sign"), 1)
def test_hidden_layer_fill_is_bitwise_the_affine_rows_product(chain, seed):
    # a hidden layer's [W | b], realized through its per-entry terms, is
    # the dot product of its coefficients with the dense affine rows bit
    # for bit, zeroed orbits and zero and negative-zero coefficients included
    basis = solve_basis(*chain)
    affine = hidden_layer_basis(basis)
    rows = _affine_rows(basis, True)
    rng = np.random.default_rng(seed)
    dim = affine.dim
    for c in [rng.standard_normal(dim), np.where(rng.random(dim) < 0.5, 0.0, -rng.random(dim)),
              np.full(dim, -0.0)]:
        got = affine.realize(c)
        assert got.shape == (basis.rep_out.degree, basis.rep_in.degree + 1)
        assert got.tobytes() == np.dot(c, rows).reshape(got.shape).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(signed_chains(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(spec_chain("p4m:3", "defining", "sum(defining;sign)"), True, 0)
@example(spec_chain("symmetric:4", "sum(defining;sign)", "tensor:2(defining)"), True, 1)
def test_project_is_the_adjoint_of_realize(chain, dense, seed):
    # on orbit-form and dense-path bases, and on their hidden-layer
    # [W | b] forms: <realize(c), a> = <c, project(a)> within rounding,
    # and project is np.add.at over the dense rows in entry order, bit for bit
    if dense:  # hand-built reps carry no index arrays, so they take the dense solve
        assume(chain[0].degree * chain[1].degree <= 256)
        chain = [Representation(r.group, r.degree, r.gen_images.copy()) for r in chain]
    basis = solve_basis(*chain)
    assert basis.terms[0].shape[1] == (basis.dim if dense else 1)
    rng = np.random.default_rng(seed)
    for b, rows in [(basis, _affine_rows(basis, False)),
                    (hidden_layer_basis(basis), _affine_rows(basis, True))]:
        c = rng.standard_normal(b.dim)
        a = rng.standard_normal((b.rep_out.degree, b.rep_in.degree))
        got = b.project(a)
        assert got.tobytes() == add_at_project(rows, a).tobytes()
        lhs, rhs = np.vdot(b.realize(c), a), np.dot(c, got)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(c).sum() * np.abs(a).sum())


@pytest.mark.parametrize("group_spec, spec_in, spec_out", [
    ("symmetric:3", "sum(defining;sign)", "tensor:2(defining)"),
    ("symmetric:4", "sign", "sum(defining;sign)"),
    ("p4m:3", "sum(defining;sign)", "sum(sign;trivial:2)"),
    ("symmetric:6", "tensor:3(sum(defining;sign))", "tensor:3(sum(defining;sign))"),
    ("p4m:10", "sum(defining;sign)", "sum(defining;sign)"),  # degree 101
])
def test_zeroed_orbits_match_the_orbit_oracle(group_spec, spec_in, spec_out):
    # chains with odd-sign-cycle orbits: their pairs get id dim (the
    # appended 0.0) and value 0, and are zero rows of the oracle
    group = named(group_spec)
    rep_in, rep_out = parse_rep_spec(group, spec_in), parse_rep_spec(group, spec_out)
    basis = solve_basis(rep_in, rep_out)
    ids, values = (t[:, 0] for t in basis.terms)
    zeroed = ids == basis.dim
    ns = orbit_nullspace(rep_in.gen_arrays, rep_out.gen_arrays)
    assert zeroed.any()
    assert not values[zeroed].any()
    assert np.array_equal(zeroed, ~ns.any(axis=1))
    assert basis.basis.tobytes() == ns.T.tobytes(order="C")
    assert basis.dim == hom_dim_oracle(rep_in, rep_out)


# --- the relator test against the replay ---------------------------------

HOMOMORPHISM_GROUPS = [f"{kind}:{n}" for kind in ("cyclic", "symmetric", "torus", "p4", "p4m")
                       for n in range(1, 6)]


@st.composite
def generator_image_arrays(draw, group):
    """(targets, signs) images of a named group's generators: its own
    maps with the points relabelled, random permutations, the relabelled
    maps with two entries of one image swapped, the maps beside a
    trivial block of up to three points with all points relabelled, or
    the relabelled maps with random signs or each image's signs its
    generator's determinant."""
    targets = group.gen_arrays[0]
    n = group.dim
    sigma = np.array(draw(st.permutations(range(n))))
    relabelled = np.empty_like(targets)
    relabelled[:, sigma] = sigma[targets]
    kind = draw(st.sampled_from(["relabelled", "random", "swapped", "trivial block", "signed"]))
    if kind == "random":
        relabelled = np.array([draw(st.permutations(range(n))) for _ in targets])
    elif kind == "swapped" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        row = relabelled[draw(st.integers(0, len(targets) - 1))]
        row[[i, j]] = row[[j, i]]
    elif kind == "trivial block":
        k = draw(st.integers(1, 3))
        summed = np.concatenate([targets, np.broadcast_to(np.arange(n, n + k), (len(targets), k))],
                                axis=1)
        tau = np.array(draw(st.permutations(range(summed.shape[1]))))
        relabelled = np.empty_like(summed)
        relabelled[:, tau] = tau[summed]
    signs = np.ones(relabelled.shape, dtype=np.int8)
    if kind == "signed":
        signs = (np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=signs.size,
                                         max_size=signs.size)), dtype=np.int8).reshape(signs.shape)
                 if draw(st.booleans()) else signs * reps._determinants(group)[:, None])
    return relabelled, signs


def _built(group, targets, signs):
    """The images' bytes when the public constructor for them
    (``permutation_rep`` when every sign is +1, else ``extend``) accepts
    them, else what it raises: the replay's (element, generator,
    residual), or the relator message."""
    images = signed_permutation_matrices(targets, signs)
    try:
        return (reps.permutation_rep(group, targets.tolist()) if (signs == 1).all()
                else extend(group, images)).images.tobytes()
    except InconsistentImagesError as err:
        return "inconsistent", err.element, err.generator, err.residual
    except ValueError as err:
        return str(err)


def assert_homomorphism_test_is_the_replay(group, targets, signs):
    """The relators of a named group accept exactly the images that the
    replay does, and ``groups._failing_relator`` names the relator that
    ``first_failing_relator`` finds first by dense matmul. The public
    constructor builds what the plain cayley-table loop does, or raises
    naming that relator; on a ``close``-built copy of the group, which
    has no relators, it raises what the loop finds."""
    try:
        reps._replay(group, groups._element_steps((targets, signs)))
        consistent = True
    except InconsistentImagesError:
        consistent = False
    images = signed_permutation_matrices(targets, signs)
    relator = first_failing_relator(group, images)
    assert (relator is None) == consistent
    assert groups._failing_relator(group, (targets, signs)) == relator
    outcome = cayley_outcome(group, images)
    assert _built(group, targets, signs) == (
        outcome if consistent else
        f"generator images are inconsistent: they fail the defining relator {relator} "
        f"of {group.spec}")
    assert _built(close(list(group.generators)), targets, signs) == outcome


@pytest.mark.parametrize("group_spec", HOMOMORPHISM_GROUPS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_homomorphism_test_is_the_replay(group_spec, data):
    group = named(group_spec)
    assert_homomorphism_test_is_the_replay(group, *data.draw(generator_image_arrays(group)))


def _enumerated(*args, **kwargs):
    raise AssertionError("a named group's images were checked by enumerating it")


@pytest.mark.parametrize("group_spec", HOMOMORPHISM_GROUPS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_named_group_verdicts_enumerate_nothing(group_spec, data):
    # with the BFS and the replay made to raise, the public constructors
    # still accept the images the relators accept (by dense matmul) and
    # reject the others naming the first relator they fail
    group = named(group_spec)
    targets, signs = data.draw(generator_image_arrays(group))
    relator = first_failing_relator(group, signed_permutation_matrices(targets, signs))
    with mock.patch.object(groups, "_bfs", _enumerated), \
            mock.patch.object(reps, "_replay", _enumerated):
        try:
            rep = (reps.permutation_rep(group, targets.tolist()) if (signs == 1).all()
                   else extend(group, signed_permutation_matrices(targets, signs)))
        except ValueError as err:
            assert relator is not None
            assert str(err) == ("generator images are inconsistent: they fail the defining "
                                f"relator {relator} of {group_spec}")
        else:
            assert relator is None
            assert rep.gen_arrays[0].tolist() == targets.tolist()
            assert rep.gen_arrays[1].tolist() == signs.tolist()


# every kind at sizes 1-4 into S_3, and S_4 and S_5 into S_4
EXHAUSTIVE_GROUPS = [(f"{kind}:{n}", 3) for kind in ("cyclic", "symmetric", "torus", "p4", "p4m")
                     for n in range(1, 5)] + [("symmetric:4", 4), ("symmetric:5", 4)]


@pytest.mark.parametrize("group_spec, degree", EXHAUSTIVE_GROUPS)
def test_relators_decide_every_generator_tuple_as_the_replay(group_spec, degree):
    # every tuple of generator images into S_degree, or into the signed
    # permutations of degree 3 for a group of one or two generators: the
    # relators accept exactly the tuples the plain cayley-table loop does
    group = named(group_spec)
    signs = [(1,) * degree]
    if degree == 3 and group.gen_count <= 2:
        signs = list(itertools.product((1, -1), repeat=degree))
    pairs = list(itertools.product(itertools.permutations(range(degree)), signs))
    targets = np.array([t for t, _ in pairs])
    signs = np.array([s for _, s in pairs], np.int8)
    matrices = signed_permutation_matrices(targets, signs)
    accepted = 0
    for images in itertools.product(range(len(pairs)), repeat=group.gen_count):
        images = list(images)
        verdict = groups._failing_relator(group, (targets[images], signs[images])) is None
        assert verdict == isinstance(cayley_outcome(group, matrices[images]), bytes), images
        accepted += verdict
    assert 0 < accepted < len(pairs) ** group.gen_count


# p4m:2's reflection is the identity of the 2 x 2 grid, and cyclic:1's
# one generator is the identity: each must map to the identity
@pytest.mark.parametrize("group_spec, maps, signs", [
    ("p4m:2", [[2, 3, 0, 1], [1, 0, 3, 2], [0, 2, 1, 3], [0, 1, 2, 3]], None),
    ("p4m:2", [[2, 3, 0, 1], [1, 0, 3, 2], [0, 2, 1, 3], [1, 0, 2, 3]], None),
    ("p4m:2", [[0], [0], [0], [0]], [[1], [1], [-1], [-1]]),
    ("p4m:2", [[0], [0], [0], [0]], [[1], [1], [-1], [1]]),
    ("cyclic:1", [[0]], None),
    ("cyclic:1", [[1, 0]], None),
    ("cyclic:1", [[0]], [[-1]]),
])
def test_identity_generators_must_map_to_the_identity(group_spec, maps, signs):
    maps = np.array(maps)
    signs = np.ones(maps.shape, np.int8) if signs is None else np.array(signs, np.int8)
    assert_homomorphism_test_is_the_replay(named(group_spec), maps, signs)


# --- the check's certificate against the dense oracle ------------------------

CERTIFIED_GROUPS = [f"{kind}:{n}" for kind in ("symmetric", "cyclic") for n in (1, 3, 4)] + [
    f"{kind}:{n}" for kind in ("torus", "p4", "p4m") for n in (2, 3, 4)
]
END_SPECS = ["defining", "tensor:2(defining)", "sum(defining;sign)", "trivial:1", "trivial:3"]
HIDDEN_SPECS = ["defining", "tensor:2(defining)", "trivial:2"]  # permutation reps
TANH = ActivationSpec("tanh")


@st.composite
def built_nets(draw, group):
    """A seeded build of a random chain, with random hidden biases."""
    specs = ([draw(st.sampled_from(END_SPECS))]
             + draw(st.lists(st.sampled_from(HIDDEN_SPECS), max_size=1))
             + [draw(st.sampled_from(END_SPECS))])
    chain = reps.parse_rep_chain(group, specs)
    assume(all(hom_dim_oracle(a, b) for a, b in zip(chain, chain[1:])))
    seed = draw(st.integers(0, 2 ** 16))
    net = network.build(group, chain, TANH, seed=seed)
    rng = np.random.default_rng(seed)
    for span in net.spans[:-1]:
        net.coeffs[span.stop - 1] = rng.standard_normal()
    return net


@st.composite
def built_stacks(draw, group):
    """(layers, chain) of ``built_nets``."""
    net = draw(built_nets(group))
    return net.layers(), net.layer_reps


def layer_input_images(a, rep):
    """The dense generator images of the rep a layer ``a`` maps from:
    rho's, or for ``[W | b]`` rho's with one coordinate fixed below (the
    ones row)."""
    n = rep.degree
    if a.shape[1] == n:
        return rep.gen_images
    images = np.zeros((len(rep.gen_images), n + 1, n + 1))
    images[:, :n, :n] = rep.gen_images
    images[:, n, n] = 1.0
    return images


def assert_certificate_is_the_oracle(layers, chain):
    """The certificate, per layer and generator, against dense products;
    the verdict against the per-element check; a generator witness
    against the dense images. Returns the certificate."""
    group = chain[0].group
    for a, rep_in, rep_out in zip(layers, chain, chain[1:]):
        dense = [np.array_equal(a @ x, y @ a)
                 for x, y in zip(layer_input_images(a, rep_in), rep_out.gen_images)]
        assert network._commutes_at_generators(a, rep_in, rep_out).tolist() == dense
    certified = network._certified(layers, chain)

    def apply(x):
        return network.stack_forward(layers, TANH, x)

    reference = reference_check(apply, chain[0], chain[-1], (-1.0, 1.0), 8, 0, 1e-8, True)
    if certified:
        assert reference.passed
    report = network.check_stack_equivariance(layers, TANH, chain)
    assert report.passed == reference.passed
    if report.coverage.startswith("generators"):
        assert report.coverage == f"generators ({group.gen_count} of {group.order})"
        g, v = report.witness
        assert g in group.cayley[0]
        fv = apply(v)
        residual = np.abs(apply(chain[0].images[g] @ v) - chain[-1].images[g] @ fv).max()
        assert residual / (1.0 + np.abs(fv).max()) > 1e-8
    elif certified:
        assert report.coverage == f"certificate ({group.gen_count} generators)"
    else:
        assert report.coverage == f"exhaustive ({group.order})"
    return certified


def fixed_by_generators(diagonals):
    """Whether every generator fixes a coordinate (or weight entry) with
    sign +1, from the diagonal entries of its dense generator images."""
    return bool((np.prod(diagonals, axis=0) == 1.0).all())


@pytest.mark.parametrize("group_spec", CERTIFIED_GROUPS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certificate_is_the_dense_oracle(group_spec, data):
    group = named(group_spec)
    layers, chain = data.draw(built_stacks(group))
    assert assert_certificate_is_the_oracle(layers, chain)

    # one declared weight entry, or one hidden bias entry (the last column
    # of [W | b]), moved by 0.5 fails the certificate unless every
    # generator fixes it with sign +1, in which case the moved stack is
    # still equivariant
    layer = data.draw(st.integers(0, len(layers) - 1))
    a = layers[layer]
    i, j = data.draw(st.integers(0, a.shape[0] - 1)), data.draw(st.integers(0, a.shape[1] - 1))
    a[i, j] += 0.5
    fixed = fixed_by_generators([chain[layer + 1].gen_images[:, i, i],
                                 layer_input_images(a, chain[layer])[:, j, j]])
    assert assert_certificate_is_the_oracle(layers, chain) == fixed


def _certificate_stack(hidden):
    """Layers ``[I | 0]`` and ``(1, ..., 1)`` over the symmetric:3 chain
    hidden -> hidden -> trivial:1 (sign -> sign -> sign for a sign hidden
    rep): every layer commutes with every generator."""
    end = "sign" if hidden == "sign" else "trivial:1"
    chain = reps.parse_rep_chain(named("symmetric:3"), [hidden, hidden, end])
    n = chain[1].degree
    return [np.hstack((np.eye(n), np.zeros((n, 1)))), np.ones((1, n))], chain


@pytest.mark.parametrize("bias, hidden, certified", [
    ([2.0, 2.0, 2.0], "defining", True),  # fixed by every generator
    ([-1.0, 0.0, 0.0], "defining", False),  # moved by a generator
    ([0.0], "sign", False),  # fixed, but the hidden rep is signed
    ([np.nan] * 3, "defining", False),  # a non-finite bias certifies nothing
    ([np.inf] * 3, "defining", False),
], ids=["fixed", "moved", "signed-hidden", "nan", "inf"])
def test_certificate_bias_cases(bias, hidden, certified):
    # the bias column of [W | b] is the certificate's test that b is fixed
    layers, chain = _certificate_stack(hidden)
    layers[0][:, -1] = bias
    assert network._certified(layers, chain) is certified
    report = network.check_stack_equivariance(layers, TANH, chain)
    if certified:
        assert report.passed and report.coverage == "certificate (2 generators)"
    elif hidden == "sign" or np.isinf(bias[0]):
        # equivariant, yet not certified: every element is swept
        assert report.passed and report.coverage == "exhaustive (6)"
    else:
        assert not report.passed and report.coverage == "generators (2 of 6)"


# --- model files: a v2 round trip is bitwise, and needs no solve -------------

def _no_solve(*args, **kwargs):
    raise AssertionError("a model file load solved a basis")


@pytest.mark.parametrize("group_spec", CERTIFIED_GROUPS)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_v2_model_round_trip_is_bitwise(group_spec, data):
    group = named(group_spec)
    net = data.draw(built_nets(group))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(network, "solve_basis", _no_solve):
        path = os.path.join(tmp, "M")
        network.save_model(net, path)
        loaded = network.load_model(path)
        declared, realized = loaded.layers(), net.layers()
        assert [a.shape for a in declared] == [a.shape for a in realized]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(declared, realized))
        again = os.path.join(tmp, "again")
        network.save_model(loaded, again)
        with open(path) as fh, open(again) as fh_again:
            text = fh.read()
            assert text == fh_again.read()
        report = network.check_stack_equivariance(loaded.layers(), loaded.activation,
                                                  loaded.layer_reps)
        assert report.passed
        assert report.coverage == f"certificate ({group.gen_count} generators)"

        # one first-layer entry off its orbit, in a column the input rep
        # moves (an edit where the input is fixed leaves an invariant
        # stack invariant), moved by 0.5
        chain = net.layer_reps
        w = net.layers()[0][:, :chain[0].degree]
        off = [(i, j) for i in range(w.shape[0]) for j in range(w.shape[1])
               if not fixed_by_generators([chain[0].gen_images[:, j, j]])
               and not fixed_by_generators([chain[1].gen_images[:, i, i],
                                            chain[0].gen_images[:, j, j]])]
        if not off:
            return
        i, j = data.draw(st.sampled_from(off))
        lines = text.splitlines()
        row = lines.index("weight-matrix: {} {}".format(*w.shape)) + 1 + i
        tokens = lines[row].split()
        tokens[j] = f"{float(tokens[j]) + 0.5:.17g}"
        lines[row] = " ".join(tokens)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        edited = network.load_model(path)
        report = network.check_stack_equivariance(edited.layers(), edited.activation,
                                                  edited.layer_reps)
        assert not report.passed
        assert report.coverage == f"generators ({group.gen_count} of {group.order})"
        assert report.witness[0] in group.generator_ids


# --- the class-sum oracle on symmetric groups, past the enumeration cap ---

def symmetric_specs():
    leaves = st.sampled_from(["defining", "sign", "trivial:1", "trivial:2"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.integers(1, 3), inner).map(lambda t: f"tensor:{t[0]}({t[1]})"),
        st.lists(inner, min_size=1, max_size=3).map(lambda p: "sum(" + ";".join(p) + ")"),
    ), max_leaves=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), symmetric_specs(), symmetric_specs())
def test_solver_dimension_matches_the_class_sum_oracle(m, spec_in, spec_out):
    # the class sum needs no enumeration, so it checks the solver past
    # the cap (symmetric:8 on); up to symmetric:7 it is the character
    # oracle's sum over every element
    group = named(f"symmetric:{m}")
    rep_in, rep_out = parse_rep_spec(group, spec_in), parse_rep_spec(group, spec_out)
    assume(rep_in.degree * rep_out.degree <= 40000)
    dim = class_dim_oracle(rep_in, rep_out)
    assert solve_basis(rep_in, rep_out).dim == dim
    if m <= 7:
        assert hom_dim_oracle(rep_in, rep_out) == dim


@pytest.mark.parametrize("spec_in, spec_out, dim", [
    ("defining", "defining", 2),
    ("tensor:3(sum(defining;sign))", "tensor:3(sum(defining;sign))", 27),
    ("tensor:3(sum(defining;sign))", "sum(tensor:2(defining);trivial:1)", 15),
    ("sum(defining;sign;trivial:2)", "sign", 1),
])
def test_symmetric_20_dimensions_match_the_class_sum_oracle(spec_in, spec_out, dim, monkeypatch):
    monkeypatch.setattr(groups, "_bfs", lambda *args: pytest.fail("enumerated"))
    group = named("symmetric:20")
    rep_in, rep_out = parse_rep_spec(group, spec_in), parse_rep_spec(group, spec_out)
    assert class_dim_oracle(rep_in, rep_out) == solve_basis(rep_in, rep_out).dim == dim
