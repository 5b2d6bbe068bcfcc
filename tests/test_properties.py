"""Property tests over random small groups and representations.

Groups are closures of random permutation and signed-permutation
generator sets of degree <= 4; representations come from the spec
language. The signed-permutation paths of the solver, the closure and
the extension are compared bitwise with their dense oracles, and spec
reps composed from a named group's index arrays with the extension of
their generator images. Rotation groups through cos/sin exercise the
dense closure itself. Examples are derandomized so the suite is
reproducible. The check's exact certificate is compared with dense
products of the generator images and with the per-element check.
"""

import functools
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from helpers import reference_check, spec_images
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equikit import groups, intertwiners, network, reps
from equikit.activations import ActivationSpec
from equikit.groups import close, permutation_matrix
from equikit.intertwiners import hom_dim_oracle, solve_basis
from equikit.numerics import nullspace, signed_permutation_matrices, signed_permutations
from equikit.reps import (
    CONSISTENCY_TOL,
    InconsistentImagesError,
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
    assert group.elements.tobytes() == dense.elements.tobytes()
    assert group.words == dense.words
    assert group.cayley.tobytes() == dense.cayley.tobytes()
    assert group.parents.tobytes() == dense.parents.tobytes()
    rep = parse_rep_spec(group, data.draw(rep_specs(perms)))
    images = reps._extend_dense(group, rep.gen_images, CONSISTENCY_TOL)
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
    assert group.targets is None
    assert group.order == (2 * n if reflect else n)
    rep = extend(group, gens)
    assert rep.images.shape == (group.order, 2, 2)


# --- the walk and the replay against products along each word --------------


def word_products(group, gen_images):
    """Each element's image as the left-to-right product of the generator
    images along its word, one ``@`` at a time: a traversal that shares
    nothing with ``reps._walk``."""
    products = []
    for word in group.words:
        image = np.eye(gen_images.shape[1])
        for gi in word:
            image = image @ gen_images[gi]
        products.append(image)
    return np.stack(products)


def cayley_outcome(group, gen_images, tol=CONSISTENCY_TOL):
    """(element, generator, residual) of the first generator, and its
    first worst element, at which the word products fail the cayley
    table by more than ``tol``, by a plain loop; else the products."""
    products = word_products(group, gen_images)
    for gi in range(group.gen_count):
        dev = [np.abs(products[e] @ gen_images[gi] - products[group.cayley[e, gi]]).max()
               for e in range(group.order)]
        worst = int(np.argmax(dev))
        if dev[worst] > tol:
            return "inconsistent", worst, gi, float(dev[worst])
    return products.tobytes()


def extend_outcome(group, gen_images):
    try:
        return extend(group, gen_images).images.tobytes()
    except InconsistentImagesError as err:
        return "inconsistent", err.element, err.generator, err.residual


def assert_walk_is_the_word_products(rep, data):
    """The rep's images and its group's element data are the products
    along the words, bitwise, and ``extend`` of one perturbed generator
    image (an entry nudged off the signed path, or a column negated on
    it) fails where the plain loop does, with the same residual."""
    group, gen_images = rep.group, rep.gen_images
    assert rep.images.tobytes() == word_products(group, gen_images).tobytes()
    if group.gen_arrays is None:
        assert group.elements.tobytes() == word_products(group, group.generators).tobytes()
    else:
        products = word_products(group, signed_permutation_matrices(*group.gen_arrays))
        targets, signs = signed_permutations(products)
        assert np.array_equal(group.targets, targets) and np.array_equal(group.signs, signs)
        assert group.elements.tobytes() == products.tobytes()
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
    gen_targets = group.targets[group.cayley[0]]
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
    net.bias_coeffs = [rng.standard_normal(c.shape) for c in net.bias_coeffs]
    return net


@st.composite
def built_stacks(draw, group):
    """(weights, biases, chain) of ``built_nets``."""
    net = draw(built_nets(group))
    return net.weights(), net.biases(), net.layer_reps


def assert_certificate_is_the_oracle(weights, biases, chain):
    """The certificate, per layer and generator, against dense products;
    the verdict against the per-element check; a generator witness
    against the dense images. Returns the certificate."""
    group = chain[0].group
    for w, rep_in, rep_out in zip(weights, chain, chain[1:]):
        dense = [np.array_equal(w @ a, b @ w)
                 for a, b in zip(rep_in.gen_images, rep_out.gen_images)]
        assert network._commutes_at_generators(w, rep_in, rep_out).tolist() == dense
    certified = network._certified(weights, biases, TANH, chain)

    def apply(x):
        return network.stack_forward(weights, biases, TANH, x)

    reference = reference_check(apply, chain[0], chain[-1], (-1.0, 1.0), 8, 0, 1e-8, True)
    if certified:
        assert reference.passed
    report = network.check_stack_equivariance(weights, biases, TANH, chain)
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
    weights, biases, chain = data.draw(built_stacks(group))
    assert assert_certificate_is_the_oracle(weights, biases, chain)

    # one declared weight entry, or one hidden bias entry, moved by 0.5
    # fails the certificate unless every generator fixes it with sign +1,
    # in which case the moved stack is still equivariant
    weights, biases = [w.copy() for w in weights], [b.copy() for b in biases]
    layer = data.draw(st.integers(0, len(weights) + len(biases) - 1))
    if layer < len(weights):
        rows, cols = weights[layer].shape
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        weights[layer][i, j] += 0.5
        fixed = fixed_by_generators([chain[layer + 1].gen_images[:, i, i],
                                     chain[layer].gen_images[:, j, j]])
    else:
        bias = biases[layer - len(weights)]
        i = data.draw(st.integers(0, bias.size - 1))
        bias[i] += 0.5
        fixed = fixed_by_generators([chain[layer - len(weights) + 1].gen_images[:, i, i]])
    assert assert_certificate_is_the_oracle(weights, biases, chain) == fixed


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
        for declared, realized in ((loaded.weights(), net.weights()),
                                   (loaded.biases(), net.biases())):
            assert [a.shape for a in declared] == [a.shape for a in realized]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(declared, realized))
        again = os.path.join(tmp, "again")
        network.save_model(loaded, again)
        with open(path) as fh, open(again) as fh_again:
            text = fh.read()
            assert text == fh_again.read()
        report = network.check_stack_equivariance(loaded.weights(), loaded.biases(),
                                                  loaded.activation, loaded.layer_reps)
        assert report.passed
        assert report.coverage == f"certificate ({group.gen_count} generators)"

        # one first-layer entry off its orbit, in a column the input rep
        # moves (an edit where the input is fixed leaves an invariant
        # stack invariant), moved by 0.5
        chain = net.layer_reps
        w = net.weights()[0]
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
        report = network.check_stack_equivariance(edited.weights(), edited.biases(),
                                                  edited.activation, edited.layer_reps)
        assert not report.passed
        assert report.coverage == f"generators ({group.gen_count} of {group.order})"
        assert report.witness[0] in group.generator_ids
