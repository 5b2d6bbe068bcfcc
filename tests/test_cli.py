import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import set_first_declared_weight

import equikit
from equikit import cli, groups, intertwiners, network, numerics, reps
from equikit.activations import parse_activation
from equikit.cli import main
from equikit.network import build, load_model, save_model

DEEPSETS_CFG = """\
[model]
group = symmetric:4
activation = relu
seed = 7

[reps]
0 = tensor:3(defining)
1 = tensor:3(defining)
2 = trivial:3
"""

GOLDEN_PERMUTATION_THRESHOLD = """\
pointwise map sign_threshold:3, permutation X = rows [0 1 0; 0 0 1; 1 0 0]
v           = (2.1, 3.4, 0.2)
X v         = (3.4, 0.2, 2.1)
s(X v)      = (+1, -1, -1)
X^-1 s(X v) = (-1, +1, -1)
s(v)        = (-1, +1, -1)
X^-1 s(X v) == s(v): the pointwise map is equivariant
"""

GOLDEN_BIAS_COUNTEREXAMPLE = """\
pointwise map sign_threshold:3 with bias b = (-1, 0, 0)
v             = (2.1, 3.4, 0.2)
X v           = (3.4, 0.2, 2.1)
s_b(X v)      = (-1, -1, -1)
X^-1 s_b(X v) = (-1, -1, -1)
s_b(v)        = (-1, +1, -1)
X^-1 s_b(X v) != s_b(v): the biased map is not equivariant
"""

GOLDEN_ANTISYMMETRY = """\
slater determinant with monomial features, m = 3
f(v)        = 0.168747
f(swap v)   = -0.168747
max residual over S_3: 1.426e-16
antisymmetric within 1e-10
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_golden_values(capsys):
    code, out, _ = run(capsys, "count", "--structure", "toeplitz", "--k", "3", "--n", "4")
    assert (code, out) == (0, "29\n")
    code, out, _ = run(capsys, "count", "--structure", "bttb", "--k", "2", "--m1", "3", "--m2", "3")
    assert (code, out) == (0, "59\n")
    code, out, _ = run(capsys, "count", "--structure", "dense", "--k", "1", "--n", "5")
    assert (code, out) == (0, "25\n")


def test_count_missing_argument_is_config_error(capsys):
    code, _, err = run(capsys, "count", "--structure", "toeplitz", "--k", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("args", [
    ("--structure", "toeplitz", "--k", "2", "--n", "-5"),
    ("--structure", "toeplitz", "--k", "2", "--n", "0"),
    ("--structure", "dense", "--k", "2", "--n", "-3"),
    ("--structure", "bttb", "--k", "2", "--m1", "0", "--m2", "3"),
])
def test_count_non_positive_width_exits_2(capsys, args):
    code, out, err = run(capsys, "count", *args)
    assert (code, out) == (2, "")
    assert "widths must be >= 1" in err


def test_demo_permutation_threshold_golden(capsys):
    code, out, _ = run(capsys, "demo", "--example", "permutation-threshold")
    assert code == 0
    assert out == GOLDEN_PERMUTATION_THRESHOLD


def test_demo_bias_counterexample_golden(capsys):
    code, out, _ = run(capsys, "demo", "--example", "bias-counterexample")
    assert code == 0
    assert out == GOLDEN_BIAS_COUNTEREXAMPLE


def test_demo_decolor_flip(capsys):
    code, out, _ = run(capsys, "demo", "--example", "decolor-flip")
    assert code == 0
    assert "bit-exact" in out


def test_demo_antisymmetry(capsys):
    code, out, _ = run(capsys, "demo", "--example", "antisymmetry")
    assert code == 0
    assert out == GOLDEN_ANTISYMMETRY


def test_demo_decolor_flip_image_files(tmp_path, capsys):
    src = tmp_path / "img.txt"
    src.write_text("2 3\n0 0 0\n9 0 0\n0 0 0\n1 2 3\n")
    dst = tmp_path / "out.txt"
    code, out, _ = run(capsys, "demo", "--example", "decolor-flip",
                       "--image", str(src), "--out", str(dst))
    assert code == 0
    assert "bit-exact" in out
    # both nonzero source pixels sit in column 1, so the decolored flip
    # is white down column 1 and black down column 0
    assert dst.read_text() == "2 3\n0 0 0\n255 255 255\n0 0 0\n255 255 255\n"
    code, _, err = run(capsys, "demo", "--example", "antisymmetry",
                       "--image", str(src))
    assert code == 2
    # a header naming 10^16 pixels is refused before any array is built
    src.write_text("100000000 3\n")
    code, _, err = run(capsys, "demo", "--example", "decolor-flip", "--image", str(src))
    assert code == 2
    assert "pixel (0, 0): expected three values" in err


def test_basis_reports_dimensions(tmp_path, capsys):
    cfg = tmp_path / "deepsets.cfg"
    cfg.write_text(DEEPSETS_CFG)
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert "group symmetric:4 (order 24)" in out
    assert "intertwiner dim 18" in out
    assert "intertwiner dim 9" in out


def test_basis_single_layer_and_print(tmp_path, capsys):
    cfg = tmp_path / "deepsets.cfg"
    cfg.write_text(DEEPSETS_CFG)
    code, out, _ = run(capsys, "basis", "--config", str(cfg), "--layer", "2", "--print")
    assert code == 0
    assert "intertwiner dim 18" not in out
    assert out.count("basis element") == 9


@pytest.mark.parametrize("layer", ["0", "3"])
def test_basis_layer_out_of_range_exits_2(capsys, layer):
    config = str(Path(__file__).resolve().parent.parent / "configs" / "c4_chain.cfg")
    code, out, err = run(capsys, "basis", "--config", config, "--layer", layer)
    assert code == 2
    assert out == ""  # nothing is printed before the layer is validated
    assert err.splitlines() == ["error: --layer must be in 1..2"]


def test_basis_output_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "deepsets.cfg"
    cfg.write_text(DEEPSETS_CFG)
    _, out1, _ = run(capsys, "basis", "--config", str(cfg))
    _, out2, _ = run(capsys, "basis", "--config", str(cfg))
    assert out1 == out2


def test_basis_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[model]\ngroup = symmetric:4\n")
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert "reps" in err

    cfg.write_text("[model]\ngroup = dodeca:4\n\n[reps]\n0 = defining\n1 = defining\n")
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2

    cfg.write_text(
        "[model]\ngroup = cyclic:3\nactivaton = relu\n\n[reps]\n0 = defining\n1 = defining\n"
    )
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert "model.activaton" in err

    code, _, err = run(capsys, "basis", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


# each malformed or inconsistent rep spec exits 2 with the message of its
# first failing term, in spec order: the parser's, the cap's, a
# constructor's, or the extension's for a perm: leaf (the one term that
# is checked, and replayed when rejected)
REP_SPEC_ERRORS = {
    "trivial:0": "generator image 0 must be nonempty",
    "sum(tensor:2(trivial:0))": "generator image 0 must be nonempty",
    "tensor:0(defining)": "tensor factor must be >= 1",
    "tensor:0(perm:0,0,1|1,0,2)": "not a permutation of 0..2: [0, 0, 1]",
    "sum()": "unrecognized rep spec at position 4 in 'sum()'",
    "sum(defining;)": "unrecognized rep spec at position 13 in 'sum(defining;)'",
    "tensor:2(defining": "expected ')' at position 17 in rep spec 'tensor:2(defining'",
    "perm:": "empty permutation in rep spec 'perm:'",
    "perm:0,1,,2|0,1,2": "expected integer at position 9 in rep spec 'perm:0,1,,2|0,1,2'",
    "perm:,0,1|0,1,2": "expected integer at position 5 in rep spec 'perm:,0,1|0,1,2'",
    "perm:0,0,1|1,0,2": "not a permutation of 0..2: [0, 0, 1]",
    # an entry beyond int64 is named, not overflowed
    "perm:0,1,99999999999999999999|0,1,2": (
        "not a permutation of 0..2: [0, 1, 99999999999999999999]"),
    "perm:0,1|1,0,2": "generator image 1 has shape (3, 3), expected (2, 2)",
    "perm:1,0,2": "need 2 generator images, got 1",
    # the cap counts the int64 targets and int8 signs of symmetric:3's two
    # generators
    "tensor:99999999999(defining)": (
        "rep spec 'tensor:99999999999(defining)' has degree 299999999997: its 2 "
        "generators' data would take 5399999999946 bytes, above the cap "
        "MAX_IMAGE_STACK_BYTES=268435456"),
    # a rejected leaf names the first defining relator it fails, gi
    # standing for its i-th map: here c^3 and s^2
    "sum(sign;tensor:3(perm:1,0,2|1,0,2))": (
        "generator images are inconsistent: they fail the defining relator g1^3 of symmetric:3"),
    "sum(perm:1,2,0|0,1,2;perm:1,0,2|1,0,2)": (
        "generator images are inconsistent: they fail the defining relator g0^2 of symmetric:3"),
    # a digit that is not a decimal one, which int refuses, ends a number
    "tensor:\u00b2(defining)": (
        "expected integer at position 7 in rep spec 'tensor:\u00b2(defining)'"),
    "perm:1,0,2\u00b2|0,1,2": "trailing characters in rep spec 'perm:1,0,2\u00b2|0,1,2'",
    # an integer longer than int reads is named by its position, and the
    # spec is cut after 60 characters
    "trivial:" + "9" * 5000: (
        f"integer at position 8 in rep spec 'trivial:{'9' * 52}...' has 5000 digits, "
        "too many to read"),
    f"tensor:{'9' * 5000}(defining)": (
        f"integer at position 7 in rep spec 'tensor:{'9' * 53}...' has 5000 digits, "
        "too many to read"),
    f"perm:1,0,2|0,{'9' * 5000},2": (
        f"integer at position 13 in rep spec 'perm:1,0,2|0,{'9' * 47}...' has 5000 digits, "
        "too many to read"),
}


def _spec_id(spec):
    """A test id: the spec, or its start and length when it is long."""
    return spec if len(spec) <= 60 else f"{spec[:20]}...({len(spec)} chars)"


@pytest.mark.parametrize("spec", sorted(REP_SPEC_ERRORS), ids=_spec_id)
def test_basis_bad_rep_spec_exits_2_with_its_message(tmp_path, capsys, spec):
    cfg = tmp_path / "bad_rep.cfg"
    cfg.write_text(f"[model]\ngroup = symmetric:3\n\n[reps]\n0 = {spec}\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: reps: {REP_SPEC_ERRORS[spec]}\n"


# a group spec's size is read as a rep spec's integers are: decimal digits
# only, and a run too long for int is named by its position
GROUP_SPEC_ERRORS = {
    "cyclic:3_0": "group spec 'cyclic:3_0' has non-integer size",
    "symmetric:+4": "group spec 'symmetric:+4' has non-integer size",
    "cyclic:" + "9" * 5000: (
        f"integer at position 7 in group spec 'cyclic:{'9' * 53}...' has 5000 digits, "
        "too many to read"),
}


@pytest.mark.parametrize("spec", sorted(GROUP_SPEC_ERRORS), ids=_spec_id)
def test_basis_bad_group_size_exits_2_with_its_message(tmp_path, capsys, spec):
    cfg = tmp_path / "bad_group.cfg"
    cfg.write_text(f"[model]\ngroup = {spec}\n\n[reps]\n0 = defining\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: {GROUP_SPEC_ERRORS[spec]}\n"


def test_basis_accepts_a_zero_width_summand(tmp_path, capsys):
    cfg = tmp_path / "zero_width.cfg"
    cfg.write_text("[model]\ngroup = symmetric:3\n\n[reps]\n"
                   "0 = sum(trivial:0;defining)\n1 = defining\n")
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert "(3) -> defining (3), intertwiner dim 2" in out


def test_basis_accepts_a_zero_width_tensor_of_a_huge_factor(tmp_path, capsys):
    # a zero-width tensor node builds nothing of its factor's size
    cfg = tmp_path / "zero_width.cfg"
    cfg.write_text("[model]\ngroup = symmetric:3\n\n[reps]\n"
                   "0 = sum(defining;tensor:9999999(trivial:0))\n1 = defining\n")
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert "(3) -> defining (3), intertwiner dim 2" in out


def test_basis_accepts_a_zero_width_tensor_within_the_cap(tmp_path, capsys):
    # a zero-width tensor node leading a sum adds nothing to its degree
    cfg = tmp_path / "zero_width.cfg"
    cfg.write_text("[model]\ngroup = symmetric:3\n\n[reps]\n"
                   "0 = sum(tensor:100(trivial:0);defining)\n1 = defining\n")
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert "(3) -> defining (3), intertwiner dim 2" in out


def test_train_check_round_trip(tmp_path, capsys):
    model = tmp_path / "model.txt"
    code, out, _ = run(
        capsys, "train", "--task", "center-of-mass", "--m", "3",
        "--steps", "200", "--lr", "0.5", "--seed", "1",
        "--train-samples", "200", "--test-samples", "50",
        "--out", str(model),
    )
    assert code == 0
    assert "parameters 28 vs dense" in out
    assert model.exists()

    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 0
    assert "PASS" in out


def _train_small_model(tmp_path, capsys):
    model = tmp_path / "model.txt"
    code, _, _ = run(
        capsys, "train", "--task", "center-of-mass", "--m", "3",
        "--steps", "50", "--lr", "0.5", "--seed", "1",
        "--train-samples", "80", "--test-samples", "20",
        "--out", str(model),
    )
    assert code == 0
    return model


def test_check_tampered_model_exits_1(tmp_path, capsys):
    model = _train_small_model(tmp_path, capsys)
    set_first_declared_weight(model, "2.25")
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def test_check_prints_its_coverage(tmp_path, capsys, monkeypatch):
    # symmetric:3 has 6 elements; its 2 generators are BFS elements 1 and 2
    model = _train_small_model(tmp_path, capsys)
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 0
    assert "coverage certificate (2 generators)\n" in out and out.endswith(": PASS\n")

    # the first bias entry: a last-bit change leaves the bias fixed within
    # tol but not exactly, and 0.25 moves it off the fixed line
    intact = model.read_text()
    bias = float(intact.split("bias-vector:")[1].splitlines()[1].split()[0])
    assert bias != 0.0
    set_first_declared_weight(model, repr(math.nextafter(bias, math.inf)), "bias-vector:")
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 0
    assert "coverage exhaustive (6)\n" in out and out.endswith(": PASS\n")
    set_first_declared_weight(model, repr(bias + 0.25), "bias-vector:")
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 1
    lines = out.splitlines()
    assert lines[-3] == "coverage generators (2 of 6)"
    assert lines[-2].endswith(": FAIL")
    assert lines[-1].split(",")[0] in ("witness element 1", "witness element 2")
    model.write_text(intact)

    # a last-bit change keeps the map equivariant within tol but breaks the
    # exact certificate, so the element sweep decides
    first = float(model.read_text().split("weight-matrix:")[1].splitlines()[1].split()[0])
    set_first_declared_weight(model, repr(first * (1.0 + 1e-13)))
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 0
    assert "coverage exhaustive (6)\n" in out and out.endswith(": PASS\n")
    monkeypatch.setattr(network, "EXHAUSTIVE_LIMIT", 5)
    code, out, _ = run(capsys, "check", "--model", str(model), "--trials", "3")
    assert code == 0
    assert "coverage sampled (3 of 6)\n" in out and out.endswith(": PASS\n")

    set_first_declared_weight(model, "2.25")
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 1
    lines = out.splitlines()
    assert lines[-3] == "coverage generators (2 of 6)"
    assert lines[-2].endswith(": FAIL")
    assert lines[-1].split(",")[0] in ("witness element 1", "witness element 2")


def test_chains_parse_each_spec_once(tmp_path, capsys, monkeypatch):
    parsed = []
    parse = reps.parse_rep_spec
    monkeypatch.setattr(reps, "parse_rep_spec",
                        lambda group, spec: parsed.append(spec) or parse(group, spec))
    once = ["tensor:3(defining)", "trivial:3"]
    cfg = tmp_path / "deepsets.cfg"
    cfg.write_text(DEEPSETS_CFG)
    chain = cli._load_chain(str(cfg))[2]
    assert chain[0] is chain[1] and chain[1] is not chain[2]
    assert parsed == once
    parsed.clear()
    model = _train_small_model(tmp_path, capsys)
    assert parsed == once
    parsed.clear()
    chain = load_model(str(model)).layer_reps
    assert chain[0] is chain[1] and chain[1] is not chain[2]
    assert parsed == once


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_check_non_finite_model_exits_2(tmp_path, capsys, value):
    model = _train_small_model(tmp_path, capsys)
    line = set_first_declared_weight(model, value)
    code, out, err = run(capsys, "check", "--model", str(model))
    assert code == 2
    assert "PASS" not in out
    assert f"line {line}: values must be finite" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_trials_below_one_exits_2(tmp_path, capsys, trials):
    model = _train_small_model(tmp_path, capsys)
    code, out, err = run(capsys, "check", "--model", str(model), "--trials", trials)
    assert code == 2
    assert out == ""  # nothing is printed before the report exists
    assert "trials must be >= 1" in err


def test_check_too_many_trials_exits_2_before_allocating(tmp_path, capsys):
    model = _train_small_model(tmp_path, capsys)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check", "--model", str(model),
                             "--trials", "100000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""  # nothing is printed before the report exists
    assert "100000000000 trials of degree 9" in err
    assert "MAX_IMAGE_STACK_BYTES" in err
    # the test vectors alone would take 7.2 TB
    assert peak < 2 ** 20


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-8"])
def test_check_bad_tol_exits_2(tmp_path, capsys, tol):
    model = _train_small_model(tmp_path, capsys)
    set_first_declared_weight(model, "2.25")  # tampered: fails at any finite tol
    code, out, err = run(capsys, "check", "--model", str(model), f"--tol={tol}")
    assert code == 2
    assert out == ""  # nothing is printed before the report exists
    assert "tol must be finite and >= 0" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_basis_bad_config_tol_exits_2(tmp_path, capsys, tol):
    # no solve takes a tolerance, so a config has no tol key at all
    cfg = tmp_path / "bad_tol.cfg"
    cfg.write_text(
        f"[model]\ngroup = symmetric:4\ntol = {tol}\n\n"
        "[reps]\n0 = defining\n1 = defining\n"
    )
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: model.tol: unknown field\n"


@pytest.mark.parametrize("activation", ["bogus", "threshold:nan", "relu:1", "threshold"])
def test_basis_bad_config_activation_exits_2(tmp_path, capsys, activation):
    cfg = tmp_path / "bad_activation.cfg"
    cfg.write_text(
        f"[model]\ngroup = symmetric:4\nactivation = {activation}\n\n"
        "[reps]\n0 = defining\n1 = defining\n"
    )
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert "intertwiner dim" not in out
    assert "model.activation: " in err


@pytest.mark.parametrize("seed", ["x", "1.5", ""])
def test_basis_bad_config_seed_exits_2(tmp_path, capsys, seed):
    # seed, like activation, is validated though basis does not use it
    cfg = tmp_path / "bad_seed.cfg"
    cfg.write_text(
        f"[model]\ngroup = symmetric:4\nseed = {seed}\n\n"
        "[reps]\n0 = defining\n1 = defining\n"
    )
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "model.seed must be an integer" in err


@pytest.mark.parametrize("model, rep", [
    ("", "defining%x"), ("", "%(x)s"), ("seed = 1%\n", "defining"),
])
def test_basis_config_percent_exits_2(tmp_path, capsys, model, rep):
    # a '%' reaches the spec parser (or the seed check) as text and exits 2
    # with one error line, never an interpolation traceback
    cfg = tmp_path / "percent.cfg"
    cfg.write_text(f"[model]\ngroup = cyclic:3\n{model}\n[reps]\n0 = {rep}\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_check_unreadable_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "check", "--model", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("train", "--m", "3", "--steps", "5", "--train-samples", "40", "--test-samples", "10"),
    ("demo", "--example", "decolor-flip"),
])
def test_unwritable_out_exits_2_printing_nothing(tmp_path, capsys, argv):
    out_path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_fuzzed_configs_exit_0_1_or_2(tmp_path, capsys):
    # 25 seeded truncations and 25 one-byte edits of each shipped config;
    # a rejected one prints nothing to stdout and one error line
    rng = np.random.default_rng(22)
    alphabet = b"0123456789:()|;,=[]\n -.x%#\t\r"
    cfg = tmp_path / "fuzzed.cfg"
    for source in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")):
        text = source.read_bytes()
        for _ in range(25):
            at, cut = rng.integers(len(text), size=2)
            byte = rng.choice(list(alphabet)) if rng.random() < 0.5 else rng.integers(256)
            for variant in (text[:cut], text[:at] + bytes([byte]) + text[at + 1:]):
                cfg.write_bytes(variant)
                code, out, err = run(capsys, "basis", "--config", str(cfg))
                assert code in (0, 1, 2), variant
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (
                        variant, out, err)


def test_train_unknown_task_exits_2(capsys):
    code, _, err = run(capsys, "train", "--task", "orbit-count")
    assert code == 2
    assert "task" in err


def test_exact_flag_prints_17_digits(capsys):
    code, out, _ = run(
        capsys, "--exact", "train", "--task", "center-of-mass", "--m", "3",
        "--steps", "5", "--lr", "0.1", "--seed", "0",
        "--train-samples", "40", "--test-samples", "10",
    )
    assert code == 0
    mse_line = next(ln for ln in out.splitlines() if ln.startswith("test mse"))
    digits = mse_line.split()[-1].replace(".", "").replace("-", "").lstrip("0")
    assert len(digits.split("e")[0]) >= 15


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process: alternating commands and an
    # argparse error in one process prints and exits as fresh processes do
    config = str(Path(__file__).resolve().parent.parent / "configs" / "c4_chain.cfg")
    small = ["--m", "3", "--steps", "20", "--train-samples", "40", "--test-samples", "10"]
    calls = [
        ["basis", "--config", config, "--print"],
        ["train", *small, "--out", "M"],
        ["check", "--model", "M"],
        ["basis", "--config", config, "--layer", "one"],
        ["--exact", "train", *small, "--seed", "2", "--activation", "relu"],
        ["--exact", "check", "--model", "M", "--trials", "3"],
        ["frobnicate"],
        ["basis", "--config", config, "--layer", "2"],
    ]
    src = os.path.dirname(os.path.dirname(equikit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "fresh").mkdir()
    (tmp_path / "shared").mkdir()
    fresh, shared = [], []
    for argv in calls:
        result = subprocess.run([sys.executable, "-m", "equikit.cli", *argv],
                                cwd=tmp_path / "fresh", env=env, capture_output=True,
                                text=True, timeout=120)
        fresh.append((result.returncode, result.stdout))
    monkeypatch.chdir(tmp_path / "shared")
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        shared.append((code, capsys.readouterr().out))
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 0, 0, 2, 0]
    assert shared == fresh


def test_check_non_numeric_model_value_exits_2(tmp_path, capsys):
    model = _train_small_model(tmp_path, capsys)
    line = set_first_declared_weight(model, "abc")
    code, out, err = run(capsys, "check", "--model", str(model))
    assert code == 2
    assert "PASS" not in out
    assert f"line {line}: 'abc' is not a number" in err


@pytest.mark.parametrize("prefix", ["layers:", "weight-matrix:", "bias-vector:"])
def test_check_non_integer_count_exits_2(tmp_path, capsys, prefix):
    model = _train_small_model(tmp_path, capsys)
    lines = model.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    tokens = lines[at].split()
    tokens[1] = "two"
    lines[at] = " ".join(tokens)
    model.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", "--model", str(model))
    assert code == 2
    assert "PASS" not in out
    assert f"line {at + 1}: 'two' is not an integer" in err


def test_check_refuses_a_v1_model(tmp_path, capsys, monkeypatch):
    # refused at its header: nothing after it is read, and nothing built
    def banned(*args, **kwargs):
        raise AssertionError("a v1 file was read past its header")

    monkeypatch.setattr(network, "group_from_spec", banned)
    model = tmp_path / "v1.model"
    model.write_text("equikit model v1\ngroup: symmetric:3\n")
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out) == (2, "")
    assert err == ("error: equikit model v1 files are no longer read; rebuild the model "
                   "and save it again as equikit model v2\n")


@pytest.mark.parametrize("extra", ["equikit model v2\ngarbage\n", "\n", "end\n"],
                         ids=["a-header-and-a-line", "a-blank-line", "a-second-end"])
def test_check_refuses_content_after_the_end_marker(tmp_path, capsys, extra):
    model = _train_small_model(tmp_path, capsys)
    end = len(model.read_text().splitlines())
    model.write_text(model.read_text() + extra)
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out, err) == (2, "", f"error: line {end + 1}: content after the end marker\n")


@pytest.mark.parametrize("number", ["7", "0", "2"])
def test_check_refuses_a_layer_numbered_out_of_place(tmp_path, capsys, number):
    # line 8 numbers the first layer
    model = _train_small_model(tmp_path, capsys)
    lines = model.read_text().splitlines()
    assert lines[7] == "layer: 1"
    lines[7] = f"layer: {number}"
    model.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out, err) == (2, "", f"error: line 8: expected layer 1, got {number}\n")


# --- malformed model files: truncation and bad counts -----------------------

def _check_rejects(capsys, model):
    """`check` on ``model`` exits 2 with one `error:` line, prints nothing
    on stdout and allocates little: no count is acted on before the shape
    checks pass."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "check", "--model", str(model))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert peak < 2 ** 21
    return err


def test_truncated_model_files_exit_2(tmp_path, capsys):
    model = _train_small_model(tmp_path, capsys)
    lines = model.read_text().splitlines()
    for keep in range(len(lines)):
        model.write_text("".join(ln + "\n" for ln in lines[:keep]))
        assert _check_rejects(capsys, model) == "error: unexpected end of model file\n"


BAD_COUNTS = ["2.5", "two", "-1", "-3", "0", str(10 ** 18), "1e9"]


@pytest.mark.parametrize("bad", BAD_COUNTS + ["extra"])
def test_bad_model_counts_exit_2(tmp_path, capsys, bad):
    model = _train_small_model(tmp_path, capsys)
    lines = model.read_text().splitlines()
    counted = [i for i, ln in enumerate(lines)
               if ln.split(":")[0] in ("layers", "weight-matrix", "bias-vector")]
    assert len(counted) == 4
    for at in counted:
        tokens = lines[at].split()
        if bad == "extra":
            edits = [tokens + ["1"]]
        else:
            edits = [tokens[:i] + [bad] + tokens[i + 1:] for i in range(1, len(tokens))]
        for edited in edits:
            model.write_text("\n".join(lines[:at] + [" ".join(edited)] + lines[at + 1:])
                             + "\n")
            _check_rejects(capsys, model)


def _zero_boundary_model(path, last):
    """A v2 symmetric:3 model `defining -> trivial:1 -> sign`, whose
    second boundary has no nonzero intertwiner, declaring ``last`` as
    that layer's 1x1 weight."""
    path.write_text("\n".join([
        "equikit model v2", "group: symmetric:3", "activation: tanh", "layers: 2",
        "rep: defining", "rep: trivial:1", "rep: sign",
        "layer: 1", "weight-matrix: 1 3", "0.5 0.5 0.5", "bias-vector: 1", "-0.25",
        "layer: 2", "weight-matrix: 1 1", last, "end"]) + "\n")


def test_v2_zero_dim_boundary_is_checked_as_written(tmp_path, capsys):
    model = tmp_path / "zero.model"
    _zero_boundary_model(model, "0")
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 0
    assert "coverage certificate (2 generators)\n" in out and out.endswith(": PASS\n")
    _zero_boundary_model(model, "0.5")
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 1
    lines = out.splitlines()
    assert lines[-3] == "coverage generators (2 of 6)" and lines[-2].endswith(": FAIL")
    assert lines[-1].split(",")[0] in ("witness element 1", "witness element 2")


BAD_THRESHOLDS = [
    ("threshold:nan", "needs a finite threshold"),
    ("threshold:inf", "needs a finite threshold"),
    ("sign_threshold:-inf", "needs a finite threshold"),
    ("threshold:abc", "has a non-numeric threshold"),
]


# (option, value, error line); a learning rate is refused before the
# group or the network is built
BAD_TRAIN_VALUES = [
    pytest.param("--activation", activation, f"activation {activation!r} {message}",
                 id=f"{activation}-{message}")
    for activation, message in BAD_THRESHOLDS
] + [
    pytest.param("--lr", lr, f"learning rate must be finite and >= 0, got {float(lr)}",
                 id=f"lr={lr}")
    for lr in ("nan", "inf", "-inf", "-0.5")
] + [pytest.param("--seed", "-1", "--seed must be >= 0, got -1", id="seed=-1")]


def _nothing_built(*args, **kwargs):
    raise AssertionError("a group or network was built for a refused command")


@pytest.mark.parametrize("option,value,message", BAD_TRAIN_VALUES)
def test_train_bad_threshold_exits_2(tmp_path, capsys, monkeypatch, option, value, message):
    if option in ("--lr", "--seed"):
        monkeypatch.setattr(cli, "group_from_spec", _nothing_built)
        monkeypatch.setattr(cli, "build", _nothing_built)
    model = tmp_path / "model.txt"
    code, out, err = run(
        capsys, "train", "--task", "center-of-mass", "--m", "3", "--steps", "5",
        f"{option}={value}", "--out", str(model),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not model.exists()


def test_check_negative_seed_exits_2(tmp_path, capsys, monkeypatch):
    # refused by name before the model is read, as train refuses it
    model = _train_small_model(tmp_path, capsys)
    monkeypatch.setattr(cli, "load_model", _nothing_built)
    code, out, err = run(capsys, "check", "--model", str(model), "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be >= 0, got -1\n")


def test_diverging_train_prints_one_error_line(tmp_path):
    # the overflow on the way to a non-finite loss writes no numpy warning
    # to stderr, in a fresh process as a user runs it; the divergence
    # check reports it
    src = os.path.dirname(os.path.dirname(equikit.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "equikit.cli", "train", "--steps", "3", "--lr", "1e300"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: loss inf at step 1; use a smaller learning rate\n"


@pytest.mark.parametrize("activation,message", BAD_THRESHOLDS)
def test_check_model_with_bad_threshold_exits_2(tmp_path, capsys, activation, message):
    model = _train_small_model(tmp_path, capsys)
    text = model.read_text()
    assert "activation: tanh\n" in text
    model.write_text(text.replace("activation: tanh\n", f"activation: {activation}\n"))
    code, out, err = run(capsys, "check", "--model", str(model))
    assert code == 2
    assert "PASS" not in out
    assert f"activation {activation!r} {message}" in err


# basis enumerates nothing, so a group that cannot be enumerated solves
# as any other does: p4m:64 (32768 elements), cyclic:20000 (whose keys
# would take 800 MB) and symmetric:20, the last whose order fits int64
@pytest.mark.parametrize("group_spec,chain,dims", [
    pytest.param("symmetric:9", ["defining", "defining"], [2], id="symmetric:9"),
    pytest.param("symmetric:12", ["defining", "defining", "trivial:1"], [2, 1], id="symmetric:12"),
    pytest.param("symmetric:20", ["defining", "defining"], [2], id="symmetric:20"),
    pytest.param("cyclic:20000", ["defining", "trivial:1"], [1], id="cyclic:20000"),
    pytest.param("p4m:64", ["tensor:2(defining)", "sum(trivial:1;sign)"], [4], id="p4m:64"),
])
def test_basis_above_the_enumeration_cap_enumerates_nothing(tmp_path, capsys, monkeypatch,
                                                            group_spec, chain, dims):
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[model]\ngroup = {group_spec}\n\n[reps]\n"
                   + "".join(f"{i} = {spec}\n" for i, spec in enumerate(chain)))
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    group = groups.group_from_spec(group_spec)
    assert lines[0] == f"group {group_spec} (order {group.order})"
    assert [int(ln.rsplit(" ", 1)[1]) for ln in lines[1:]] == dims
    # above the order cap, or (cyclic:20000) the cap on its elements' keys
    with pytest.raises((groups.ClosureError, ValueError), match="above the|enumeration cap"):
        group.cayley


def test_basis_order_beyond_int64_exits_2(tmp_path, capsys):
    # 21! is above 2^63 - 1, the largest int64 element index
    cfg = tmp_path / "s21.cfg"
    cfg.write_text("[model]\ngroup = symmetric:21\n\n[reps]\n0 = defining\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == ("error: group symmetric:21 has at least 51090942171709440000 elements, "
                   "too many for int64 element indices\n")


def test_basis_oversized_named_group_exits_2(tmp_path, capsys, monkeypatch):
    # cyclic:29826162's one generator, as int64 targets and int8 signs,
    # would take just over 256 MiB; nothing is built
    monkeypatch.setattr(groups, "signed_permutation_matrices", _no_images)
    monkeypatch.setattr(groups, "close", _no_images)
    monkeypatch.setattr(groups, "FiniteGroup", _no_images)
    cfg = tmp_path / "huge_group.cfg"
    cfg.write_text("[model]\ngroup = cyclic:29826162\n\n[reps]\n0 = defining\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == ("error: group cyclic:29826162 has degree 29826162: its 1 generators' index "
                   "maps would take 268435458 bytes, above the cap "
                   "MAX_IMAGE_STACK_BYTES=268435456\n")


def test_basis_builds_a_dense_basis_only_to_print_it(capsys, monkeypatch):
    # the solve keeps orbit form: basis prints dims from it, and only
    # --print scatters the dense basis
    def banned(*args):
        raise AssertionError("basis built a dense basis")

    monkeypatch.setattr(intertwiners, "_dense_basis", banned)
    config = str(Path(__file__).resolve().parent.parent / "configs" / "p4m4_spec_forms.cfg")
    code, out, _ = run(capsys, "basis", "--config", config)
    assert code == 0
    assert out.count("intertwiner dim") == 2
    with pytest.raises(AssertionError, match="dense basis"):
        main(["basis", "--config", config, "--print"])


def test_basis_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 59.6 GiB")

    monkeypatch.setattr(cli, "solve_basis", out_of_memory)
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("[model]\ngroup = cyclic:3\n\n[reps]\n0 = defining\n1 = defining\n")
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert err == "error: Unable to allocate 59.6 GiB\n"


def test_basis_solves_every_boundary_before_printing(tmp_path, capsys, monkeypatch):
    # the last boundary's solve fails: nothing was printed for the first
    solve = cli.solve_basis

    def out_of_memory_at_the_last(rep_in, rep_out):
        if rep_out.degree == 1:
            raise MemoryError("Unable to allocate 59.6 GiB")
        return solve(rep_in, rep_out)

    monkeypatch.setattr(cli, "solve_basis", out_of_memory_at_the_last)
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("[model]\ngroup = cyclic:3\n\n[reps]\n0 = defining\n1 = defining\n"
                   "2 = trivial:1\n")
    for flags in ([], ["--print"]):
        code, out, err = run(capsys, "basis", "--config", str(cfg), *flags)
        assert (code, out) == (2, "")
        assert err == "error: Unable to allocate 59.6 GiB\n"


def test_basis_print_reads_every_dense_basis_before_printing(capsys, monkeypatch):
    # the dense scatter of the second of two boundaries fails: nothing
    # was printed for the group, the first boundary or the second's first
    # element
    scatter, calls = intertwiners._dense_basis, []

    def out_of_memory_at_the_last(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 59.6 GiB")
        return scatter(*args)

    monkeypatch.setattr(intertwiners, "_dense_basis", out_of_memory_at_the_last)
    config = str(Path(__file__).resolve().parent.parent / "configs" / "c4_chain.cfg")
    code, out, err = run(capsys, "basis", "--config", config, "--print")
    assert (code, out, len(calls)) == (2, "", 2)
    assert err == "error: Unable to allocate 59.6 GiB\n"


@pytest.mark.parametrize("other", ["01", "+1"])
def test_basis_two_rep_keys_naming_one_rep_exit_2(tmp_path, capsys, other):
    # int() reads each of these as 1, the key of the second rep
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("[model]\ngroup = cyclic:3\n\n[reps]\n0 = defining\n1 = defining\n"
                   f"{other} = trivial:1\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: reps.1 and reps.{other} both name rep 1\n"


def _no_images(*args):
    raise AssertionError("generator images were built for an oversized rep spec")


def test_basis_oversized_rep_spec_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reps, "_tensor_images", _no_images)
    cfg = tmp_path / "huge_rep.cfg"
    cfg.write_text("[model]\ngroup = cyclic:3\n\n"
                   "[reps]\n0 = tensor:10000000(defining)\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert "intertwiner dim" not in out
    assert "'tensor:10000000(defining)' has degree 30000000" in err
    assert "MAX_IMAGE_STACK_BYTES" in err


def test_check_model_with_oversized_rep_exits_2(tmp_path, capsys, monkeypatch):
    model = _train_small_model(tmp_path, capsys)
    text = model.read_text()
    rep_line = next(ln for ln in text.splitlines() if ln.startswith("rep:"))
    model.write_text(text.replace(rep_line, "rep: tensor:10000000(defining)", 1))
    monkeypatch.setattr(reps, "_tensor_images", _no_images)
    code, out, err = run(capsys, "check", "--model", str(model))
    assert code == 2
    assert "PASS" not in out
    assert "'tensor:10000000(defining)' has degree 30000000" in err


# --- memory: the CLI path builds no dense (|G|, n, n) stack -----------------

def _save_grid_model(path, group_spec, rep_specs):
    group = groups.group_from_spec(group_spec)
    chain = [reps.parse_rep_spec(group, spec) for spec in rep_specs]
    save_model(build(group, chain, parse_activation("tanh"), seed=1), path)


def _no_dense_stack(targets, signs):
    raise AssertionError("a dense signed-permutation stack was built")


def test_check_builds_no_dense_stack(tmp_path, capsys, monkeypatch):
    for module in (groups, reps, numerics):
        monkeypatch.setattr(module, "signed_permutation_matrices", _no_dense_stack)
    model = tmp_path / "p4m4.model"
    _save_grid_model(model, "p4m:4", ["sum(defining;sign)", "trivial:2", "trivial:1"])
    code, out, _ = run(capsys, "check", "--model", str(model), "--seed", "1")
    assert code == 0
    assert ": PASS" in out


P4M12_RUN = textwrap.dedent("""
    import io, contextlib, sys
    from equikit import activations, cli, groups, network, reps
    group = groups.group_from_spec("p4m:12")
    chain = [reps.parse_rep_spec(group, s) for s in ("defining", "trivial:2", "trivial:1")]
    net = network.build(group, chain, activations.parse_activation("tanh"), seed=1)
    network.save_model(net, sys.argv[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--model", sys.argv[1], "--seed", "1"])
    status = open("/proc/self/status").read()
    peak_kb = int(status.split("VmHWM:")[1].split()[0])
    print(code)
    print(out.getvalue().splitlines()[-1])
    print(peak_kb)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_p4m12_build_save_check_peak_rss(tmp_path):
    # |G| = 1152, n = 144: one dense image stack alone would be 191 MB.
    # The child reports VmHWM, the peak resident set of its own address
    # space: Linux folds the launching process's peak into a child's
    # ru_maxrss at exec, so ru_maxrss would count this test process too.
    src = os.path.dirname(os.path.dirname(equikit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", P4M12_RUN, str(tmp_path / "p4m12.model")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    code, verdict, peak_kb = result.stdout.splitlines()
    assert code == "0"
    assert verdict.endswith(": PASS")
    assert int(peak_kb) / 1024 < 150


# --- the certified path enumerates no group element ------------------------

def _no_enumeration(*args, **kwargs):
    raise AssertionError("an element was enumerated or walked on the certified path")


def test_certified_path_enumerates_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    monkeypatch.setattr(groups, "_walk", _no_enumeration)
    monkeypatch.setattr(reps, "_walk", _no_enumeration)
    model = tmp_path / "com.model"
    code, out, _ = run(capsys, "train", "--m", "5", "--steps", "5", "--out", str(model))
    assert code == 0 and "parameters 28 vs dense 285 " in out
    code, out, _ = run(capsys, "check", "--model", str(model))
    assert code == 0 and "coverage certificate (2 generators)\n" in out

    grid = tmp_path / "p4m8.model"
    _save_grid_model(grid, "p4m:8", ["defining", "trivial:2", "trivial:1"])
    code, out, _ = run(capsys, "check", "--model", str(grid))
    assert code == 0 and "coverage certificate (4 generators)\n" in out
    set_first_declared_weight(grid, "2.25")
    code, out, _ = run(capsys, "check", "--model", str(grid))
    assert code == 1
    lines = out.splitlines()
    assert lines[-3] == "coverage generators (4 of 512)" and lines[-2].endswith(": FAIL")
    witness = int(lines[-1].split(",")[0].removeprefix("witness element "))
    monkeypatch.undo()
    assert witness in groups.group_from_spec("p4m:8").cayley[0]


def _reversed_leaf(group_spec):
    """``perm:`` spec of a named group's own generator maps with the
    points numbered in reverse."""
    maps = groups.group_from_spec(group_spec).gen_arrays[0]
    flip = np.arange(maps.shape[1])[::-1]
    return "perm:" + "|".join(",".join(map(str, flip[m[flip]])) for m in maps)


@pytest.mark.parametrize("group_spec, chain", [
    ("symmetric:6", ["tensor:3(sum({leaf};sign))"] * 2),
    ("p4m:4", ["{leaf}", "{leaf}", "trivial:1"]),
])
def test_basis_on_perm_leaves_enumerates_nothing(tmp_path, capsys, monkeypatch,
                                                 group_spec, chain):
    # a perm: leaf is checked against the group's relators, so basis on a
    # chain of them neither enumerates the group nor walks an element
    chain = [spec.format(leaf=_reversed_leaf(group_spec)) for spec in chain]
    group = groups.group_from_spec(group_spec)
    parsed = [reps.parse_rep_spec(group, spec) for spec in chain]
    oracle = [intertwiners.hom_dim_oracle(a, b) for a, b in zip(parsed, parsed[1:])]
    cfg = tmp_path / "leaves.cfg"
    cfg.write_text(f"[model]\ngroup = {group_spec}\n\n[reps]\n"
                   + "".join(f"{i} = {spec}\n" for i, spec in enumerate(chain)))
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    monkeypatch.setattr(groups, "_walk", _no_enumeration)
    monkeypatch.setattr(reps, "_walk", _no_enumeration)
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert [int(ln.rsplit(" ", 1)[1]) for ln in out.splitlines()
            if "intertwiner dim" in ln] == oracle


@pytest.mark.parametrize("term", ["sum(", "tensor:1("])
def test_a_deeply_nested_rep_spec_exits_2_naming_it(tmp_path, capsys, term):
    deep = term * 2000 + "defining" + ")" * 2000
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(f"[model]\ngroup = cyclic:3\n\n[reps]\n0 = {deep}\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: reps: rep spec {deep[:60] + '...'!r} is nested too deeply\n"
    shallow = term * 300 + "defining" + ")" * 300
    cfg.write_text(f"[model]\ngroup = cyclic:3\n\n[reps]\n0 = {shallow}\n1 = defining\n")
    code, out, _ = run(capsys, "basis", "--config", str(cfg))
    assert code == 0 and out.endswith("intertwiner dim 3\n")


# --- p4m:64, above the enumeration cap ---------------------------------------

# the parity of a translation, fixed by the quarter turn and the
# reflection: a hidden permutation rep of degree 2 that fixes only
# constant biases
P4M64_PARITY = "perm:1,0|1,0|0,1|0,1"
P4M64_CAP = ("FiniteGroup(p4m:64, dim=4096, order=32768) has more elements than the "
             "enumeration cap MAX_ORDER=20000")


def test_hom_dim_oracle_above_the_enumeration_cap_raises_before_the_bfs(monkeypatch):
    group = groups.group_from_spec("p4m:64")
    rep_in, rep_out = (reps.parse_rep_spec(group, spec) for spec in ("defining", "trivial:1"))
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    with pytest.raises(groups.ClosureError) as info:
        intertwiners.hom_dim_oracle(rep_in, rep_out)
    assert str(info.value) == P4M64_CAP


def test_check_above_the_enumeration_cap(tmp_path, capsys, monkeypatch):
    # the certificate covers the intact model without enumerating; a bias
    # entry moved by one ulp passes the generator sweep but breaks the
    # certificate, and the element sweep it falls back to would enumerate
    # the group: exit 2 naming the cap, with nothing on stdout
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    model = tmp_path / "p4m64.model"
    _save_grid_model(model, "p4m:64", ["defining", P4M64_PARITY, "trivial:1"])
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, err) == (0, "")
    assert "coverage certificate (4 generators)\n" in out and out.endswith(": PASS\n")
    lines = model.read_text().splitlines()
    first = float(lines[next(i for i, ln in enumerate(lines) if ln.startswith("bias-vector:")) + 1]
                  .split()[0])
    set_first_declared_weight(model, repr(math.nextafter(first, math.inf)), header="bias-vector:")
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out) == (2, "")
    assert err == f"error: {P4M64_CAP}\n"


def test_basis_wrong_perm_leaf_above_the_enumeration_cap_exits_2(tmp_path, capsys, monkeypatch):
    # a -> identity, b -> swap fails q a q^-1 b, and the message names
    # that relator, as it does at every size: the relators alone decide
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    cfg = tmp_path / "wrong_leaf.cfg"
    cfg.write_text("[model]\ngroup = p4m:64\n\n[reps]\n0 = defining\n"
                   "1 = perm:0,1|1,0|0,1|0,1\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == ("error: reps: generator images are inconsistent: they fail the defining "
                   "relator g2 g0 g2^-1 g1 of p4m:64\n")
    cfg.write_text("[model]\ngroup = p4m:64\n\n[reps]\n0 = defining\n"
                   f"1 = {P4M64_PARITY}\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, err) == (0, "") and out.endswith("intertwiner dim 2\n")


@pytest.mark.parametrize("spec, relator", [("p4m:50", "g2 g0 g2^-1 g1"),
                                            ("cyclic:20000", "g0^20000")])
def test_basis_wrong_perm_leaf_at_the_enumeration_cap_names_its_relator(tmp_path, capsys,
                                                                        monkeypatch, spec,
                                                                        relator):
    # at the cap, a wrong leaf is decided as above it: p4m:50's own maps
    # with b's replaced by a's, and a 3-cycle of cyclic:20000, whose
    # elements' codes would pass the enumeration cap but not the bytes cap
    monkeypatch.setattr(groups, "_bfs", _no_enumeration)
    maps = groups.group_from_spec(spec).gen_arrays[0].copy()
    if spec == "p4m:50":
        maps[1] = maps[0]
    else:
        maps[0] = np.arange(20000)
        maps[0, :3] = [1, 2, 0]
    leaf = "perm:" + "|".join(",".join(map(str, m)) for m in maps.tolist())
    cfg = tmp_path / "wrong_leaf.cfg"
    cfg.write_text(f"[model]\ngroup = {spec}\n\n[reps]\n0 = {leaf}\n1 = trivial:1\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == ("error: reps: generator images are inconsistent: they fail the defining "
                   f"relator {relator} of {spec}\n")


def test_a_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # the reader closes the pipe after one line, as `| head -1` does,
    # while basis still has far more than a pipe buffer to print
    cfg = tmp_path / "c64.cfg"
    cfg.write_text("[model]\ngroup = cyclic:64\n\n[reps]\n0 = defining\n1 = defining\n")
    src = os.path.dirname(os.path.dirname(equikit.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "equikit.cli", "basis", "--config", str(cfg),
                             "--print"], env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"group cyclic:64 (order 64)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert (code, err) == (141, b"")
