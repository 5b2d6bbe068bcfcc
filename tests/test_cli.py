import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from helpers import set_first_declared_weight

import equikit
from equikit import cli, groups, network, numerics, reps
from equikit.activations import parse_activation
from equikit.cli import main
from equikit.network import build, load_model, save_model

DEEPSETS_CFG = """\
[model]
group = symmetric:4
activation = relu
seed = 7
tol = 1e-9

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
# is replayed and checked)
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
    # the cap counts the int64 signed codes of symmetric:3's six elements
    "tensor:99999999999(defining)": (
        "rep spec 'tensor:99999999999(defining)' has degree 299999999997: its 6 "
        "elements' data would take 14399999999856 bytes, above the cap "
        "MAX_IMAGE_STACK_BYTES=268435456"),
    "sum(sign;tensor:3(perm:1,0,2|1,0,2))": (
        "generator images are inconsistent: element 3 * generator 0 deviates by 1.000e+00"),
    "sum(perm:1,2,0|0,1,2;perm:1,0,2|1,0,2)": (
        "generator images are inconsistent: element 1 * generator 0 deviates by 1.000e+00"),
}


@pytest.mark.parametrize("spec", sorted(REP_SPEC_ERRORS))
def test_basis_bad_rep_spec_exits_2_with_its_message(tmp_path, capsys, spec):
    cfg = tmp_path / "bad_rep.cfg"
    cfg.write_text(f"[model]\ngroup = symmetric:3\n\n[reps]\n0 = {spec}\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: reps: {REP_SPEC_ERRORS[spec]}\n"


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
    cfg = tmp_path / "bad_tol.cfg"
    cfg.write_text(
        f"[model]\ngroup = symmetric:4\ntol = {tol}\n\n"
        "[reps]\n0 = defining\n1 = defining\n"
    )
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert "intertwiner dim" not in out
    assert "tol must be finite and positive" in err


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
    # seed, like activation and tol, is validated though basis does not use it
    cfg = tmp_path / "bad_seed.cfg"
    cfg.write_text(
        f"[model]\ngroup = symmetric:4\nseed = {seed}\n\n"
        "[reps]\n0 = defining\n1 = defining\n"
    )
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "model.seed must be an integer" in err


def test_check_unreadable_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "check", "--model", str(bad))
    assert code == 2
    assert "error" in err


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


V1_DATA = Path(__file__).resolve().parent / "data"
V1_COM_MODEL = V1_DATA / "com_tanh300_v1.model"  # S_5, 28 coefficients


def _v1_model(tmp_path):
    """A copy of the v1 center-of-mass model, which has coefficient lines."""
    model = tmp_path / "v1.model"
    model.write_text(V1_COM_MODEL.read_text())
    return model


@pytest.mark.parametrize("prefix", [
    "layers:", "weight-coeffs:", "bias-coeffs:", "weight-matrix:", "bias-vector:",
])
def test_check_non_integer_count_exits_2(tmp_path, capsys, prefix):
    if prefix.endswith("coeffs:"):
        model = _v1_model(tmp_path)
    else:
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


@pytest.mark.parametrize("prefix,count,message", [
    ("weight-coeffs:", "3",
     "layer 1: file has 3 weight coefficients but the basis dimension is 18"),
    ("bias-coeffs:", "2",
     "layer 1: file has 2 bias coefficients but the bias space dimension is 1"),
])
def test_check_v1_coefficient_count_mismatch_exits_2(tmp_path, capsys, prefix, count,
                                                     message):
    model = _v1_model(tmp_path)
    text = model.read_text()
    at = text.index(prefix)
    end = text.index("\n", at)
    model.write_text(text[:at] + f"{prefix} {count}" + text[end:])
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def _model_files(tmp_path, capsys):
    """(v2 path, v1 path) of small center-of-mass models."""
    return _train_small_model(tmp_path, capsys), _v1_model(tmp_path)


def test_truncated_model_files_exit_2(tmp_path, capsys):
    for model in _model_files(tmp_path, capsys):
        lines = model.read_text().splitlines()
        for keep in range(len(lines)):
            model.write_text("".join(ln + "\n" for ln in lines[:keep]))
            assert _check_rejects(capsys, model) == "error: unexpected end of model file\n"


BAD_COUNTS = ["2.5", "two", "-1", "-3", "0", str(10 ** 18), "1e9"]


@pytest.mark.parametrize("bad", BAD_COUNTS + ["extra"])
def test_bad_model_counts_exit_2(tmp_path, capsys, bad):
    for model in _model_files(tmp_path, capsys):
        lines = model.read_text().splitlines()
        counted = [i for i, ln in enumerate(lines)
                   if ln.split(":")[0] in ("layers", "weight-coeffs", "bias-coeffs",
                                           "weight-matrix", "bias-vector")]
        assert len(counted) == (7 if model.name == "v1.model" else 4)
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


@pytest.mark.parametrize("activation,message", BAD_THRESHOLDS)
def test_train_bad_threshold_exits_2(tmp_path, capsys, activation, message):
    model = tmp_path / "model.txt"
    code, out, err = run(
        capsys, "train", "--task", "center-of-mass", "--m", "3", "--steps", "5",
        "--activation", activation, "--out", str(model),
    )
    assert code == 2
    assert out == ""
    assert f"activation {activation!r} {message}" in err
    assert not model.exists()


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


def test_basis_oversize_group_exits_2(tmp_path, capsys, monkeypatch):
    def close_must_not_run(*args, **kwargs):
        raise AssertionError("close() ran for a group above the cap")

    monkeypatch.setattr(groups, "close", close_must_not_run)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[model]\ngroup = symmetric:9\n\n[reps]\n0 = defining\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "symmetric:9 has at least" in err and "max_order=20000" in err


def test_basis_oversized_named_group_exits_2(tmp_path, capsys, monkeypatch):
    # cyclic:11586 passes the order cap, but its elements' int16 index
    # arrays would take 268 MB
    monkeypatch.setattr(groups, "permutation_matrix", _no_images)
    monkeypatch.setattr(groups, "close", _no_images)
    monkeypatch.setattr(groups, "FiniteGroup", _no_images)
    cfg = tmp_path / "huge_group.cfg"
    cfg.write_text("[model]\ngroup = cyclic:11586\n\n[reps]\n0 = defining\n1 = defining\n")
    code, out, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "group cyclic:11586 has degree 11586" in err
    assert "MAX_IMAGE_STACK_BYTES" in err


def test_basis_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 59.6 GiB")

    monkeypatch.setattr(cli, "solve_basis", out_of_memory)
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("[model]\ngroup = cyclic:3\n\n[reps]\n0 = defining\n1 = defining\n")
    code, _, err = run(capsys, "basis", "--config", str(cfg))
    assert code == 2
    assert err == "error: Unable to allocate 59.6 GiB\n"


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
