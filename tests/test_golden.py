"""Byte-level golden outputs of the CLI.

Each case pins the sha256 of a command's stdout (and of the model file
it writes), so any change in a basis value, its layout, or the order of
floating-point operations in training shows up as a failure. Commands
run in-process from the test's temporary directory, so a written model
is named by a relative path that is the same on every run.
"""

import hashlib
from pathlib import Path

import pytest

from equikit import activations, groups, network, reps
from equikit.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASIS_PRINT_SHA256 = {
    "c4_chain": "39d67042f6fd020b3d634d8629115c79eb59e99015e7db9d84c86e199d9d7d17",
    "deepsets_s5": "40d41b31621ab618de23d2c78e4096ed0f21661912e3a84b9e2d629413e174ce",
    "p4_grid2": "02f9da633f9cef29bcde73688a87b11a10a4e9a280f048443535819182290a24",
    "p4m4_spec_forms": "cfb6609c70df6d6f6b611a0db8bd91cedd1d7b8c4fc72750dff16b7a75d6cfe1",
}

# (argv after "--exact train", stdout sha256, model file sha256)
TRAIN_RUNS = {
    "tanh-300": (
        ["--steps", "300"],
        "c60bd48cc6bb6ee4c966b00c34e30021a12beadb56040dac909b2ebe10fbc4a6",
        "4f4667fe025c4b42901771df785d236c52c7e91a2d3bf59a34239c07c028a4b1",
    ),
    "relu-200": (
        ["--m", "4", "--seed", "3", "--activation", "relu", "--steps", "200"],
        "7313564657894b5dbdd1a72e4c2583f607cd26a7ed3ab906dc9a4183ff992e8f",
        "881adf462438874f6b2254535e15baca99f24214a431ee8b7d22b40a6b770d56",
    ),
    "threshold-200": (
        ["--activation", "threshold:0.5", "--steps", "200"],
        "5492df798dfe5181079a031c7bc53aedb60fcdb617c82341b9799ba38cc8b379",
        "e96446988edb48c8e14bf09f475a440b4a5d4501f5b68407c5a428e502ca71bb",
    ),
}

# stdout sha256 of the same runs at default precision (no --exact): the
# %.6g figures a user reads, which last-bit changes must not move
TRAIN_DEFAULT_SHA256 = {
    "tanh-300": "ac7961c17fdc2d3d2af700844d003f8c88245d78458d3880d1b69ec6e0b25c38",
    "relu-200": "4b4db6838e313bd14e152a2b990646a3dd237d85e042a773b316048a4ae12ff7",
    "threshold-200": "79275545fc9c34e3b9edf4e1bf34fcd2cf6631a1631bd8dd8922952a525deea0",
}

CHECK_TANH_300_SHA256 = "e8c31429bbc3c4bc3ac2d4442e1b53c94c3f84d9de1d81c1d0b508c2e5616a91"

# p4m:4 defining -> trivial:2 -> trivial:1 (tanh, seed 0), built with the
# library and written with save_model; then `--exact check` on it intact
# (coverage certificate) and with its first declared weight replaced by
# 2.25 (coverage generators). The witness names a generator by its BFS
# index, so this pins the grid closure too.
GRID_MODEL_SHA256 = "b68510d63a2fc6c1aace0838f4dafc7407285c4a84879906a87b921c1ef555fa"
GRID_CHECK_SHA256 = "5a0f2ef4da86bca8dd5f95434d9ef521d491ca509c86cd7f54a54b43f5cfc17f"
GRID_CHECK_TAMPERED_SHA256 = "6d45f7b315efbd432e5ef0c301cb58191cbe354ef4eb15ef818e0e133920b84a"


def sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(BASIS_PRINT_SHA256))
def test_basis_print_bytes(name, capsys):
    code, out = run(capsys, "--exact", "basis", "--config", str(CONFIGS / f"{name}.cfg"),
                    "--print")
    assert code == 0
    assert sha256(out) == BASIS_PRINT_SHA256[name]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_basis_print_has_no_negative_zero(config, exact, capsys):
    # every zero of a solved basis is +0.0, on the orbit and dense paths alike
    code, out = run(capsys, *(["--exact"] if exact else []), "basis", "--config",
                    str(config), "--print")
    assert code == 0
    assert "basis element 0:" in out
    assert "-0" not in out.split()


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_train_bytes(name, tmp_path, monkeypatch, capsys):
    argv, out_sha, model_sha = TRAIN_RUNS[name]
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "--exact", "train", *argv, "--out", "M")
    assert code == 0
    assert sha256(out) == out_sha
    assert sha256((tmp_path / "M").read_bytes()) == model_sha
    if name == "tanh-300":
        code, out = run(capsys, "--exact", "check", "--model", "M")
        assert code == 0
        assert sha256(out) == CHECK_TANH_300_SHA256


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_train_default_precision_bytes(name, tmp_path, monkeypatch, capsys):
    argv = TRAIN_RUNS[name][0]
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "train", *argv, "--out", "M")
    assert code == 0
    assert sha256(out) == TRAIN_DEFAULT_SHA256[name]


def test_grid_model_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    group = groups.group_from_spec("p4m:4")
    chain = [reps.parse_rep_spec(group, spec)
             for spec in ("defining", "trivial:2", "trivial:1")]
    net = network.build(group, chain, activations.parse_activation("tanh"), seed=0)
    network.save_model(net, "M")
    text = (tmp_path / "M").read_text()
    assert sha256(text) == GRID_MODEL_SHA256
    code, out = run(capsys, "--exact", "check", "--model", "M")
    assert code == 0
    assert sha256(out) == GRID_CHECK_SHA256

    lines = text.splitlines()
    row = next(i + 1 for i, ln in enumerate(lines) if ln.startswith("weight-matrix:"))
    tokens = lines[row].split()
    tokens[0] = "2.25"
    lines[row] = " ".join(tokens)
    (tmp_path / "T").write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "--exact", "check", "--model", "T")
    assert code == 1
    assert sha256(out) == GRID_CHECK_TAMPERED_SHA256
