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
from helpers import set_first_declared_weight

from equikit import activations, groups, network, reps
from equikit.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASIS_PRINT_SHA256 = {
    "c4_chain": "39d67042f6fd020b3d634d8629115c79eb59e99015e7db9d84c86e199d9d7d17",
    "deepsets_s5": "40d41b31621ab618de23d2c78e4096ed0f21661912e3a84b9e2d629413e174ce",
    "p4_grid2": "02f9da633f9cef29bcde73688a87b11a10a4e9a280f048443535819182290a24",
    "p4m4_spec_forms": "cfb6609c70df6d6f6b611a0db8bd91cedd1d7b8c4fc72750dff16b7a75d6cfe1",
}

# (argv after "--exact train", stdout sha256, v2 model file sha256)
TRAIN_RUNS = {
    "tanh-300": (
        ["--steps", "300"],
        "f2dbb9c0b78e08fa8afaafe6c38a21f183263838c57ebd8229abbe13a8510d4a",
        "79fc87ea24be6e6a2e8dcfc35831d2d5e71e16ae68612eb45693d2ad9eae02ce",
    ),
    "relu-200": (
        ["--m", "4", "--seed", "3", "--activation", "relu", "--steps", "200"],
        "c3e8905347dc0961f3b6d8fa49bc0709a88511d7b8f9c86dfc95f00b609f9f17",
        "1379d10dbc822616e66a1cdc8260023deb406646c877235d41cdbe7d0dd4f142",
    ),
    "threshold-200": (
        ["--activation", "threshold:0.5", "--steps", "200"],
        "5492df798dfe5181079a031c7bc53aedb60fcdb617c82341b9799ba38cc8b379",
        "298cfb0e58afe560e9ff611ebc7cc4ceb0cfcffd4f6818d5d38d30f915fed7fa",
    ),
}

# stdout sha256 of the same runs at default precision (no --exact): the
# %.6g figures a user reads, which last-bit changes must not move
TRAIN_DEFAULT_SHA256 = {
    "tanh-300": "ac7961c17fdc2d3d2af700844d003f8c88245d78458d3880d1b69ec6e0b25c38",
    "relu-200": "4b4db6838e313bd14e152a2b990646a3dd237d85e042a773b316048a4ae12ff7",
    "threshold-200": "79275545fc9c34e3b9edf4e1bf34fcd2cf6631a1631bd8dd8922952a525deea0",
}

CHECK_TANH_300_SHA256 = "6445392f7744bd301e0706019c5f2a4368c9700583b98f1fc268445b598efbad"

# p4m:4 defining -> trivial:2 -> trivial:1 (tanh, seed 0), built with the
# library and written with save_model as M; then `--exact check` on M
# intact (coverage certificate) and on its copy T with the first declared
# weight replaced by 2.25 (coverage generators). The witness names a
# generator by its BFS index, so this pins the grid closure too.
GRID_MODEL_SHA256 = "da2fb9c40d2502a145b33307ff3e06f75bd931e820c47e6b1849a125cf005860"
GRID_CHECK_SHA256 = "5a0f2ef4da86bca8dd5f95434d9ef521d491ca509c86cd7f54a54b43f5cfc17f"
GRID_CHECK_TAMPERED_SHA256 = "4ecf2dc9de15fd3ec04ea07dac20f6c2fd29f6192ac6ed80ca8e9de90ed40d27"


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
    assert sha256((tmp_path / "M").read_bytes()) == GRID_MODEL_SHA256
    code, out = run(capsys, "--exact", "check", "--model", "M")
    assert code == 0
    assert sha256(out) == GRID_CHECK_SHA256
    (tmp_path / "T").write_bytes((tmp_path / "M").read_bytes())
    set_first_declared_weight(tmp_path / "T", "2.25")
    code, tampered = run(capsys, "--exact", "check", "--model", "T")
    assert code == 1
    assert sha256(tampered) == GRID_CHECK_TAMPERED_SHA256
