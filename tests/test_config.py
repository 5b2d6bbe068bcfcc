import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import configparser_sections

import equikit
from equikit import config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# atoms of the fuzzed configs: headers (prefix matches and padded names
# among them), whitespace (\x0b is whitespace to str.strip but no line
# break in universal-newline mode), key and value tokens, delimiters,
# comment prefixes and the three line endings
HEADERS = ["[model]", "[reps]", "[DEFAULT]", "[x]", "[model] z", "[ reps ]", "[]"]
SPACES = ["", "", " ", "  ", "\t", "\x0b"]
WORDS = ["", "0", "1", "A", "a", "group", "defining", "x y", "%", "#", ";", "]", "=", ":"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]
ATOMS = HEADERS + SPACES + WORDS + ENDINGS


def _fuzzed_line(rng):
    # a header, a key line, or up to four atoms, behind an indent
    kind = rng.randrange(3)
    if kind == 0:
        body = rng.choice(HEADERS)
    elif kind == 1:
        body = "".join([rng.choice(WORDS), rng.choice(SPACES), rng.choice("=:"),
                        rng.choice(SPACES), rng.choice(WORDS)])
    else:
        body = "".join(rng.choices(ATOMS, k=rng.randint(0, 4)))
    return rng.choice(SPACES) + body + rng.choice(ENDINGS)


def _outcome(read, path):
    try:
        return read(path)
    except ValueError:
        return ValueError


def _write(path, text):
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        with open(path, "w", newline="") as fh:  # line endings as written
            fh.write(text)


# one case per reading rule, with what both readers return
RULES = {
    "[model] z\na: b = c\n": {"model": {"a": "b = c"}},
    "[ reps ]\n0=x\n#k = v\n  ; k = v\n": {" reps ": {"0": "x"}},
    "[a]b]\nk :\n": {"a]b": {"k": ""}},
    "[s]\nk = 1\n\n  2\n\n\n": {"s": {"k": "1\n\n2"}},
    "[s]\r\n  k = 1\r    [t]\n  j = 2\n": {"s": {"k": "1\n[t]", "j": "2"}},
    "[s]\nk = 1\n\x0b\n": {"s": {"k": "1"}},
    "[DEFAULT]\nk = d\n[s]\nk = own\n[DEFAULT]\nj = e\n[t]\n": {
        "s": {"k": "own", "j": "e"}, "t": {"k": "d", "j": "e"}},
    "[s]\nK = 1\nk = %(x)s\n": {"s": {"K": "1", "k": "%(x)s"}},
    "k = v\n": ValueError,
    "[s]\n= v\n": ValueError,
    "[s]\nno delimiter\n": ValueError,
    "[s]\n[s]\n": ValueError,
    "[s]\nk = 1\nk = 2\n": ValueError,
    "[DEFAULT]\nk = 1\n[DEFAULT]\nk = 2\n": ValueError,
    "[]\n": ValueError,
    b"[s]\nk = \xff\n": ValueError,
}


@pytest.mark.parametrize("text", list(RULES), ids=range(len(RULES)))
def test_reading_rules(tmp_path, text):
    path = tmp_path / "rule.cfg"
    _write(path, text)
    assert _outcome(configparser_sections, path) == RULES[text]
    assert _outcome(config._read_sections, path) == RULES[text]


def test_reader_matches_the_standard_parser(tmp_path):
    # the shipped configs and 3000 seeded texts: the same sections, keys
    # and values, or an error from both
    rng = random.Random(28)
    texts = [p.read_text() for p in sorted(CONFIGS.glob("*.cfg"))]
    texts += ["".join(_fuzzed_line(rng) for _ in range(rng.randint(1, 8)))
              for _ in range(3000)]
    path = tmp_path / "fuzzed.cfg"
    read = multiline = 0
    for text in texts:
        _write(path, text)
        want = _outcome(configparser_sections, path)
        assert _outcome(config._read_sections, path) == want, repr(text)
        if want is not ValueError:
            read += 1
            multiline += any("\n" in v for keys in want.values() for v in keys.values())
    # accepted texts, rejected texts and continued values are all well sampled
    assert 300 < read < len(texts) - 300 and multiline > 20


def test_cli_import_leaves_configparser_unloaded(tmp_path):
    # the reader is the package's own: a fresh process importing the CLI
    # loads no configparser
    src = os.path.dirname(os.path.dirname(equikit.__file__))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, equikit.cli; print('configparser' in sys.modules)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert (result.returncode, result.stdout) == (0, "False\n")
