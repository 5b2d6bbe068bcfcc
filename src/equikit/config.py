"""Config files for the CLI: an INI-style [model] / [reps] layout.

Example::

    [model]
    group = symmetric:5
    activation = tanh
    seed = 7

    [reps]
    0 = tensor:3(defining)
    1 = tensor:3(defining)
    2 = trivial:3

Rep keys are integers that name 0, 1, ... once each (``1`` and ``01``
name the same rep, and are refused together); they order the layer
chain. ``basis``, the only reader of a config, reads ``group`` and
[reps]. The [model] keys ``activation`` (an activation spec) and
``seed`` (an integer) are validated and unused. There is no ``tol`` key
(it is refused as an unknown field): every rep the spec language builds
takes the exact orbit path of ``solve_basis``, which uses no tolerance.

``_read_sections`` reads a file as the standard library's
``ConfigParser(interpolation=None)`` with case-kept keys reads it, as
``tests/test_config.py`` checks against that parser:

- Lines are split in universal-newline mode (``\n``, ``\r\n``, ``\r``).
- A line whose stripped text starts with ``#`` or ``;`` is a comment;
  there are no inline comments. A ``%`` is plain text.
- A header is the stripped line's longest prefix ``[name]``: ``[model] x``
  opens [model], and ``[ reps ]`` opens a section named `` reps ``.
- A key line is ``key = value`` or ``key: value``; the first ``=`` or
  ``:`` splits it, and key and value are stripped.
- A line indented deeper than the last key line, with no header
  between, continues that key's value, joined with a newline; blank
  lines inside a value are kept only when a continuation line follows.
- [DEFAULT] may appear more than once, and its keys are merged under
  every other section's own.
- An empty key, a line that is neither a header nor a key line, a key
  line before the first header, a repeated section other than
  [DEFAULT], and a key repeated within a section are errors:
  ``config parse error: line N: ...``.
"""

import re
from dataclasses import dataclass

from .activations import parse_activation

# a key line, with the default delimiters of the standard INI reader:
# the first '=' or ':' splits it
_KEY_LINE = re.compile(r"(.*?)\s*[=:]\s*(.*)$")


class ConfigError(ValueError):
    """Config problem, with a section/field path in the message."""


@dataclass
class ModelConfig:
    group_spec: str
    rep_specs: list


def _parse_error(lineno, what):
    return ConfigError(f"config parse error: line {lineno}: {what}")


def _read_sections(path):
    """The sections of the config at ``path``, ``{name: {key: value}}``,
    read by the grammar in the module docstring, with [DEFAULT]'s keys
    merged under each other section's own."""
    sections = {}
    keys = key = None  # the open section's {key: [value lines]}, its last key
    indent = 0  # of the last header or key line
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text:
                    if key:  # kept only if a continuation line follows
                        keys[key].append("")
                    continue
                if text[0] in "#;":
                    continue
                depth = len(line) - len(line.lstrip())
                if key and depth > indent:
                    keys[key].append(text)
                    continue
                indent = depth
                close = text.rfind("]")
                if text[0] == "[" and close > 1:
                    name = text[1:close]
                    if name in sections and name != "DEFAULT":
                        raise _parse_error(lineno, f"section [{name}] repeats")
                    keys = sections.setdefault(name, {})
                    key = None
                    continue
                if keys is None:
                    raise _parse_error(lineno, "a key line before the first [section] header")
                match = _KEY_LINE.match(text)
                if match is None:
                    raise _parse_error(lineno, "expected 'key = value' or a [section] header")
                key, value = match.groups()
                if not key:
                    raise _parse_error(lineno, "empty key")
                if key in keys:
                    raise _parse_error(lineno, f"key {key!r} repeats in its section")
                keys[key] = [value]
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    default = sections.pop("DEFAULT", {})
    return {name: {k: "\n".join(v).rstrip() for k, v in {**default, **own}.items()}
            for name, own in sections.items()}


def parse_config(path):
    sections = _read_sections(path)
    model = sections.get("model")
    if model is None:
        raise ConfigError("missing [model] section")
    if "group" not in model:
        raise ConfigError("model.group is required")
    group_spec = model.pop("group")
    try:
        parse_activation(model.pop("activation", "relu"))
    except ValueError as exc:
        raise ConfigError(f"model.activation: {exc}") from None
    try:
        int(model.pop("seed", "0"))
    except ValueError:
        raise ConfigError("model.seed must be an integer") from None
    if model:
        key = sorted(model)[0]
        raise ConfigError(f"model.{key}: unknown field")

    if "reps" not in sections:
        raise ConfigError("missing [reps] section")
    entries = {}
    for key, value in sections["reps"].items():
        try:
            idx = int(key)
        except ValueError:
            raise ConfigError(f"reps.{key}: keys must be integers") from None
        if idx in entries:  # int() reads '1', '01' and '+1' alike
            raise ConfigError(f"reps.{entries[idx][0]} and reps.{key} both name rep {idx}")
        entries[idx] = key, value
    if not entries:
        raise ConfigError("reps section is empty")
    expected = list(range(len(entries)))
    if sorted(entries) != expected:
        raise ConfigError(
            f"reps keys must be consecutive from 0, got {sorted(entries)}"
        )
    if len(entries) < 2:
        raise ConfigError("need at least two reps (input and output)")
    rep_specs = [entries[i][1] for i in expected]
    return ModelConfig(group_spec, rep_specs)
