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

Rep keys are consecutive integers from 0; they order the layer chain.
``basis``, the only reader of a config, reads ``group`` and [reps]. The
[model] keys ``activation`` (an activation spec), ``seed`` (an integer)
and ``tol`` (a finite positive float) are validated and unused: every
rep the spec language builds takes the exact orbit path of
``solve_basis``, which uses no tolerance.
"""

import configparser
from dataclasses import dataclass

from .activations import parse_activation
from .numerics import check_tol


class ConfigError(ValueError):
    """Config problem, with a section/field path in the message."""


@dataclass
class ModelConfig:
    group_spec: str
    rep_specs: list


def parse_config(path):
    # no interpolation: a '%' in a value reaches the value's own parser
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not parser.has_section("model"):
        raise ConfigError("missing [model] section")
    model = dict(parser.items("model"))
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
    try:
        tol = float(model.pop("tol", "1e-9"))
    except ValueError:
        raise ConfigError("model.tol must be a float") from None
    try:
        check_tol(tol)
    except ValueError as exc:
        raise ConfigError(f"model.tol: {exc}") from None
    if model:
        key = sorted(model)[0]
        raise ConfigError(f"model.{key}: unknown field")

    if not parser.has_section("reps"):
        raise ConfigError("missing [reps] section")
    entries = {}
    for key, value in parser.items("reps"):
        try:
            idx = int(key)
        except ValueError:
            raise ConfigError(f"reps.{key}: keys must be integers") from None
        entries[idx] = value
    if not entries:
        raise ConfigError("reps section is empty")
    expected = list(range(len(entries)))
    if sorted(entries) != expected:
        raise ConfigError(
            f"reps keys must be consecutive from 0, got {sorted(entries)}"
        )
    if len(entries) < 2:
        raise ConfigError("need at least two reps (input and output)")
    rep_specs = [entries[i] for i in expected]
    return ModelConfig(group_spec, rep_specs)
