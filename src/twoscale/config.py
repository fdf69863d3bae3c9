"""Run configuration: INI-style text in, validated typed config out.

Every key has a default, so the empty string is a valid configuration.
The parser itself rejects unknown sections or keys, a [coefficient] key
that the chosen family does not take, type mismatches and non-finite
numbers. Every other rule lives in the constructor that owns the value:
the parser builds each component once and re-raises its rejection with
the line and the dotted field name of the offender.

The content digest hashes the canonical JSON form of the typed values
(defaults filled, keys sorted), so key order and comments never change
it. The output directory is placement rather than content and stays out
of the digest; the master seed is part of it.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

from .cell import CellGrid
from .coefficients import FAMILIES, CoefficientField, make_coefficient
from .diagnostics import StudyConfig, check_ladder
from .errors import ConfigError, ValidationError
from .grid import GridSpec
from .integrator import STEPPED_VARIANTS, StepperConfig
from .models import ModelSpec
from .noise import QWienerSpec

__all__ = ["RunConfig", "parse_config", "config_digest"]

_FLOAT_LIST = "float_list"
_OPT_INT = "optional_int"

# section -> key -> (type, default)
_SCHEMA: dict[str, dict[str, tuple[object, object]]] = {
    "grid": {
        "dimension": (int, 1),
        "cells": (int, 256),
    },
    # every family's parameters with make_coefficient's defaults
    "coefficient": {
        "family": (str, "layered"),
        **{k: (float, v) for params in FAMILIES.values()
           for k, v in params.items()},
    },
    "model": {
        "variant": (str, "allen_cahn"),
        "mean_field": (str, "stokes_drag"),
        "cubic": (bool, True),
        "noise_law": (str, "scalar_multiplicative"),
        "sigma0": (float, 0.1),
    },
    "noise": {
        "modes": (_OPT_INT, None),
        "gamma": (float, 2.0),
        "lambda0": (float, 1.0),
    },
    "stepper": {
        "dt": (float, 1e-3),
        "horizon": (float, 0.1),
    },
    "ensemble": {
        "members": (int, 8),
        "replicas": (int, 4),
    },
    "study": {
        "epsilons": (_FLOAT_LIST, (0.125, 0.0625)),
        "cell_cells": (int, 256),
        "cell_tau_slices": (int, 1),
        "initial_amplitude": (float, 1.0),
        "initial_mode": (int, 1),
    },
    "run": {
        "seed": (int, 0),
        "output": (str, ""),
    },
}

# (section, parameter) -> config key, where it is not "section.parameter"
_KEYS = {
    ("study", "cells"): "study.cell_cells",
    ("study", "tau_slices"): "study.cell_tau_slices",
    ("study", "epsilon"): "study.epsilons",
    ("study", "dt"): "stepper.dt",
    ("study", "members"): "ensemble.members",
    ("study", "replicas"): "ensemble.replicas",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one run, with a stable content digest.

    ``lines`` maps each section and dotted key of the source text to its
    line. It locates rejections and is neither digested nor compared.
    """

    values: dict
    seed: int
    output: str
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    def canonical(self) -> dict:
        """Typed content payload: defaults filled, placement excluded."""
        payload = {s: dict(sorted(kv.items()))
                   for s, kv in sorted(self.values.items())}
        payload["run"] = {"seed": self.seed}
        return payload

    def digest(self) -> str:
        return config_digest(self.canonical())

    def error(self, key: str, message: str) -> ValidationError:
        """A rejection of the dotted ``key``, located at its line."""
        return ValidationError(message, line=_line(self.lines, key),
                               field=key)

    def _build(self, section: str, make, **kwargs):
        """``make(**kwargs)``, its rejection re-raised under a config key."""
        try:
            return make(**kwargs)
        except ValidationError as exc:
            key = _KEYS.get((section, exc.field), f"{section}.{exc.field}") \
                if exc.field else section
            raise self.error(key, str(exc)) from None

    # -- component builders: a key and the parameter it sets share a name

    def grid(self) -> GridSpec:
        return self._build("grid", GridSpec, **self.values["grid"])

    def coefficient(self) -> CoefficientField:
        c = self.values["coefficient"]
        params = {k: c[k] for k in FAMILIES.get(c["family"], {})}
        return self._build("coefficient", make_coefficient,
                           family=c["family"],
                           dimension=self.values["grid"]["dimension"],
                           **params)

    def model_for(self, eps: float) -> ModelSpec:
        return self._build("model", ModelSpec, coefficient=self.coefficient(),
                           epsilon=eps, **self.values["model"])

    def noise_spec(self) -> QWienerSpec:
        return self._build("noise", QWienerSpec, grid=self.grid(),
                           seed=self.seed, **self.values["noise"])

    def stepper(self) -> StepperConfig:
        return self._build("stepper", StepperConfig, **self.values["stepper"])

    def cell_grid(self) -> CellGrid:
        st = self.values["study"]
        return self._build("study", CellGrid,
                           dimension=self.values["grid"]["dimension"],
                           cells=st["cell_cells"],
                           tau_slices=st["cell_tau_slices"])

    def study(self) -> StudyConfig:
        model = dict(self.values["model"])
        if model.pop("variant") not in STEPPED_VARIANTS:
            raise self.error(
                "model.variant", "ladder and corrector studies run the "
                f"{', '.join(STEPPED_VARIANTS)} variant only")
        return self._build(
            "study", StudyConfig, coefficient=self.coefficient(),
            grid=self.grid(), stepper=self.stepper(), seed=self.seed,
            **model, **self.values["noise"], **self.values["ensemble"],
            **self.values["study"])


def config_digest(payload: dict) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, tight separators)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_HEADER = re.compile(r"\s*\[(.+?)\]\s*(?:[#;].*)?$")
_KEY = re.compile(r"\s*([^\s=:#;\[][^=:]*?)\s*[=:]")


def _key_lines(text: str) -> dict[str, int]:
    """1-based line of each section header and of each dotted key."""
    lines, section = {}, None
    for number, line in enumerate(text.splitlines(), 1):
        header = _HEADER.match(line)
        if header:
            section = header.group(1)
            lines.setdefault(section, number)
        elif section is not None and (key := _KEY.match(line)):
            lines.setdefault(f"{section}.{key.group(1).lower()}", number)
    return lines


def _line(lines: dict, key: str) -> int | None:
    """Line of a dotted key, else of its section, else None."""
    return lines.get(key, lines.get(key.partition(".")[0]))


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _convert(raw: str, kind, where: str, line: int | None):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite(raw)
        if kind is _OPT_INT:
            return None if raw.lower() in ("", "none") else int(raw)
        if kind is bool:
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[word]
        if kind is _FLOAT_LIST:
            parts = [p for p in re.split(r"[,\s]+", raw.strip()) if p]
            if not parts:
                raise ValueError("empty list")
            return tuple(_finite(p) for p in parts)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for {where}",
                          line=line, field=where) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate; the first problem raises with line and field."""
    # no header can spell an empty name, so a [DEFAULT] section is an
    # ordinary (and unknown) one instead of defaults for every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None and getattr(exc, "errors", None):
            line = exc.errors[0][0]
        raise ConfigError(f"malformed config: {exc.message.splitlines()[0]}",
                          line=line) from None

    lines = _key_lines(text)
    values = {s: {k: d for k, (_, d) in kv.items()}
              for s, kv in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]",
                              line=_line(lines, section), field=section)
        for key, raw in parser.items(section):
            where = f"{section}.{key}"
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]",
                    line=_line(lines, where), field=where)
            kind = _SCHEMA[section][key][0]
            values[section][key] = _convert(raw, kind, where,
                                            _line(lines, where))

    run = values.pop("run")
    cfg = RunConfig(values=values, seed=run["seed"], output=run["output"],
                    lines=lines)
    # build each component once: its constructor checks its own values
    cfg.grid()
    family = cfg.coefficient().family
    # the schema holds every family's keys; the text may set only its own
    if parser.has_section("coefficient"):
        for key in parser.options("coefficient"):
            if key not in ("family", *FAMILIES[family]):
                raise cfg.error(f"coefficient.{key}", f"{family} takes the "
                                f"parameters {sorted(FAMILIES[family])}, "
                                f"not {key!r}")
    eps = cfg._build("study", check_ladder, **values["ensemble"],
                     epsilons=values["study"]["epsilons"])
    cfg.model_for(eps[-1])
    cfg.noise_spec()
    cfg.stepper()
    cfg.cell_grid()
    return cfg
