"""Run configuration: INI-style text in, validated typed config out.

Every key has a default, so the empty string is a valid configuration;
unknown sections or keys, type mismatches, non-finite numbers, and
violated invariants (including every one a run's constructors check) are
rejected with the line and the dotted field name of the first offender.

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
from dataclasses import dataclass

from .cell import CellGrid
from .coefficients import FAMILIES, CoefficientField, make_coefficient
from .diagnostics import StudyConfig
from .errors import ConfigError, ValidationError
from .grid import GridSpec, is_power_of_two
from .integrator import StepperConfig
from .models import MEAN_FIELD_KINDS, NOISE_LAWS, VARIANTS, ModelSpec
from .noise import QWienerSpec, default_mode_count

__all__ = ["RunConfig", "parse_config", "config_digest"]

_FLOAT_LIST = "float_list"
_OPT_FLOAT = "optional_float"
_OPT_INT = "optional_int"

# section -> key -> (type, default)
_SCHEMA: dict[str, dict[str, tuple[object, object]]] = {
    "grid": {
        "dimension": (int, 1),
        "cells": (int, 256),
    },
    "coefficient": {
        "family": (str, "layered"),
        "alpha": (float, 2.0),
        "beta": (float, 1.0),
        "gamma": (float, 2.0),
        "delta": (float, 1.0),
        "value": (float, 1.0),
        "low": (float, 1.0),
        "high": (float, 3.0),
        "width": (float, 0.05),
        "kappa": (_OPT_FLOAT, None),
    },
    "model": {
        "variant": (str, "allen_cahn"),
        "mean_field": (str, "stokes_drag"),
        "cubic": (bool, True),
        "eta": (float, 0.0),
        "ell": (float, 0.0),
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
        "tol": (float, 1e-8),
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

_COEFF_KEYS = {
    "constant": ("value",),
    "layered": ("alpha", "beta"),
    "separable_trig": ("alpha", "beta", "gamma", "delta"),
    "checkerboard": ("low", "high", "width"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one run, with a stable content digest."""

    values: dict
    seed: int
    output: str

    def canonical(self) -> dict:
        """Typed content payload: defaults filled, placement excluded."""
        payload = {s: dict(sorted(kv.items()))
                   for s, kv in sorted(self.values.items())}
        payload["run"] = {"seed": self.seed}
        return payload

    def digest(self) -> str:
        return config_digest(self.canonical())

    # -- component builders --------------------------------------------------

    def grid(self) -> GridSpec:
        g = self.values["grid"]
        return GridSpec(dimension=g["dimension"], cells=g["cells"])

    def coefficient(self) -> CoefficientField:
        c = self.values["coefficient"]
        params = {k: c[k] for k in _COEFF_KEYS[c["family"]]}
        return make_coefficient(c["family"],
                                dimension=self.values["grid"]["dimension"],
                                kappa=c["kappa"], **params)

    def model_for(self, eps: float) -> ModelSpec:
        m = self.values["model"]
        return ModelSpec(variant=m["variant"], coefficient=self.coefficient(),
                         epsilon=eps, mean_field=m["mean_field"],
                         cubic=m["cubic"], eta=m["eta"], ell=m["ell"],
                         noise_law=m["noise_law"], sigma0=m["sigma0"])

    def noise_spec(self) -> QWienerSpec:
        n = self.values["noise"]
        grid = self.grid()
        modes = n["modes"] if n["modes"] is not None \
            else default_mode_count(grid)
        return QWienerSpec(grid=grid, modes=modes, gamma=n["gamma"],
                           lambda0=n["lambda0"], seed=self.seed)

    def stepper(self) -> StepperConfig:
        s = self.values["stepper"]
        return StepperConfig(dt=s["dt"], horizon=s["horizon"], tol=s["tol"])

    def study(self) -> StudyConfig:
        m = self.values["model"]
        n = self.values["noise"]
        st = self.values["study"]
        e = self.values["ensemble"]
        if m["variant"] != "allen_cahn":
            raise ValidationError(
                "ladder and corrector studies run the scalar variant only",
                field="model.variant")
        return StudyConfig(
            coefficient=self.coefficient(), grid=self.grid(),
            epsilons=tuple(st["epsilons"]), stepper=self.stepper(),
            members=e["members"], replicas=e["replicas"],
            mean_field=m["mean_field"], cubic=m["cubic"],
            noise_law=m["noise_law"], sigma0=m["sigma0"],
            modes=n["modes"], gamma=n["gamma"], lambda0=n["lambda0"],
            seed=self.seed, initial_amplitude=st["initial_amplitude"],
            initial_mode=st["initial_mode"], cell_cells=st["cell_cells"],
            cell_tau_slices=st["cell_tau_slices"])


def config_digest(payload: dict) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, tight separators)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """1-based line of a section header or of a key within its section."""
    sec_re = re.compile(r"^\s*\[" + re.escape(section) + r"\]\s*(?:[#;].*)?$")
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if sec_re.match(line):
            start = i
            break
    if start is None:
        return None
    if key is None:
        return start + 1
    key_re = re.compile(r"^\s*" + re.escape(key) + r"\s*[=:]")
    for j in range(start + 1, len(lines)):
        if re.match(r"^\s*\[", lines[j]):
            break
        if key_re.match(lines[j]):
            return j + 1
    return start + 1


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _convert(raw: str, kind, section: str, key: str, line: int | None):
    where = f"{section}.{key}"
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite(raw)
        if kind is _OPT_INT:
            return None if raw.lower() in ("", "none") else int(raw)
        if kind is _OPT_FLOAT:
            return None if raw.lower() in ("", "none") else _finite(raw)
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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None and getattr(exc, "errors", None):
            line = exc.errors[0][0]
        raise ConfigError(f"malformed config: {exc.message.splitlines()[0]}",
                          line=line) from None

    values = {s: {k: d for k, (_, d) in kv.items()}
              for s, kv in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]",
                              line=_line_of(text, section), field=section)
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]",
                    line=_line_of(text, section, key),
                    field=f"{section}.{key}")
            kind = _SCHEMA[section][key][0]
            values[section][key] = _convert(raw, kind, section, key,
                                            _line_of(text, section, key))

    run = values.pop("run")
    cfg = RunConfig(values=values, seed=run["seed"], output=run["output"])
    _validate(cfg, text)
    return cfg


def _check(cond: bool, message: str, text: str, section: str,
           key: str) -> None:
    if not cond:
        raise ValidationError(message, line=_line_of(text, section, key),
                              field=f"{section}.{key}")


def _validate(cfg: RunConfig, text: str) -> None:
    v = cfg.values
    _check(v["grid"]["dimension"] in (1, 2), "dimension must be 1 or 2",
           text, "grid", "dimension")
    n = v["grid"]["cells"]
    _check(n >= 8 and is_power_of_two(n), "cells must be a power of two >= 8",
           text, "grid", "cells")
    fam = v["coefficient"]["family"]
    _check(fam in FAMILIES, f"unknown coefficient family {fam!r}",
           text, "coefficient", "family")
    _check(v["model"]["variant"] in VARIANTS,
           f"unknown variant {v['model']['variant']!r}",
           text, "model", "variant")
    _check(v["model"]["mean_field"] in MEAN_FIELD_KINDS,
           f"unknown mean-field kind {v['model']['mean_field']!r}",
           text, "model", "mean_field")
    _check(v["model"]["noise_law"] in NOISE_LAWS,
           f"unknown noise law {v['model']['noise_law']!r}",
           text, "model", "noise_law")
    _check(v["stepper"]["dt"] > 0, "dt must be positive",
           text, "stepper", "dt")
    _check(v["stepper"]["horizon"] > 0, "horizon must be positive",
           text, "stepper", "horizon")
    _check(v["stepper"]["tol"] > 0, "tol must be positive",
           text, "stepper", "tol")
    modes, dim = v["noise"]["modes"], v["grid"]["dimension"]
    _check(modes is None or 1 <= modes <= (n - 1) ** dim,
           f"modes must be between 1 and the {(n - 1) ** dim} sine modes "
           "of the grid", text, "noise", "modes")
    _check(v["noise"]["gamma"] > 1.0,
           "mode decay exponent must exceed 1 for a finite trace",
           text, "noise", "gamma")
    _check(v["noise"]["lambda0"] > 0, "lambda0 must be positive",
           text, "noise", "lambda0")
    _check(v["ensemble"]["members"] >= 1, "members must be >= 1",
           text, "ensemble", "members")
    _check(v["ensemble"]["replicas"] >= 1, "replicas must be >= 1",
           text, "ensemble", "replicas")

    eps = v["study"]["epsilons"]
    if any(not e > 0 for e in eps) or \
            any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
        raise ValidationError(
            "epsilon ladder must be positive and strictly decreasing",
            line=_line_of(text, "study", "epsilons"), field="study.epsilons")

    # component invariants: let the constructors judge, attach the location
    try:
        coeff = cfg.coefficient()
    except ValueError as exc:
        raise ValidationError(str(exc), line=_line_of(text, "coefficient"),
                              field="coefficient") from None
    try:
        cfg.model_for(eps[-1])
    except ValueError as exc:
        msg = str(exc)
        key = "eta" if msg.startswith("eta=") else \
            ("ell" if msg.startswith("ell=") else "variant")
        raise ValidationError(msg, line=_line_of(text, "model", key),
                              field=f"model.{key}") from None
    try:
        cfg.stepper()
    except ValueError as exc:
        raise ValidationError(str(exc), line=_line_of(text, "stepper",
                                                      "horizon"),
                              field="stepper.horizon") from None
    st = v["study"]
    try:
        CellGrid(dimension=coeff.dimension, cells=st["cell_cells"],
                 tau_slices=st["cell_tau_slices"])
    except ValueError as exc:
        key = "cell_tau_slices" if "tau_slices" in str(exc) else "cell_cells"
        raise ValidationError(str(exc), line=_line_of(text, "study", key),
                              field=f"study.{key}") from None
