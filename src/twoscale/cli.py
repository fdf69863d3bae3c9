"""Command-line front end.

Subcommands map one-to-one onto module operations:

  cell       solve the periodic cell problem, write the effective tensor
             and the (slices, dimension, cells[, cells]) correctors.npy
  simulate   advance one interacting ensemble, write final_states.npy and
             the (steps+1, members, columns) ledger table ledgers.npy
  ladder     coupled multi-resolution study with the full diagnostics
  corrector  the ladder under a second name: the same archive, whose
             report holds the plain and corrected gradient residuals
  report     re-render report.json and report.csv from a stored raw.npz,
             which ``diagnostics.load_raw`` checks, after checking every
             other file the manifest lists

Every run directory receives a deterministic manifest.json (config
digest, seed, per-file sha256) and a volatile run_info.json (wall clock,
environment, and for simulate, ladder and corrector the number of
processes that stepped the paths). Reruns with identical config and seed
rewrite the data files and the manifest byte for byte.

Exit codes: 0 success, 2 configuration rejected (or an output directory
that cannot be created), 3 solver failure, 4 archive integrity failure
(for report, also a kept file edited or missing), 5 internal error (a
bug: a ValueError that no toolkit error class describes, or a forked
process that died without a report). Failures print one JSON object on
stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cell import solve_cell_problem
from .config import RunConfig, parse_config
from .diagnostics import (load_raw, reduce_raw, run_ladder,
                          sine_initial_state)
from .ensemble import Ensemble
from .errors import ConfigError, IntegrityError, InternalError, ToolkitError
from .grid import ScalarField
from .integrator import LEDGER_COLUMNS, ensemble_shards, run_ensemble
from .manifest import (
    verify_archive,
    write_manifest,
    write_run_info,
)
from .noise import partial_trace, trace_tail_bound

OUTPUT_ROOT_ENV = "TWOSCALE_OUTPUT_ROOT"

_EXIT_CONFIG = 2
_EXIT_SOLVER = 3
_EXIT_INTEGRITY = 4
_EXIT_INTERNAL = 5


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        _emit_error(exc, line=exc.line, field=exc.field)
        return _EXIT_CONFIG
    except IntegrityError as exc:
        _emit_error(exc, digest=exc.digest, path=exc.path)
        return _EXIT_INTEGRITY
    except InternalError as exc:
        _emit_error(exc)
        return _EXIT_INTERNAL
    except ToolkitError as exc:
        _emit_error(exc)
        return _EXIT_SOLVER
    except ValueError as exc:
        cause = type(exc).__name__
        _emit_error(InternalError(f"{cause}: {exc}"), cause=cause)
        return _EXIT_INTERNAL


def _emit_error(exc: Exception, **extra) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    payload.update({k: v for k, v in extra.items() if v is not None})
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscale",
        description="oscillating-coefficient stochastic parabolic toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler in (
            ("cell", "solve the periodic cell problem", _cmd_cell),
            ("simulate", "advance one interacting ensemble", _cmd_simulate),
            ("ladder", "coupled resolution-ladder study", _run_study),
            ("corrector", "the ladder study under a second name",
             _run_study)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True,
                       help="path to the INI configuration")
        p.add_argument("-o", "--output", default=None,
                       help="output directory (default: from config, else "
                            f"${OUTPUT_ROOT_ENV} or ./runs)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed from the config")
        p.set_defaults(handler=handler)

    rep = sub.add_parser("report",
                         help="re-render report.json and report.csv "
                              "from a checked archive")
    rep.add_argument("-d", "--directory", required=True,
                     help="run directory holding manifest.json and raw.npz")
    rep.set_defaults(handler=_cmd_report)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _load_config(args) -> tuple[RunConfig, str]:
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(args.seed))
    return cfg, text


def _resolve_output(args, cfg: RunConfig, command: str) -> Path:
    key = None
    if args.output:
        out = Path(args.output)
    elif cfg.output:
        out, key = Path(cfg.output), "run.output"
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        out = root / f"{command}-{cfg.digest()[:12]}"
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}", line=cfg.lines.get(key),
                          field=key) from None
    return out


def _finish(out: Path, cfg: RunConfig, text: str, command: str,
            files: list[str], t0: float, info: dict | None = None) -> int:
    snapshot = "config.snapshot.ini"
    (out / snapshot).write_text(text, encoding="utf-8")
    spec = cfg.noise_spec()
    noise_block = {
        "noise": {
            "modes": int(spec.modes),
            "gamma": float(spec.gamma),
            "lambda0": float(spec.lambda0),
            "partial_trace": partial_trace(spec),
            "trace_tail_bound": trace_tail_bound(spec),
        }
    }
    write_manifest(out, cfg.digest(), cfg.seed, sorted(files + [snapshot]),
                   extra=noise_block)
    write_run_info(out, time.time() - t0, command, info)
    print(str(out))
    return 0


def _dump_json(out: Path, name: str, payload: dict) -> str:
    (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    return name


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cell(args) -> int:
    t0 = time.time()
    cfg, text = _load_config(args)
    out = _resolve_output(args, cfg, "cell")
    coeff = cfg.coefficient()
    cell_grid = cfg.cell_grid()
    sol = solve_cell_problem(coeff, cell_grid)
    payload = {
        "family": coeff.family,
        "dimension": coeff.dimension,
        "cells": cell_grid.cells,
        "tau_slices": cell_grid.tau_slices,
        "a_tilde": np.atleast_2d(sol.a_tilde).tolist(),
        "slice_tensors": [np.atleast_2d(m).tolist()
                          for m in sol.slice_tensors],
        "iterations": np.asarray(sol.iterations).tolist(),
        "residuals": np.asarray(sol.residuals).tolist(),
    }
    np.save(out / "correctors.npy", sol.correctors)
    files = [_dump_json(out, "cell.json", payload), "correctors.npy"]
    return _finish(out, cfg, text, "cell", files, t0,
                   {"shards": sol.shards})


def _cmd_simulate(args) -> int:
    t0 = time.time()
    cfg, text = _load_config(args)
    out = _resolve_output(args, cfg, "simulate")
    grid = cfg.grid()
    st = cfg.values["study"]
    eps = st["epsilons"][-1]
    model = cfg.model_for(eps)
    spec = cfg.noise_spec()
    stepper_cfg = cfg.stepper()
    u0 = ScalarField(grid, sine_initial_state(grid, st["initial_amplitude"],
                                              st["initial_mode"]))
    members = cfg.values["ensemble"]["members"]
    ens = Ensemble(members=[u0] * members, noise=spec)
    final, ledger = run_ensemble(ens, model, stepper_cfg)

    np.save(out / "final_states.npy", np.stack([m.values
                                                for m in final.members]))
    np.save(out / "ledgers.npy", ledger.table)
    summary = {
        "epsilon": eps,
        "members": members,
        "final_time": final.time,
        "ledger_columns": list(LEDGER_COLUMNS),
        # the ledger's last H2 row: h^N is a power of two, so it holds
        # the bits of the squared H norms of the final states
        "mean_H2": float(np.mean(ledger.H2[-1])),
    }
    files = ["final_states.npy", "ledgers.npy",
             _dump_json(out, "simulate.json", summary)]
    return _finish(out, cfg, text, "simulate", files, t0,
                   {"shards": len(ensemble_shards(members, grid.dof))})


def _run_study(args) -> int:
    """``ladder`` and ``corrector``: one study, one archive; the command
    name sets only the default output directory and run_info.json."""
    t0 = time.time()
    cfg, text = _load_config(args)
    study = cfg.study()  # may reject the config: before any directory exists
    out = _resolve_output(args, cfg, args.command)
    result = run_ladder(study)
    np.savez(out / "raw.npz", **result.raw)
    files = ["raw.npz"] + _render_ladder(out, result.report)
    return _finish(out, cfg, text, args.command, files, t0,
                   {"shards": result.shards})


def _render_ladder(out: Path, report) -> list[str]:
    (out / "report.json").write_text(report.to_json() + "\n",
                                     encoding="utf-8")
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    return ["report.json", "report.csv"]


def _cmd_report(args) -> int:
    out = Path(args.directory)
    # every kept file is checked, so the rewritten manifest re-blesses none
    manifest = verify_archive(out, skip=("report.json", "report.csv"))
    if "raw.npz" not in manifest["files"]:
        raise IntegrityError("archive has no digest entry for 'raw.npz'",
                             path=str(out / "raw.npz"))
    report = reduce_raw(load_raw(out / "raw.npz"))
    written = _render_ladder(out, report)
    refreshed = sorted(set(manifest["files"]) | set(written))
    carried = {k: v for k, v in manifest.items()
               if k not in ("toolkit_version", "config_digest", "seed",
                            "files")}
    write_manifest(out, manifest["config_digest"], manifest["seed"],
                   refreshed, extra=carried)
    print(str(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
