"""Tests for config parsing, content digests, manifests, and the CLI."""

import dataclasses
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import twoscale
from twoscale import parallel
from twoscale.cell import solve_cell_problem
from twoscale.cli import OUTPUT_ROOT_ENV, main
from twoscale.coefficients import FAMILIES, make_coefficient
from twoscale.config import _SCHEMA, config_digest, parse_config
from twoscale.diagnostics import ACCUMULATORS
from twoscale.errors import ConfigError, IntegrityError, ValidationError
from twoscale.integrator import ensemble_shards
from twoscale.manifest import (file_digest, read_manifest, verify_archive,
                               write_manifest)
from twoscale.noise import NoiseStream

from forks import assert_no_child_left, deadline


def ini(text):
    return textwrap.dedent(text).lstrip()


LADDER_INI = ini("""
    [grid]
    cells = 64
    [stepper]
    dt = 0.01
    horizon = 0.02
    [ensemble]
    members = 1
    replicas = 2
    [study]
    epsilons = 0.5, 0.25
    cell_cells = 32
    initial_amplitude = 0.5
    [run]
    seed = 9
    """)


def write_ladder_ini(tmp_path, text=LADDER_INI):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing and defaults


def test_empty_config_parses_with_defaults():
    cfg = parse_config("")
    assert cfg.values["grid"] == {"dimension": 1, "cells": 256}
    assert cfg.values["coefficient"]["family"] == "layered"
    assert cfg.values["model"]["variant"] == "allen_cahn"
    assert cfg.values["study"]["epsilons"] == (0.125, 0.0625)
    assert cfg.seed == 0 and cfg.output == ""
    digest = cfg.digest()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert parse_config("").digest() == digest


def test_empty_config_digest_is_pinned():
    # manifest.json carries this digest, so a default that moves (or a key
    # that goes, as [stepper] tol did) changes every archive written
    # without a config
    assert parse_config("").digest() == \
        "25a236e635d487f3c1a4f0b9cc12b4a589a427c7b19f82dc3677466f620e83e2"


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parsed_coefficient_defaults_are_make_coefficient_defaults(family):
    parsed = parse_config(f"[coefficient]\nfamily = {family}\n")
    for dimension in (1, 2):
        assert parsed.coefficient().params == \
            make_coefficient(family, dimension).params == FAMILIES[family]
    assert {k for k in _SCHEMA["coefficient"]} == \
        {"family"} | {k for p in FAMILIES.values() for k in p}


def test_explicitly_setting_a_default_keeps_the_digest():
    # canonical form fills defaults, so writing one out changes nothing
    assert parse_config("[model]\nvariant = allen_cahn\n").digest() \
        == parse_config("").digest()


def test_typed_value_conversions():
    cfg = parse_config(ini("""
        [grid]
        dimension = 2
        cells = 32
        [model]
        cubic = off
        sigma0 = 2.5e-1
        [noise]
        modes = none
        [study]
        epsilons = 0.5 0.25, 0.125
        [coefficient]
        family = checkerboard
        width = 0.1
        """))
    assert cfg.values["grid"] == {"dimension": 2, "cells": 32}
    assert cfg.values["model"]["cubic"] is False
    assert cfg.values["model"]["sigma0"] == 0.25
    assert cfg.values["noise"]["modes"] is None
    assert cfg.values["study"]["epsilons"] == (0.5, 0.25, 0.125)
    assert cfg.values["coefficient"]["width"] == 0.1


def test_digest_invariant_under_reordering_and_comments():
    plain = parse_config("[grid]\ncells = 64\n[run]\nseed = 3\n")
    shuffled = parse_config(ini("""
        # leading comment
        [run]
        seed = 3   ; trailing note

        [grid]
        cells = 64
        """))
    assert plain.digest() == shuffled.digest()
    changed = parse_config("[grid]\ncells = 128\n[run]\nseed = 3\n")
    assert changed.digest() != plain.digest()


def test_digest_tracks_seed_but_not_output_directory():
    base = parse_config("[run]\nseed = 0\n")
    assert parse_config("[run]\nseed = 1\n").digest() != base.digest()
    assert parse_config("[run]\noutput = /tmp/elsewhere\n").digest() \
        == base.digest()
    assert "output" not in json.dumps(base.canonical())


def test_config_digest_is_canonical_json_sha256():
    payload = {"b": 2, "a": 1}
    import hashlib
    expected = hashlib.sha256(b'{"a":1,"b":2}').hexdigest()
    assert config_digest(payload) == expected


# ---------------------------------------------------------------------------
# rejection diagnostics: line and field of the first offender


def test_epsilon_ladder_must_decrease():
    text = "[study]\n# pad\nepsilons = 0.1, 0.2\n"
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == "study.epsilons"
    assert "epsilon" in err.value.field
    assert err.value.line == 3


def test_interaction_budget_rejections():
    # no drift term reads eta or ell, so neither is a [model] key: a config
    # that sets one, even to 0.0, is rejected as an unknown key at its line
    text = ini("""
        [coefficient]
        alpha = 2.0
        beta = 1.0
        [model]
        cubic = true
        ell = 0.0
        """)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.field == "model.ell"
    assert str(err.value) == "unknown key 'ell' in section [model]"
    assert err.value.line == 6

    with pytest.raises(ConfigError) as err:
        parse_config("[model]\neta = 0.0\nell = 0.1\n")
    assert err.value.field == "model.eta"
    assert err.value.line == 2
    assert str(err.value) == "unknown key 'eta' in section [model]"


def test_stepper_tol_is_an_unknown_key():
    # every implicit solve is direct, so no solve reads a tolerance
    with pytest.raises(ConfigError) as err:
        parse_config("[stepper]\ndt = 0.01\ntol = 1e-8\n")
    assert err.value.field == "stepper.tol"
    assert err.value.line == 3
    assert str(err.value) == "unknown key 'tol' in section [stepper]"


def test_unknown_section_and_key_are_located():
    with pytest.raises(ConfigError) as err:
        parse_config("[mystery]\nx = 1\n")
    assert err.value.field == "mystery" and err.value.line == 1

    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nspacing = 3\n")
    assert err.value.field == "grid.spacing" and err.value.line == 2


@pytest.mark.parametrize("text, line", [
    ("[DEFAULT]\ncells = 64\n", 1),
    ("[grid]\ncells = 32\n[DEFAULT]\ncells = 64\n", 3),
    ("[model]\ncubic = true\n\n[DEFAULT]\ncells = 64\n", 4),
])
def test_default_section_is_an_unknown_section(tmp_path, capsys, text, line):
    # configparser would apply [DEFAULT] to every section: alone its value
    # was dropped, with [grid] it set grid.cells, with [model] it was
    # reported as model.cells
    cfg = tmp_path / "default.ini"
    cfg.write_text(text, encoding="utf-8")
    code, _, stderr = run_cli(["simulate", "-c", str(cfg), "-o",
                               str(tmp_path / "o")], capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"] == "ConfigError"
    assert payload["message"] == "unknown section [DEFAULT]"
    assert payload["field"] == "DEFAULT" and payload["line"] == line


def test_unparseable_values_are_located():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\ncells = many\n")
    assert err.value.field == "grid.cells" and err.value.line == 2

    with pytest.raises(ConfigError) as err:
        parse_config("[model]\ncubic = maybe\n")
    assert err.value.field == "model.cubic"

    with pytest.raises(ConfigError) as err:
        parse_config("[study]\nepsilons =\n")
    assert err.value.field == "study.epsilons"


def test_malformed_text_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config("cells = 64\n")


@pytest.mark.parametrize("text,field", [
    ("[grid]\ncells = 48\n", "grid.cells"),
    ("[grid]\ndimension = 3\n", "grid.dimension"),
    ("[coefficient]\nfamily = fractal\n", "coefficient.family"),
    ("[model]\nvariant = wave\n", "model.variant"),
    ("[model]\nmean_field = gravity\n", "model.mean_field"),
    ("[model]\nnoise_law = additive\n", "model.noise_law"),
    ("[noise]\ngamma = 1.0\n", "noise.gamma"),
    ("[noise]\nlambda0 = 0\n", "noise.lambda0"),
    ("[stepper]\ndt = -1\n", "stepper.dt"),
    ("[stepper]\nhorizon = 0\n", "stepper.horizon"),
    ("[ensemble]\nmembers = 0\n", "ensemble.members"),
    ("[ensemble]\nreplicas = 0\n", "ensemble.replicas"),
    ("[study]\nepsilons = 0.5, -0.25\n", "study.epsilons"),
])
def test_semantic_guards(text, field):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field
    assert err.value.line is not None


@pytest.mark.parametrize("text, field, line", [
    # a multi-key rule names the bare section, at its header
    ("[coefficient]\nalpha = 1.0\nbeta = 2.0\n", "coefficient", 1),
    ("[coefficient]\nfamily = checkerboard\nwidth = 0\n",
     "coefficient.width", 3),
    ("[coefficient]\nfamily = separable_trig\nalpha = 0.5\ngamma = 0.5\n",
     "coefficient", 1),
    # the schema holds every family's keys, but a family takes only its own
    ("[coefficient]\nfamily = layered\nlow = -5\nwidth = -1\n",
     "coefficient.low", 3),
    ("[coefficient]\n# pad\ngamma = 2.0\n", "coefficient.gamma", 3),
    ("[coefficient]\nwidth = 0.1\nfamily = constant\n",
     "coefficient.width", 2),
    ("[coefficient]\nfamily = checkerboard\nlow = 1.0\nalpha = 2.0\n",
     "coefficient.alpha", 4),
    ("[grid]\ndimension = 2\ncells = 16\n[noise]\nmodes = 226\n",
     "noise.modes", 5),
    ("[stepper]\ndt = 0.003\n# pad\nhorizon = 0.01\n", "stepper.horizon", 4),
    ("[study]\ncell_tau_slices = 0\n", "study.cell_tau_slices", 2),
    ("[ensemble]\nmembers = 1\nreplicas = 0\n", "ensemble.replicas", 3),
    ("[ensemble]\nmembers = 0\n", "ensemble.members", 2),
    ("[grid]\ndimension = 2\ncells = 32\n[coefficient]\n"
     "family = checkerboard\n[model]\nvariant = navier_stokes_2d\n",
     "model.variant", 7),
    # the rules only a ladder study checks, reached through study()
    ("[grid]\ncells = 64\n[study]\n# pad\nepsilons = 0.125\n",
     "study.epsilons", 5),
    ("[grid]\ncells = 256\n[stepper]\ndt = 0.02\nhorizon = 0.1\n"
     "[study]\nepsilons = 0.125\n", "stepper.dt", 4),
    # a key absent from the text has no line
    ("[grid]\ncells = 64\n", "study.epsilons", None),
])
def test_rejections_name_a_config_key_and_its_line(text, field, line):
    with pytest.raises(ValidationError) as err:
        parse_config(text).study()
    section, _, key = err.value.field.partition(".")
    assert section in _SCHEMA and (not key or key in _SCHEMA[section])
    assert err.value.field == field
    assert err.value.line == line


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(block).digest() == parse_config("").digest()


# ---------------------------------------------------------------------------
# component builders


def test_builders_produce_consistent_components():
    cfg = parse_config(ini("""
        [grid]
        cells = 64
        [stepper]
        dt = 0.005
        horizon = 0.04
        [study]
        epsilons = 0.5, 0.25
        [ensemble]
        members = 3
        replicas = 5
        """))
    assert cfg.grid().cells == 64
    assert cfg.coefficient().family == "layered"
    assert cfg.stepper().dt == 0.005
    assert cfg.noise_spec().modes == 63  # default min(n - 1, 64)
    assert cfg.noise_spec().seed == cfg.seed
    model = cfg.model_for(0.25)
    assert model.epsilon == 0.25 and model.variant == "allen_cahn"
    study = cfg.study()
    assert study.epsilons == (0.5, 0.25)
    assert study.members == 3 and study.replicas == 5
    assert study.stepper.horizon == 0.04


def test_study_rejects_velocity_variant():
    # the engine steps no velocity variant, so the parser rejects it
    with pytest.raises(ValidationError) as err:
        parse_config(ini("""
            [grid]
            dimension = 2
            cells = 32
            [coefficient]
            family = checkerboard
            [model]
            variant = navier_stokes_2d
            """))
    assert (err.value.field, err.value.line) == ("model.variant", 7)


# ---------------------------------------------------------------------------
# manifests and archive integrity


def test_manifest_roundtrip_and_full_verification(tmp_path):
    (tmp_path / "data.bin").write_bytes(b"\x00\x01\x02")
    (tmp_path / "table.csv").write_text("a,b\n1,2\n")
    write_manifest(tmp_path, "c" * 64, 7,
                   ["data.bin", "table.csv"], extra={"note": {"k": 1}})
    manifest = read_manifest(tmp_path)
    assert manifest["seed"] == 7
    assert manifest["config_digest"] == "c" * 64
    assert manifest["toolkit_version"] == twoscale.__version__
    assert manifest["note"] == {"k": 1}
    assert manifest["files"]["data.bin"] == file_digest(tmp_path / "data.bin")
    assert verify_archive(tmp_path) == manifest


def test_verification_failures_carry_the_expected_digest(tmp_path):
    (tmp_path / "data.bin").write_bytes(b"\x00\x01\x02")
    write_manifest(tmp_path, "c" * 64, 0, ["data.bin"])
    expected = read_manifest(tmp_path)["files"]["data.bin"]

    (tmp_path / "data.bin").write_bytes(b"\x00\x01\x03")
    with pytest.raises(IntegrityError) as err:
        verify_archive(tmp_path)
    assert err.value.digest == expected
    assert expected in str(err.value)

    (tmp_path / "data.bin").unlink()
    with pytest.raises(IntegrityError) as err:
        verify_archive(tmp_path)
    assert err.value.digest == expected

    # a skipped file is not checked, so its absence is no failure
    assert verify_archive(tmp_path, skip=("data.bin",)) == \
        read_manifest(tmp_path)


def test_manifest_read_errors(tmp_path):
    with pytest.raises(IntegrityError):
        read_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{ not json")
    with pytest.raises(IntegrityError):
        read_manifest(tmp_path)


# ---------------------------------------------------------------------------
# CLI subcommands


def test_cell_on_constant_family_writes_scaled_identity(tmp_path, capsys):
    cfg = tmp_path / "cell.ini"
    cfg.write_text(ini("""
        [coefficient]
        family = constant
        value = 1.5
        [study]
        cell_cells = 32
        """), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, _ = run_cli(["cell", "-c", str(cfg), "-o", str(out)],
                              capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    payload = json.loads((out / "cell.json").read_text())
    assert np.allclose(payload["a_tilde"], [[1.5]], atol=1e-10)
    assert payload["family"] == "constant"

    manifest = verify_archive(out)
    listed = set(manifest["files"])
    assert {"cell.json", "correctors.npy", "config.snapshot.ini"} <= listed
    noise = manifest["noise"]
    assert set(noise) == {"modes", "gamma", "lambda0", "partial_trace",
                          "trace_tail_bound"}
    assert noise["partial_trace"] > 0
    assert np.load(out / "correctors.npy").shape == (1, 1, 32)


def test_cell_saves_the_bits_of_the_cell_solve(tmp_path, capsys):
    # the constant family's correctors are all zero, and a time-independent
    # family's slices are all equal; these are neither
    cfg_path = tmp_path / "cell.ini"
    cfg_path.write_text(ini("""
        [grid]
        dimension = 2
        cells = 32
        [coefficient]
        family = separable_trig
        [study]
        cell_cells = 16
        cell_tau_slices = 2
        """), encoding="utf-8")
    out = tmp_path / "out"
    code, _, _ = run_cli(["cell", "-c", str(cfg_path), "-o", str(out)],
                         capsys)
    assert code == 0
    assert sorted(verify_archive(out)["files"]) == [
        "cell.json", "config.snapshot.ini", "correctors.npy"]
    saved = np.load(out / "correctors.npy")
    assert saved.shape == (2, 2, 16, 16) and saved.dtype == np.float64
    cfg = parse_config(cfg_path.read_text(encoding="utf-8"))
    expected = solve_cell_problem(cfg.coefficient(), cfg.cell_grid())
    assert np.any(expected.correctors[0] != expected.correctors[1])
    assert saved.tobytes() == expected.correctors.tobytes()


def test_cell_records_its_shard_count(tmp_path, monkeypatch, capsys):
    # a 128^2 cell's two directions split into two processes on two CPUs
    cfg_path = tmp_path / "cell.ini"
    cfg_path.write_text(ini("""
        [grid]
        dimension = 2
        [coefficient]
        family = checkerboard
        [study]
        cell_cells = 128
        """), encoding="utf-8")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    out = tmp_path / "out"
    with deadline(60):
        code, _, _ = run_cli(["cell", "-c", str(cfg_path), "-o", str(out)],
                             capsys)
    assert code == 0
    assert json.loads((out / "run_info.json").read_text())["shards"] == 2
    assert "shards" not in (out / "manifest.json").read_text()


def test_ladder_and_corrector_write_one_archive(tmp_path, capsys):
    cfg = write_ladder_ini(tmp_path)
    dirs = {}
    for command in ("ladder", "corrector"):
        dirs[command] = tmp_path / command
        assert run_cli([command, "-c", str(cfg), "-o", str(dirs[command])],
                       capsys)[0] == 0
    names = sorted(p.name for p in dirs["ladder"].iterdir())
    assert names == sorted(p.name for p in dirs["corrector"].iterdir())
    assert "corrector.json" not in names
    assert "corrector.json" not in read_manifest(dirs["corrector"])["files"]
    for name in names:
        if name != "run_info.json":
            assert (dirs["ladder"] / name).read_bytes() \
                == (dirs["corrector"] / name).read_bytes(), name
    for command, out in dirs.items():
        info = json.loads((out / "run_info.json").read_text())
        assert info["command"] == command


def test_ladder_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_ladder_ini(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(["ladder", "-c", str(cfg), "-o", str(first)],
                   capsys)[0] == 0
    assert run_cli(["ladder", "-c", str(cfg), "-o", str(second)],
                   capsys)[0] == 0
    manifest = read_manifest(first)
    for name in list(manifest["files"]) + ["manifest.json"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            name
    # the volatile sidecar exists but is exempt from the comparison
    assert (first / "run_info.json").is_file()
    info = json.loads((first / "run_info.json").read_text())
    assert info["command"] == "ladder"
    assert "environment" in info


def test_seed_override_changes_digest_and_data(tmp_path, capsys):
    cfg = write_ladder_ini(tmp_path)
    base, overridden = tmp_path / "a", tmp_path / "b"
    run_cli(["ladder", "-c", str(cfg), "-o", str(base)], capsys)
    run_cli(["ladder", "-c", str(cfg), "-o", str(overridden), "--seed", "1"],
            capsys)
    m0, m1 = read_manifest(base), read_manifest(overridden)
    assert m0["seed"] == 9 and m1["seed"] == 1
    assert m0["config_digest"] != m1["config_digest"]
    assert (base / "raw.npz").read_bytes() \
        != (overridden / "raw.npz").read_bytes()


def test_report_rerenders_tables_without_recompute(tmp_path, capsys):
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    run_cli(["ladder", "-c", str(cfg), "-o", str(out)], capsys)
    originals = {name: (out / name).read_bytes()
                 for name in ("report.json", "report.csv", "manifest.json")}
    raw_before = (out / "raw.npz").read_bytes()
    (out / "report.json").unlink()
    (out / "report.csv").unlink()

    code, stdout, _ = run_cli(["report", "-d", str(out)], capsys)
    assert code == 0
    assert stdout.strip() == str(out)
    for name, blob in originals.items():
        assert (out / name).read_bytes() == blob, name
    assert (out / "raw.npz").read_bytes() == raw_before
    verify_archive(out)


@pytest.mark.parametrize("damage", ["edited", "deleted"])
def test_report_refuses_a_damaged_kept_file(tmp_path, capsys, damage):
    # report rewrites the manifest, so it must not re-bless a kept file
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    run_cli(["ladder", "-c", str(cfg), "-o", str(out)], capsys)
    kept = out / "config.snapshot.ini"
    expected = read_manifest(out)["files"][kept.name]
    manifest = (out / "manifest.json").read_bytes()
    if damage == "edited":
        kept.write_text(kept.read_text() + "# edited after the run\n")
    else:
        kept.unlink()
    (out / "report.csv").unlink()

    code, _, stderr = run_cli(["report", "-d", str(out)], capsys)
    assert code == 4
    payload = json.loads(stderr)
    assert payload["error"] == "IntegrityError"
    assert payload["path"] == str(kept) and payload["digest"] == expected
    assert kept.name in payload["message"]
    assert (out / "manifest.json").read_bytes() == manifest
    assert not (out / "report.csv").exists()


def test_report_refuses_an_unlisted_raw_archive(tmp_path, capsys):
    # a simulate archive does not list raw.npz, so a stray one is not read
    ladder = tmp_path / "ladder"
    run_cli(["ladder", "-c", str(write_ladder_ini(tmp_path)), "-o",
             str(ladder)], capsys)
    cfg = tmp_path / "simulate.ini"
    cfg.write_text("[grid]\ncells = 64\n[stepper]\nhorizon = 0.002\n"
                   "[ensemble]\nmembers = 2\n", encoding="utf-8")
    out = tmp_path / "simulate"
    assert run_cli(["simulate", "-c", str(cfg), "-o", str(out)],
                   capsys)[0] == 0
    shutil.copy(ladder / "raw.npz", out / "raw.npz")

    code, _, stderr = run_cli(["report", "-d", str(out)], capsys)
    assert code == 4
    payload = json.loads(stderr)
    assert payload["error"] == "IntegrityError"
    assert "raw.npz" in payload["message"]
    assert not (out / "report.json").exists()


def test_report_carries_an_archived_plot_data_file(tmp_path, capsys):
    # archives of older versions may list plot_data.csv, written by a
    # since-removed --plot-data flag: report checks and keeps it
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    run_cli(["ladder", "-c", str(cfg), "-o", str(out)], capsys)
    report = json.loads((out / "report.json").read_text())
    pairs = [f"{e!r},{r!r}" for e, r in zip(report["epsilons"],
                                             report["errors"])]
    (out / "plot_data.csv").write_text("\n".join(["epsilon,error", *pairs])
                                       + "\n", encoding="utf-8")
    manifest = read_manifest(out)
    write_manifest(out, manifest["config_digest"], manifest["seed"],
                   [*manifest["files"], "plot_data.csv"],
                   extra={"noise": manifest["noise"]})
    archive = {p.name: p.read_bytes() for p in out.iterdir()
               if p.name != "run_info.json"}
    (out / "report.csv").unlink()

    assert run_cli(["report", "-d", str(out)], capsys)[0] == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()
            if p.name != "run_info.json"} == archive
    assert "plot_data.csv" in verify_archive(out)["files"]


def test_report_on_truncated_archive_names_the_digest(tmp_path, capsys):
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    run_cli(["ladder", "-c", str(cfg), "-o", str(out)], capsys)
    expected = read_manifest(out)["files"]["raw.npz"]
    blob = (out / "raw.npz").read_bytes()
    (out / "raw.npz").write_bytes(blob[:len(blob) // 2])

    code, _, stderr = run_cli(["report", "-d", str(out)], capsys)
    assert code == 4
    payload = json.loads(stderr)
    assert payload["error"] == "IntegrityError"
    assert payload["digest"] == expected
    assert expected in payload["message"]


def _edit_arrays(path, edit):
    with np.load(path) as archive:
        raw = {k: archive[k] for k in archive.files}
    edit(raw)
    np.savez(path, **raw)


def _set_first(key, value):
    """A rewrite of raw.npz whose array ``key`` starts with ``value``."""
    def edit(raw):
        raw[key] = raw[key].copy()
        raw[key].flat[0] = value
    return lambda path: _edit_arrays(path, edit)


def _drop(key):
    """A rewrite of raw.npz without the array ``key``."""
    return lambda path: _edit_arrays(path, lambda raw: raw.pop(key))


def _set(key, value):
    """A rewrite of raw.npz whose array ``key`` is ``value``."""
    return lambda path: _edit_arrays(path, lambda raw: raw.update(
        {key: np.asarray(value)}))


# case -> (rewrite of raw.npz, text the error message must contain)
MALFORMED_ARCHIVES = {
    "missing-dt": (_drop("dt"), "'dt'"),
    **{f"missing-{name}": (_drop(name), f"'{name}'")
       for name, *_ in ACCUMULATORS},
    # the ladder is 1D, so its tensor is 1 x 1
    "scalar-a-tilde": (_set("a_tilde", 7.0), "'a_tilde'"),
    "2x2-a-tilde-in-1d": (_set("a_tilde", 1.5 * np.eye(2)), "'a_tilde'"),
    "shape-mismatch": (lambda path: _edit_arrays(
        path, lambda raw: raw.update(shape=raw["shape"] + [1, 0, 0])),
        "'err2'"),
    "reversed-epsilons": (lambda path: _edit_arrays(
        path, lambda raw: raw.update(epsilons=raw["epsilons"][::-1])),
        "'epsilons'"),
    "not-an-archive": (lambda path: path.write_bytes(b"not an archive"),
                       "not a readable npz archive"),
    "complex-err2": (lambda path: _edit_arrays(
        path, lambda raw: raw.update(err2=raw["err2"] + 0j)), "'err2'"),
    "nan-pairing": (_set_first("pairing", np.nan), "'pairing'"),
    "negative-grid-scale": (_set_first("grid_scale", -1.0), "'grid_scale'"),
    "negative-err2": (_set_first("err2", -1.0), "'err2'"),
    "negative-sup-h2": (_set_first("sup_h2", -1.0), "'sup_h2'"),
    "negative-dt": (_set_first("dt", -0.01), "'dt'"),
    "fractional-shape": (lambda path: _edit_arrays(
        path, lambda raw: raw.update(shape=raw["shape"] + 0.5)), "'shape'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ARCHIVES))
def test_report_on_malformed_archive_exits_4(tmp_path, capsys, case):
    # the manifest digest is rewritten to match, so the digest check passes
    # and only the checks on the archive's contents can catch the edit
    rewrite, expected = MALFORMED_ARCHIVES[case]
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    run_cli(["ladder", "-c", str(cfg), "-o", str(out)], capsys)
    rewrite(out / "raw.npz")
    manifest = read_manifest(out)
    manifest["files"]["raw.npz"] = file_digest(out / "raw.npz")
    (out / "manifest.json").write_text(json.dumps(manifest))

    code, _, stderr = run_cli(["report", "-d", str(out)], capsys)
    assert code == 4
    payload = json.loads(stderr)
    assert payload["error"] == "IntegrityError"
    assert expected in payload["message"]
    assert payload["path"] == str(out / "raw.npz")


def test_config_rejection_exits_2_with_error_json(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[study]\nepsilons = 0.1, 0.2\n", encoding="utf-8")
    code, _, stderr = run_cli(["ladder", "-c", str(bad), "-o",
                               str(tmp_path / "o")], capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"] == "ValidationError"
    assert payload["field"] == "study.epsilons"
    assert payload["line"] == 2

    code, _, stderr = run_cli(["ladder", "-c", str(tmp_path / "missing.ini"),
                               "-o", str(tmp_path / "o")], capsys)
    assert code == 2
    assert json.loads(stderr)["error"] == "ConfigError"


@pytest.mark.parametrize("command", ["ladder", "corrector"])
def test_rejected_study_creates_no_output_directory(tmp_path, capsys,
                                                    command):
    # 64 cells under-resolve epsilon = 1/8 (the study needs 16/eps = 128);
    # the study is built, and rejected, before the output directory.
    cfg = tmp_path / "coarse.ini"
    cfg.write_text(ini("""
        [grid]
        cells = 64
        [stepper]
        dt = 0.01
        horizon = 0.02
        [study]
        epsilons = 0.125
        """), encoding="utf-8")
    out = tmp_path / "out_ladder"
    code, _, stderr = run_cli([command, "-c", str(cfg), "-o", str(out)],
                              capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"] == "ValidationError"
    assert payload["field"] == "study.epsilons"
    assert not out.exists()


NON_ELLIPTIC = {
    # a(y) = 1 + 1.5 sin(2 pi y) under a declared kappa, which once let
    # simulate run it (exit 0) and cell and ladder fail (exit 3); kappa is
    # derived now, and a line that sets it is an unknown key
    "layered_override": ("layered\nalpha = 1\nbeta = 1.5\nkappa = 0.5\n",
                         "coefficient.kappa", 7),
    # (0.5 + sin)(0.5 + cos) reaches -0.75; the bound once taken as the
    # product of the lower ends, 0.25, let simulate crash (exit 5)
    "separable_trig": ("separable_trig\nalpha = 0.5\nbeta = 1\n"
                       "gamma = 0.5\ndelta = 1\n", "coefficient", 3),
}


@pytest.mark.parametrize("command", ["cell", "simulate", "ladder"])
@pytest.mark.parametrize("case", sorted(NON_ELLIPTIC))
def test_non_elliptic_coefficient_exits_2_before_the_run(tmp_path, capsys,
                                                        command, case):
    family, field, line = NON_ELLIPTIC[case]
    cfg = write_ladder_ini(tmp_path, LADDER_INI.replace(
        "[stepper]", "[coefficient]\nfamily = " + family + "[stepper]"))
    out = tmp_path / "out"
    code, _, stderr = run_cli([command, "-c", str(cfg), "-o", str(out)],
                              capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert (payload["field"], payload["line"]) == (field, line)
    assert not out.exists()


def test_solver_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "blowup.ini"
    cfg.write_text(ini("""
        [grid]
        cells = 64
        [stepper]
        dt = 0.01
        horizon = 0.02
        [study]
        epsilons = 0.5
        cell_cells = 32
        initial_amplitude = 50
        """), encoding="utf-8")
    code, _, stderr = run_cli(["ladder", "-c", str(cfg), "-o",
                               str(tmp_path / "o")], capsys)
    assert code == 3
    assert json.loads(stderr)["error"] == "StepRejected"


@pytest.mark.parametrize("text, field", [
    ("[stepper]\ndt = 0.003\nhorizon = 0.01\n", "stepper.horizon"),
    ("[grid]\ncells = 16\n[noise]\nmodes = 16\n", "noise.modes"),
    ("[noise]\nmodes = 0\n", "noise.modes"),
    ("[stepper]\ntol = 0\n", "stepper.tol"),
    ("[study]\ncell_cells = 24\n", "study.cell_cells"),
    ("[study]\ncell_tau_slices = 0\n", "study.cell_tau_slices"),
    ("[study]\ninitial_amplitude = inf\n", "study.initial_amplitude"),
    ("[stepper]\nhorizon = nan\n", "stepper.horizon"),
    ("[study]\nepsilons = 0.5, inf\n", "study.epsilons"),
    ("[model]\neta = 0.2\n", "model.eta"),
    ("[model]\nell = 0.2\n", "model.ell"),
])
def test_config_values_rejected_before_the_run(tmp_path, capsys, text,
                                               field):
    # Each of these used to reach a bare ValueError (or a non-finite
    # state) only once the run had started.
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    code, _, stderr = run_cli(["simulate", "-c", str(cfg), "-o",
                               str(tmp_path / "o")], capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert payload["field"] == field
    assert payload["line"] == int(text.count("\n"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "ladder", "corrector"])
def test_initial_mode_outside_the_grid_exits_2(tmp_path, capsys, command):
    # on 64 cells sin(64 pi x) vanishes at every node: the run used to
    # exit 0 with a zero initial state
    text = LADDER_INI.replace("initial_amplitude = 0.5\n",
                              "initial_amplitude = 0.5\ninitial_mode = 64\n")
    cfg = write_ladder_ini(tmp_path, text)
    out = tmp_path / "out"
    code, _, stderr = run_cli([command, "-c", str(cfg), "-o", str(out)],
                              capsys)
    assert code == 2
    payload = json.loads(stderr)
    line = text.splitlines().index("initial_mode = 64") + 1
    assert (payload["field"], payload["line"]) == ("study.initial_mode",
                                                   line)
    assert not out.exists()


def test_study_config_bounds_the_initial_mode():
    # 1 ... cells - 1: mode 0 vanishes too, and mode 65 aliases to 63
    study = parse_config(LADDER_INI).study()
    assert dataclasses.replace(study, initial_mode=63).initial_mode == 63
    for mode in (0, 64, 65):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(study, initial_mode=mode)
        assert err.value.field == "initial_mode"


def test_internal_error_exits_5(tmp_path, capsys, monkeypatch):
    # A bare ValueError escaping a run is a bug, not a solver failure.
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("twoscale.cli.run_ensemble", broken)
    cfg = tmp_path / "sim.ini"
    cfg.write_text("[grid]\ncells = 16\n", encoding="utf-8")
    code, _, stderr = run_cli(["simulate", "-c", str(cfg), "-o",
                               str(tmp_path / "o")], capsys)
    assert code == 5
    payload = json.loads(stderr)
    assert payload["error"] == "InternalError"
    assert payload["cause"] == "ValueError"
    assert "could not be broadcast" in payload["message"]


def sharded_ladder_ini(tmp_path, monkeypatch, shards):
    """A ladder of two one-replica blocks, stepped by ``shards`` processes."""
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: shards)
    return write_ladder_ini(tmp_path, LADDER_INI.replace(
        "members = 1", "members = 4"))


def test_ladder_archive_does_not_depend_on_the_shard_count(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    outs = {}
    for shards in (1, 2):
        cfg = sharded_ladder_ini(tmp_path, monkeypatch, shards)
        outs[shards] = tmp_path / f"shards{shards}"
        with deadline(60):
            assert run_cli(["ladder", "-c", str(cfg), "-o",
                            str(outs[shards])], capsys)[0] == 0
        info = json.loads((outs[shards] / "run_info.json").read_text())
        assert info["shards"] == shards
    for name in ("manifest.json", "raw.npz"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()
    assert "shards" not in (outs[1] / "manifest.json").read_text()


def test_level_split_ladder_archive_matches_one_shard(tmp_path, monkeypatch,
                                                     capsys):
    # one block of two paths and two eps levels: with two CPUs each process
    # steps one eps level and its own copy of the effective level
    cfg = write_ladder_ini(tmp_path)
    outs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        outs[cpus] = tmp_path / f"cpus{cpus}"
        with deadline(60):
            assert run_cli(["ladder", "-c", str(cfg), "-o",
                            str(outs[cpus])], capsys)[0] == 0
        info = json.loads((outs[cpus] / "run_info.json").read_text())
        assert info["shards"] == cpus
    for name in ("manifest.json", "raw.npz"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()


ONE_PATH_2D_INI = ini("""
    [grid]
    dimension = 2
    cells = 128
    [coefficient]
    family = checkerboard
    [stepper]
    dt = 0.001
    horizon = 0.005
    [ensemble]
    members = 1
    replicas = 1
    [study]
    epsilons = 0.25
    [run]
    seed = 7
    """)


FOUR_PATH_2D_INI = ini("""
    [grid]
    dimension = 2
    cells = 128
    [coefficient]
    family = checkerboard
    [model]
    noise_law = mode_modulated
    [stepper]
    dt = 0.001
    horizon = 0.005
    [ensemble]
    members = 2
    replicas = 2
    [study]
    epsilons = 0.25
    [run]
    seed = 7
    """)

LAYERED_1D_INI = ini("""
    [grid]
    cells = 1024
    [model]
    noise_law = mode_modulated
    [stepper]
    dt = 0.0001
    horizon = 0.0005
    [ensemble]
    members = 8
    replicas = 8
    [run]
    seed = 7
    """)


SPLIT_SIMULATE_INI = ini("""
    [grid]
    cells = 1024
    [coefficient]
    family = separable_trig
    [model]
    noise_law = mode_modulated
    sigma0 = 0.5
    [stepper]
    dt = 0.0001
    horizon = 0.0005
    [ensemble]
    members = 34
    [run]
    seed = 7
    """)


def cli_in_subprocess(argv, threads):
    """Run the CLI in a fresh interpreter with ``threads`` OpenBLAS
    threads, which only a new process can set."""
    package_root = str(Path(twoscale.__file__).resolve().parents[1])
    script = "import sys; from twoscale.cli import main; sys.exit(main())"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_ladder_bits_do_not_depend_on_blas_threads(tmp_path):
    # The pairing of a one-path 2D ladder was a BLAS product whose bits
    # changed with the OpenBLAS thread count; it is a fixed-order sum now.
    # The multi-path ladders form the mode-modulated noise product on
    # 2D and 1D stacks. The simulate run has 17 members of 1023 values per
    # CPU on two CPUs, enough to split; each shard forms the whole-stack
    # noise product.
    ladders = {"one_path_2d": ONE_PATH_2D_INI,
               "four_path_2d": FOUR_PATH_2D_INI,
               "layered_1d": LAYERED_1D_INI}
    for name, text in ladders.items():
        ladders[name] = tmp_path / f"{name}.ini"
        ladders[name].write_text(text, encoding="utf-8")
    simulate = tmp_path / "simulate.ini"
    simulate.write_text(SPLIT_SIMULATE_INI, encoding="utf-8")
    raw, manifests = {}, []
    for threads in ("1", "2"):
        for name, ladder in ladders.items():
            out = tmp_path / f"{name}{threads}"
            cli_in_subprocess(["ladder", "-c", str(ladder), "-o", str(out)],
                              threads)
            raw.setdefault(name, []).append((out / "raw.npz").read_bytes())
        sim = tmp_path / f"simulate{threads}"
        cli_in_subprocess(["simulate", "-c", str(simulate), "-o", str(sim)],
                          threads)
        manifests.append((sim / "manifest.json").read_bytes())
        info = json.loads((sim / "run_info.json").read_text())
        assert info["shards"] == len(ensemble_shards(34, 1023))
    for name, (one, two) in raw.items():
        assert one == two, name
    assert manifests[0] == manifests[1]


SIMULATE_INIS = {
    "1d": ini("""
        [grid]
        cells = 64
        [coefficient]
        family = separable_trig
        [model]
        noise_law = mode_modulated
        sigma0 = 0.5
        [stepper]
        dt = 0.001
        horizon = 0.005
        [ensemble]
        members = 6
        [run]
        seed = 7
        """),
    "2d": ini("""
        [grid]
        dimension = 2
        cells = 16
        [coefficient]
        family = checkerboard
        [model]
        noise_law = mode_modulated
        [stepper]
        dt = 0.001
        horizon = 0.004
        [ensemble]
        members = 3
        [run]
        seed = 7
        """),
}


def sharded_simulate_ini(tmp_path, monkeypatch, shards, case="1d"):
    """A simulate config whose members ``shards`` processes step."""
    monkeypatch.setattr(parallel, "BLOCK_VALUES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: shards)
    path = tmp_path / "simulate.ini"
    path.write_text(SIMULATE_INIS[case], encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(SIMULATE_INIS))
def test_simulate_archive_does_not_depend_on_the_shard_count(tmp_path,
                                                             monkeypatch,
                                                             capsys, case):
    outs = {}
    for shards in (1, 2):
        cfg = sharded_simulate_ini(tmp_path, monkeypatch, shards, case)
        outs[shards] = tmp_path / f"shards{shards}"
        with deadline(60):
            assert run_cli(["simulate", "-c", str(cfg), "-o",
                            str(outs[shards])], capsys)[0] == 0
        assert_no_child_left()
        info = json.loads((outs[shards] / "run_info.json").read_text())
        assert info["shards"] == shards
    listed = read_manifest(outs[1])["files"]
    assert listed == read_manifest(outs[2])["files"]
    for name in ["manifest.json", *listed]:
        assert (outs[1] / name).read_bytes() == \
            (outs[2] / name).read_bytes(), name
    assert "shards" not in (outs[1] / "manifest.json").read_text()


def test_simulate_child_that_dies_exits_5(tmp_path, monkeypatch, capsys):
    cfg = sharded_simulate_ini(tmp_path, monkeypatch, 2)
    parent = os.getpid()
    draw = NoiseStream.draw

    def dying_draw(self, count=None):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(self, count)

    monkeypatch.setattr(NoiseStream, "draw", dying_draw)
    with deadline(60):
        code, _, stderr = run_cli(["simulate", "-c", str(cfg), "-o",
                                   str(tmp_path / "o")], capsys)
    assert_no_child_left()
    assert code == 5
    payload = json.loads(stderr)
    assert payload["error"] == "InternalError"
    assert payload["message"] == (
        f"simulate shard of members 3..5 ended with signal "
        f"{int(signal.SIGKILL)} and no report")


def test_ladder_child_that_dies_exits_5(tmp_path, monkeypatch, capsys):
    cfg = sharded_ladder_ini(tmp_path, monkeypatch, 2)
    parent = os.getpid()
    draw = NoiseStream.draw

    def dying_draw(self, count=None):
        if os.getpid() != parent:
            os._exit(3)
        return draw(self, count)

    monkeypatch.setattr(NoiseStream, "draw", dying_draw)
    with deadline(60):
        code, _, stderr = run_cli(["ladder", "-c", str(cfg), "-o",
                                   str(tmp_path / "o")], capsys)
    assert_no_child_left()
    assert code == 5
    payload = json.loads(stderr)
    assert payload["error"] == "InternalError"
    assert "paths 4..7" in payload["message"]
    assert "exit status 3" in payload["message"]


def test_output_root_env_var_names_run_directories(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[study]\ncell_cells = 32\n", encoding="utf-8")
    code, stdout, _ = run_cli(["cell", "-c", str(cfg)], capsys)
    assert code == 0
    out = tmp_path / "root" / \
        f"cell-{parse_config(cfg.read_text()).digest()[:12]}"
    assert stdout.strip() == str(out)
    assert (out / "cell.json").is_file()


def test_output_directory_from_config(tmp_path, capsys):
    target = tmp_path / "from-config"
    cfg = tmp_path / "cell.ini"
    cfg.write_text(f"[study]\ncell_cells = 32\n[run]\noutput = {target}\n",
                   encoding="utf-8")
    code, stdout, _ = run_cli(["cell", "-c", str(cfg)], capsys)
    assert code == 0
    assert stdout.strip() == str(target)
    assert (target / "manifest.json").is_file()


@pytest.mark.parametrize("source", ["flag", "config", "environment"])
def test_uncreatable_output_directory_exits_2(tmp_path, monkeypatch, capsys,
                                              source):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    text, argv = "[study]\ncell_cells = 32\n", []
    if source == "flag":
        argv = ["-o", str(blocker)]
    elif source == "config":
        text += f"[run]\noutput = {blocker}\n"
    else:
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(blocker))
    cfg = tmp_path / "cell.ini"
    cfg.write_text(text, encoding="utf-8")

    code, _, stderr = run_cli(["cell", "-c", str(cfg), *argv], capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"] == "ConfigError"
    assert str(blocker) in payload["message"]
    if source == "config":
        assert payload["field"] == "run.output" and payload["line"] == 4
    else:
        assert "field" not in payload and "line" not in payload


def test_plot_data_flag_is_refused(tmp_path, capsys):
    # a ladder's epsilon,error pairs are `cut -d, -f1,2 report.csv`
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["ladder", "-c", str(cfg), "-o", str(out), "--plot-data"])
    assert err.value.code == 2
    assert "--plot-data" in capsys.readouterr().err
    assert not out.exists()


def test_ladder_without_flag_writes_no_plot_data(tmp_path, capsys):
    cfg = write_ladder_ini(tmp_path)
    out = tmp_path / "out"
    run_cli(["ladder", "-c", str(cfg), "-o", str(out)], capsys)
    assert not (out / "plot_data.csv").exists()
    assert "plot_data.csv" not in read_manifest(out)["files"]


SMALL_SIMULATE_INI = ini("""
    [grid]
    cells = 64
    [stepper]
    dt = 0.01
    horizon = 0.02
    [ensemble]
    members = 2
    [study]
    epsilons = 0.5, 0.25
    initial_amplitude = 0.5
    """)


def small_simulate(tmp_path, capsys):
    """The run directory of a two-member, two-step ``simulate``."""
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SMALL_SIMULATE_INI, encoding="utf-8")
    out = tmp_path / "out"
    code, _, _ = run_cli(["simulate", "-c", str(cfg), "-o", str(out)],
                         capsys)
    assert code == 0
    return out


def test_simulate_writes_states_and_ledgers(tmp_path, capsys):
    out = small_simulate(tmp_path, capsys)
    manifest = verify_archive(out)
    assert sorted(manifest["files"]) == ["config.snapshot.ini",
                                         "final_states.npy", "ledgers.npy",
                                         "simulate.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*manifest["files"], "manifest.json", "run_info.json"])
    states = np.load(out / "final_states.npy")
    assert states.shape == (2, 63)
    assert np.all(np.isfinite(states))
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["epsilon"] == 0.25  # the finest rung drives the run
    assert summary["members"] == 2
    assert summary["ledger_columns"] == ["step", "t", "H2", "V2", "L4",
                                         "cumulative_dissipation"]
    # one (steps + 1, members, columns) table: initial row plus two steps
    ledgers = np.load(out / "ledgers.npy")
    assert ledgers.dtype == np.float64
    assert ledgers.shape == (3, 2, len(summary["ledger_columns"]))
    assert np.array_equal(ledgers[:, :, 0], [[0, 0], [1, 1], [2, 2]])
    # mean_H2 is read from the table's last H2 row, with the bits of the
    # final states' squared H norms (h = 1/64 is a power of two)
    h2 = ledgers[-1, :, summary["ledger_columns"].index("H2")]
    assert summary["mean_H2"] == float(np.mean(h2)) == float(
        np.mean(np.sum(states ** 2, axis=-1)) / 64)


def test_readme_one_liner_prints_a_member_ledger(tmp_path, capsys):
    out = small_simulate(tmp_path, capsys)
    table = np.load(out / "ledgers.npy")
    columns = json.loads((out / "simulate.json").read_text())[
        "ledger_columns"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [line] = [line for line in readme.splitlines()
              if line.startswith("python3 -c") and "ledgers.npy" in line]
    command = shlex.split(line)
    assert command[:2] == ["python3", "-c"]
    assert command[3:] == ["DIR/ledgers.npy", "0", "ledger_m000.csv"]
    package_root = str(Path(twoscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    for member in range(table.shape[1]):
        csv = tmp_path / f"ledger_m{member:03d}.csv"
        proc = subprocess.run([sys.executable, "-c", command[2],
                               str(out / "ledgers.npy"), str(member),
                               str(csv)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        header, *rows = csv.read_text().splitlines()
        assert header == ",".join(columns)
        assert len(rows) == table.shape[0]
        for n, row in enumerate(rows):
            fields = row.split(",")
            assert fields[0] == str(n)  # the step prints as an integer
            assert [float(f) for f in fields] == table[n, member].tolist()


@pytest.mark.parametrize("command", ["cell", "simulate", "ladder",
                                     "corrector"])
def test_simulate_rejects_velocity_variant(tmp_path, capsys, command):
    cfg = tmp_path / "velocity.ini"
    cfg.write_text(ini("""
        [grid]
        dimension = 2
        cells = 32
        [coefficient]
        family = checkerboard
        [model]
        variant = navier_stokes_2d
        [stepper]
        dt = 0.01
        horizon = 0.02
        [ensemble]
        members = 1
        """), encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = run_cli([command, "-c", str(cfg), "-o", str(out)],
                              capsys)
    assert code == 2
    payload = json.loads(stderr)
    assert payload["error"] == "ValidationError"
    assert payload["field"] == "model.variant"
    assert not out.exists()


def declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml declares for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_reports_version(tmp_path):
    # Run the wrapper pip generates for the declared entry point, against the
    # twoscale package under test, so the check needs no install.
    module, _, attr = declared_console_script("twoscale").partition(":")
    wrapper = ("import sys\n"
               f"from {module} import {attr.split('.')[0]}\n"
               "sys.argv[0] = 'twoscale'\n"
               f"sys.exit({attr}())\n")
    package_root = str(Path(twoscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == twoscale.__version__

    # Where an install put the script on PATH, check that one as well.
    exe = shutil.which("twoscale")
    if exe is not None:
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == twoscale.__version__
