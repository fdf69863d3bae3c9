"""Run archives: deterministic manifests plus a volatile timing sidecar.

manifest.json carries only reproducible content (toolkit version, config
digest, seed, per-file sha256 digests), so rerunning the same config and
seed rewrites it byte for byte. Wall-clock time and the environment
fingerprint change between reruns by nature and live in run_info.json,
which integrity checks deliberately ignore.
"""
from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

from .errors import IntegrityError

__all__ = ["file_digest", "write_manifest", "write_run_info",
           "read_manifest", "verify_archive", "MANIFEST_NAME",
           "RUN_INFO_NAME"]

MANIFEST_NAME = "manifest.json"
RUN_INFO_NAME = "run_info.json"


def file_digest(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: Path | str, config_digest: str, seed: int,
                   files: list[str], extra: dict | None = None) -> Path:
    """Digest the named files (relative to out_dir) and write manifest.json.

    ``extra`` holds additional reproducible metadata (noise parameters,
    trace tail bound); it must be deterministic for a given config+seed.
    """
    from . import __version__
    out = Path(out_dir)
    entries = {name: file_digest(out / name) for name in sorted(files)}
    payload = {
        "toolkit_version": __version__,
        "config_digest": config_digest,
        "seed": int(seed),
        "files": entries,
    }
    if extra:
        payload.update(extra)
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def write_run_info(out_dir: Path | str, wall_clock: float,
                   command: str, extra: dict | None = None) -> Path:
    """Volatile sidecar: timing, environment fingerprint and ``extra``."""
    import numpy
    import scipy
    payload = {
        "wall_clock_seconds": float(wall_clock),
        "command": command,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        **(extra or {}),
    }
    path = Path(out_dir) / RUN_INFO_NAME
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def read_manifest(out_dir: Path | str) -> dict:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.is_file():
        raise IntegrityError(f"no {MANIFEST_NAME} in {out_dir}",
                             path=str(path))
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"unreadable manifest: {exc}",
                             path=str(path)) from None


def verify_archive(out_dir: Path | str,
                   only: list[str] | None = None) -> dict:
    """Check digests of archived files against the manifest.

    ``only`` restricts the check to the named files (the ones a consumer
    is about to read); by default every manifest entry is checked. The
    first missing or mismatched file raises IntegrityError carrying the
    expected digest.
    """
    out = Path(out_dir)
    manifest = read_manifest(out)
    names = only if only is not None else sorted(manifest["files"])
    for name in names:
        expected = manifest["files"].get(name)
        if expected is None:
            raise IntegrityError(
                f"archive has no digest entry for {name!r}", path=name)
        target = out / name
        if not target.is_file():
            raise IntegrityError(
                f"archived file {name!r} is missing "
                f"(expected sha256 {expected})",
                digest=expected, path=str(target))
        actual = file_digest(target)
        if actual != expected:
            raise IntegrityError(
                f"digest mismatch for {name!r}: manifest says {expected}, "
                f"file hashes to {actual}", digest=expected,
                path=str(target))
    return manifest
