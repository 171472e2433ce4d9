"""The output ledger: sha256 of every file the commands write on fixed inputs.

``regenerate(out_root)`` runs ``scan``, ``spectrum --mode x|y`` and
``stokes`` in CSV and JSON on ``configs/default.cfg`` and on the three
``analytic-sweep`` configs under ``tests/configs/`` (seeds 1-3 of
``perfbench/inputs.py``, committed as text), plus the shipped ``oracle
--mode y`` report, and returns each file's sha256 by name.

``test_output_ledger.py`` compares that against ``output_ledger.json``.  A
change that moves output bytes on purpose rewrites the ledger with

    PYTHONPATH=src python tests/output_ledger.py

and shows the ledger's diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

from kerrpol import cli

HERE = pathlib.Path(__file__).resolve().parent
LEDGER = HERE / "output_ledger.json"
CONFIGS = {"default": HERE.parent / "configs" / "default.cfg",
           **{f"sweep_seed{s}": HERE / "configs" / f"sweep_seed{s}.cfg"
              for s in (1, 2, 3)}}
COMMANDS = (["scan"], ["spectrum", "--mode", "x"], ["spectrum", "--mode", "y"],
            ["stokes"])


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"kerrpol {' '.join(argv)} exited {code}")


def regenerate(out_root: pathlib.Path) -> dict[str, str]:
    """Write every ledger file under ``out_root``; sha256 by ledger name."""
    runs = [(name, fmt, command) for name in CONFIGS
            for fmt in ("csv", "json") for command in COMMANDS]
    runs.append(("default", "json", ["oracle", "--mode", "y"]))
    for name, fmt, command in runs:
        _run([*command, "--config", str(CONFIGS[name]),
              "--out", str(out_root / name), "--format", fmt])
    return {f"{path.parent.name}/{path.name}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_root.glob("*/*"))}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = regenerate(pathlib.Path(tmp))
    LEDGER.write_text(json.dumps({"numpy": np.__version__, "files": files},
                                 indent=1) + "\n")
    print(f"{LEDGER}: {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
