"""Locate the checkout this benchmark lives in and import *its* ``repro``.

The benchmark measures the program in the same checkout, never an installed
copy: ``src/`` of the checkout goes first on ``sys.path`` and the import is
verified to come from there.  In a directory that holds only the benchmark
(no ``src/``) this exits non-zero before anything is measured.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
RESULTS = PERF / "results"


def use_checkout_source() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    import repro

    if source not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perf: imported repro from {repro.__file__}, not from {source}")
