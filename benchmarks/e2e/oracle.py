"""Expected results: the row store + scalar ``PipelineExecutor`` oracle.

Every statement of the template grids is run once on a **row**-backend
database with the scalar executor in mode NONE, and its
``[row_count, digest]`` is stored in ``expected/scale-<scale>.json`` keyed
by a hash of the SQL text. The files cover the whole grid, so every seed
finds its statements there; a statement that is missing (another scale, a
changed template) gets its oracle computed on the fly, untimed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def statement_key(sql: str) -> str:
    return hashlib.sha256(sql.encode()).hexdigest()[:16]


def digest(rows: Iterable[Sequence]) -> str:
    """Order-insensitive digest: adaptive runs emit the same rows in
    another order, and served rows arrive as JSON lists."""
    lines = sorted(json.dumps(list(row)) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


def expected_path(scale: float) -> Path:
    return EXPECTED_DIR / f"scale-{scale:g}.json"


def compute(statements: Sequence[str], scale: float) -> dict[str, list]:
    from repro import AdaptiveConfig, ReorderMode
    from repro.dmv import load_dmv

    db, _ = load_dmv(scale=scale, extended=True, backend="row")
    config = AdaptiveConfig(mode=ReorderMode.NONE)  # batched=False: scalar
    expected = {}
    for sql in statements:
        result = db.execute(sql, config)
        if result.stats.engine != "scalar":
            raise RuntimeError(f"oracle ran engine {result.stats.engine!r}")
        expected[statement_key(sql)] = [len(result.rows), digest(result.rows)]
    return expected


def write(statements: Sequence[str], scale: float) -> Path:
    path = expected_path(scale)
    path.parent.mkdir(exist_ok=True)
    lines = ",\n".join(  # one statement per line, so a diff reads
        f"{json.dumps(key)}: {json.dumps(value)}"
        for key, value in sorted(compute(statements, scale).items())
    )
    path.write_text(f'{{"scale": {scale:g}, "statements": {{\n{lines}\n}}}}\n')
    return path


def load(statements: Sequence[str], scale: float) -> dict[str, list]:
    """``{statement_key: [row_count, digest]}`` for every given statement."""
    path = expected_path(scale)
    known = json.loads(path.read_text())["statements"] if path.exists() else {}
    missing = [sql for sql in statements if statement_key(sql) not in known]
    if missing:
        print(
            f"oracle: computing {len(missing)} expected results on the fly "
            f"(not in {path.name}; run.py --write-expected stores them)",
            file=sys.stderr,
        )
        known.update(compute(missing, scale))
    return known
