"""Correctness checks on what a phase left behind, all against reference.py.

Each check returns a list of problems (empty when the output is right).
Record files are read line by line as the program wrote them, so that a
duplicate or missing record is seen rather than merged away.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

import reference

Z_95 = statistics.NormalDist().inv_cdf(0.975)
MAX_PROBLEMS = 5


def _same(a, b) -> bool:
    """Equal and of the same JSON type (True must not pass for 1)."""
    return type(a) is type(b) and a == b


def expected_cells(spec_json: dict) -> set[tuple]:
    return {
        (task, length, kind, spec_json["rendering"])
        for task in spec_json["tasks"]
        for length in spec_json["lengths"][task]
        for kind in spec_json["kinds"]
    }


def record_files(run_dir: Path) -> list[Path]:
    return sorted((run_dir / "records").glob("*.jsonl"))


def check_records(run_dir: Path, spec_json: dict) -> tuple[list[str], dict]:
    """Exactly one correct record per (cell, index), each scored against the reference answer.

    Returns the problems found and totals: records, bytes and backend attempts.
    """
    problems: list[str] = []
    instances = spec_json["instances_per_cell"]
    wanted = {cell + (index,) for cell in expected_cells(spec_json) for index in range(instances)}
    seen: set[tuple] = set()
    totals = {"records": 0, "bytes": 0, "attempts": 0}
    for path in record_files(run_dir):
        totals["bytes"] += path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["task"], rec["length"], rec["kind"], rec["rendering"], rec["index"])
                totals["records"] += 1
                totals["attempts"] += rec["attempts"]
                if key in seen:
                    problems.append(f"duplicate record {key}")
                seen.add(key)
                elements = rec["instance"]["elements"]
                if sum(1 for e in elements if e != reference.PALINDROME_MARKER) != rec["length"]:
                    problems.append(f"{key}: instance has the wrong length")
                answer = reference.solve(rec["task"], elements, rec["instance"]["params"])
                if not _same(rec["oracle"], answer):
                    problems.append(f"{key}: stored oracle {rec['oracle']!r}, reference {answer!r}")
                extraction = rec["extraction"]
                matches = bool(extraction["ok"]) and _same(extraction["value"], answer)
                if (rec["verdict"] == "correct") != matches:
                    problems.append(f"{key}: verdict {rec['verdict']} but extracted answer matches={matches}")
                elif not matches:
                    problems.append(f"{key}: verdict {rec['verdict']}, error {rec.get('error')}")
                if len(problems) >= MAX_PROBLEMS:
                    return problems, totals
    if seen != wanted:
        problems.append(f"{len(wanted - seen)} records missing, {len(seen - wanted)} unexpected")
    return problems, totals


def snapshot(run_dir: Path) -> dict[str, str]:
    """sha256 of every record file, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in record_files(run_dir)}


def check_table(run_dir: Path, spec_json: dict) -> list[str]:
    """Every cell of the written table: n instances, all correct, Wilson bounds [n/(n+z^2), 1]."""
    problems = []
    if not (run_dir / "table.txt").is_file():
        problems.append("table.txt was not written")
    cells = json.loads((run_dir / "table.json").read_text(encoding="utf-8"))["cells"]
    n = spec_json["instances_per_cell"]
    low = n / (n + Z_95 * Z_95)
    keys = set()
    for cell in cells:
        key = (cell["task"], cell["length"], cell["kind"], cell["rendering"])
        keys.add(key)
        if (cell["n"], cell["n_correct"], cell["accuracy"], cell["ci_high"]) != (n, n, 1.0, 1.0):
            problems.append(f"{key}: n={cell['n']} correct={cell['n_correct']} accuracy={cell['accuracy']}")
        elif abs(cell["ci_low"] - low) > 1e-12:
            problems.append(f"{key}: Wilson lower bound {cell['ci_low']}, expected {low}")
    if keys != expected_cells(spec_json) or len(cells) != len(keys):
        problems.append("table cells differ from the spec's cells")
    return problems[:MAX_PROBLEMS]


def check_census(census, task: str, length: int) -> list[str]:
    """An answered census cell holds the closed-form counts of its reference instance."""
    total, correct = reference.census_counts(task, length)
    if census.length != length or census.total != total or census.correct != correct:
        return [
            f"census {task}.{length}: {census.correct}/{census.total}, expected {correct}/{total}"
        ]
    return []
