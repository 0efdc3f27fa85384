from __future__ import annotations

from pathlib import Path

import pytest

from cotbench.rundir import CallRecord, load_records

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# (fixture name, task code, supervision kind, expected extracted value)
CASE_STUDIES = [
    ("case_ep_cot", "ep", "cot", 6),
    ("case_ep_scot_sub", "ep", "scot-sub", 7),
    ("case_ep_scot", "ep", "scot", 9),
    ("case_rl_cot", "rl", "cot", "evxdkmivkbgfo"),
    ("case_rl_scot_sub", "rl", "scot-sub", "evxdkhmivkbgfo"),
    ("case_rl_scot", "rl", "scot", "evxedkhmivkbgfo"),
]

CASE_EP_LIST = list("bbbbababbbbbababbbba")
CASE_RL_LIST = list("ofgbkvimhkdexve")
assert len(CASE_EP_LIST) == 20 and len(CASE_RL_LIST) == 15

CASE_ORACLES = {"ep": 9, "rl": "evxedkhmivkbgfo"}


def load_case(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.fixture
def case_transcripts():
    return {name: load_case(name) for name, *_ in CASE_STUDIES}


def keyed_records(run_dir) -> dict[tuple[str, int], CallRecord]:
    """A run's records keyed by (cell label, index), for tests that look records up."""
    return {(record.cell.label, record.index): record for record in load_records(run_dir)}
