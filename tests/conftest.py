from __future__ import annotations

from pathlib import Path

import pytest

from cotbench.extraction import ExtractedAnswer, ExtractionFailure
from cotbench.rundir import CallRecord, CheckedRecord, check_record, load_records
from cotbench.tasks import OracleAnswer, TaskInstance

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


def build_record(checked: CheckedRecord) -> CallRecord:
    """The record a checked JSON object holds, built whole; nothing is checked again."""
    data, cell, index, (elements, params, length), reason, verdict = checked
    kind = cell.answer_kind
    raw = data["extraction"]
    extraction: ExtractedAnswer | ExtractionFailure
    if reason is None:
        extraction = ExtractedAnswer(raw["raw_span"], raw["value"], kind, raw["position"])
    else:
        extraction = ExtractionFailure(reason, raw.get("detail", ""))
    return CallRecord(
        cell=cell,
        index=index,
        instance=TaskInstance(cell.task, elements, params, length, data["instance"].get("seed_path", "")),
        oracle=OracleAnswer(kind, data["oracle"]),
        prompt_sha256=data["prompt_sha256"],
        transcript=data["transcript"],
        extraction=extraction,
        verdict=verdict,
        error=data.get("error"),
        error_detail=data.get("error_detail", ""),
        latency_s=data.get("latency_s", 0.0),
        attempts=data.get("attempts", 1),
        timestamp=data.get("timestamp", ""),
    )


def record_from_json(data) -> CallRecord:
    """Decode one record line's JSON whole; ValueError, KeyError or MalformedInstance if it holds none."""
    return build_record(check_record(data))


def keyed_records(run_dir) -> dict[tuple[str, int], CallRecord]:
    """A run's records, built whole and keyed by (cell label, index), for tests that look records up."""
    return {(checked.cell.label, checked.index): build_record(checked) for checked in load_records(run_dir)}
