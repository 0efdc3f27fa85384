"""The run directory: its spec, its records, and the one module that reads and writes them.

A run is a directory: ``spec.json`` freezes the experiment definition,
``records/<cell>.jsonl`` collects one call record per line, and
``table.json`` / ``table.txt`` hold the aggregates.  Records are keyed by
(cell, index) so interrupted runs resume without duplicating work.  The
record format is written down twice, once per direction: a run writes each
line through ``record_appender``, which splices the encoded instance part
(``encode_shared``) and the JSON text of the call's ``record_tail`` into
the line and appends it to the cell file as bytes, and ``check_record``
decides whether a line holds a record.  ``load_records`` is the one reader
of a run's records: a resume, a report, a replay and a comparison all go
through it, and it reads exactly the cell files of the run's spec, one at
a time, so a reader holds one cell's records whatever the size of the run.
Every reader takes a record's key, outcome and transcript from the
``CheckedRecord`` that check returns.

``spec.json`` also records the version of the instance stream
(``GENERATOR``), and a run directory written with another stream is not
resumed.  ``read_spec`` is the one reader of a spec file, the run's own and
the one ``cotbench run --spec`` is given alike.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property, lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from cotbench.extraction import ExtractedAnswer, ExtractionFailure, FailureReason, Verdict
from cotbench.prompts import SupervisionKind
from cotbench.tasks import (
    ANSWER_TYPES,
    DEFAULT_LENGTHS,
    Answer,
    InputRendering,
    MalformedInstance,
    TaskId,
    TaskInstance,
    UnsupportedLength,
    check_length,
    instance_fields,
)

# Version of the instance stream, frozen into each run's spec.json.  Bump it
# whenever the instances a spec draws change (a generator or the seed path).
# Versions 1 and 2 predate the field: runs written then hold no "generator".
GENERATOR = 3

SPEC_FILE = "spec.json"

# One encoder for the parts of a record line that are encoded once per cell
# and once per instance: json.dumps given an option builds a new encoder on
# each call.  Its output is json.dumps(..., ensure_ascii=False).
_ENCODER = json.JSONEncoder(ensure_ascii=False)

# The decoder json.loads uses.  A record line is stripped before it is
# decoded, so json.loads' own whitespace handling has nothing to skip.
_DECODER = json.JSONDecoder()

# A record holds a verdict and a failure reason as their exact values.
_VERDICTS = {verdict.value: verdict for verdict in Verdict}
_REASONS = {reason.value: reason for reason in FailureReason}

_TASK_ORDER = {task: i for i, task in enumerate(TaskId)}
_KIND_ORDER = {kind: i for i, kind in enumerate(SupervisionKind)}


class RunnerError(Exception):
    pass


class SpecError(RunnerError):
    """Experiment spec is invalid or conflicts with an existing run."""


_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", list: "a list", dict: "an object",
               bool: "a boolean", tuple: "a list of numbers"}


def typed(value, like: type, name: str):
    """``value`` if it has the JSON type ``like`` stands for (a list comes back a tuple for
    ``tuple``); TypeError if not.  An integer passes for a number, a bool for neither."""
    number = (int, float)
    if like is tuple:
        ok = type(value) is list and all(type(v) in number for v in value)
    else:
        ok = type(value) in (number if like is float else (like,))
    if not ok:
        raise TypeError(f"{name} must be {_JSON_TYPES[like]}, not {json.dumps(value)}")
    return tuple(value) if like is tuple else value


@dataclass(frozen=True)
class CompletionConfig:
    """Decoding and transport settings of a run, frozen in its ``spec.json``."""

    model: str = "gpt-4o-mini"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout_s: float = 120.0
    max_attempts: int = 3
    backoff_s: tuple[float, ...] = (1.0, 2.0, 4.0)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"backoff_s": list(self.backoff_s)}

    @staticmethod
    def from_json(data: dict) -> "CompletionConfig":
        """The settings a spec's completion object gives, each one it leaves out at its default.

        Each field must have the JSON type of its default; TypeError if not.
        """
        typed(data, dict, "completion")
        return CompletionConfig(**{
            f.name: typed(data[f.name], type(f.default), f"completion.{f.name}")
            for f in fields(CompletionConfig)
            if f.name in data
        })


@dataclass(frozen=True)
class CellKey:
    """One (task, length, kind, rendering) combination of the grid."""

    task: TaskId
    length: int
    kind: SupervisionKind
    rendering: InputRendering

    @cached_property
    def label(self) -> str:
        return f"{self.task.value}.{self.length}.{self.kind.value}.{self.rendering.value}"

    @cached_property
    def answer_type(self) -> type:
        """The type of the cell's task's answers; kept on the key, which records of one cell share."""
        return ANSWER_TYPES[self.task]

    @property
    def sort_key(self):
        return (_TASK_ORDER[self.task], self.length, _KIND_ORDER[self.kind], self.rendering.value)

    def to_json(self) -> dict:
        return {
            "task": self.task.value,
            "length": self.length,
            "kind": self.kind.value,
            "rendering": self.rendering.value,
        }

    @staticmethod
    def from_json(data: dict) -> "CellKey":
        """The shared key of the cell a record names; equal fields give the same object."""
        return _cell_key(data["task"], data["length"], data["kind"], data["rendering"])


# The records of one cell file name one cell, so the most recent keys are
# all a decode needs; the bound caps what files naming many cells can add.
@lru_cache(maxsize=1024)
def _cell_key(task, length, kind, rendering) -> CellKey:
    return CellKey(
        TaskId.parse(task),
        int(length),
        SupervisionKind.parse(kind),
        InputRendering.parse(rendering),
    )


@dataclass
class ExperimentSpec:
    """Declarative description of a full experiment grid."""

    tasks: list[TaskId]
    lengths: dict[TaskId, list[int]]
    kinds: list[SupervisionKind] = field(default_factory=lambda: list(SupervisionKind))
    rendering: InputRendering = InputRendering.LIST_FIED
    instances_per_cell: int = 50
    master_seed: int = 0
    backend: dict = field(default_factory=lambda: {"kind": "echo"})
    completion: CompletionConfig = field(default_factory=CompletionConfig)
    workers: int = 4

    def validate(self) -> None:
        if not self.tasks:
            raise SpecError("spec lists no tasks")
        if self.instances_per_cell < 1:
            raise SpecError("instances_per_cell must be positive")
        if self.workers < 1:
            raise SpecError("workers must be positive")
        if self.completion.max_attempts < 1:
            raise SpecError("completion.max_attempts must be positive")
        if not self.completion.backoff_s or min(self.completion.backoff_s) < 0:
            raise SpecError("completion.backoff_s must list at least one delay, none negative")
        if len(set(self.tasks)) != len(self.tasks):
            raise SpecError("duplicate tasks in spec")
        for task in self.tasks:
            lengths = self.lengths.get(task)
            if not lengths:
                raise SpecError(f"no lengths for task {task.value}")
            if len(set(lengths)) != len(lengths):
                raise SpecError(f"duplicate lengths for task {task.value}")
            for length in lengths:
                try:
                    check_length(task, length)
                except UnsupportedLength as exc:
                    raise SpecError(f"lengths.{task.value}: {exc}") from exc

    def cells(self) -> list[CellKey]:
        return [
            CellKey(task, length, kind, self.rendering)
            for task in self.tasks
            for length in self.lengths[task]
            for kind in self.kinds
        ]

    def to_json(self) -> dict:
        return {
            "tasks": [t.value for t in self.tasks],
            "lengths": {t.value: list(self.lengths[t]) for t in self.tasks},
            "kinds": [k.value for k in self.kinds],
            "rendering": self.rendering.value,
            "instances_per_cell": self.instances_per_cell,
            "master_seed": self.master_seed,
            "backend": self.backend,
            "completion": self.completion.to_json(),
            "workers": self.workers,
        }

    @staticmethod
    def from_json(data: dict) -> "ExperimentSpec":
        """The spec a JSON object gives.

        Each field it leaves out takes its default, and each task it gives
        no lengths its ``DEFAULT_LENGTHS``.  A ``lengths`` key is read as a
        task name is, and may name a task ``tasks`` leaves out.  TypeError
        for a field of the wrong JSON type, ValueError for an unknown name or
        two ``lengths`` keys naming one task, KeyError without ``tasks``.
        """
        typed(data, dict, "a spec")
        tasks = [TaskId.parse(t) for t in typed(data["tasks"], list, "tasks")]
        raw_lengths = {}
        for key, value in typed(data.get("lengths") or {}, dict, "lengths").items():
            try:
                task = TaskId.parse(key)
            except ValueError as exc:
                raise ValueError(f"lengths: {exc}") from None
            if task in raw_lengths:
                raise ValueError(f"lengths names task {task.value} twice")
            raw_lengths[task] = value
        lengths = {}
        for task in tasks:
            if task in raw_lengths:
                name = f"lengths.{task.value}"
                given = typed(raw_lengths[task], list, name)
                lengths[task] = [typed(x, int, f"{name}[{i}]") for i, x in enumerate(given)]
            else:
                lengths[task] = list(DEFAULT_LENGTHS[task])
        ints = ("instances_per_cell", "master_seed", "workers")
        given = {name: typed(data[name], int, name) for name in ints if name in data}
        if "kinds" in data:
            given["kinds"] = [SupervisionKind.parse(k) for k in typed(data["kinds"], list, "kinds")]
        if "rendering" in data:
            given["rendering"] = InputRendering.parse(data["rendering"])
        if "backend" in data:
            given["backend"] = typed(data["backend"], dict, "backend")
        if "completion" in data:
            given["completion"] = CompletionConfig.from_json(data["completion"])
        return ExperimentSpec(tasks, lengths, **given)


def encode_shared(instance: TaskInstance, oracle: Answer) -> str:
    """The encoded part of a record that every kind's record of one instance holds alike."""
    return _ENCODER.encode({
        "instance": {
            "elements": list(instance.elements),
            "params": instance.params,
            "seed_path": instance.seed_path,
        },
        "oracle": oracle,
    })


def _answer_json(value: Answer) -> str:
    """An extracted value's JSON text, by its exact type; TypeError for a type no answer has."""
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring(value)
    raise TypeError(f"an answer is a bool, an int or a str, not {kind.__name__}")


def record_tail(
    prompt_sha256: str,
    transcript: str,
    extraction: ExtractedAnswer | ExtractionFailure,
    verdict: Verdict,
    error: str | None,
    error_detail: str,
    latency_s: float,
    attempts: int,
) -> str:
    """What one call produced, from the prompt's hash on, stamped with the time it is built.

    It comes back as the record's members in JSON text, without braces, as
    ``json.dumps(..., ensure_ascii=False)`` writes them: each string through
    the encoder's own ``encode_basestring``, a number as its ``repr``.
    """
    if isinstance(extraction, ExtractedAnswer):
        raw = (
            f'{{"ok": true, "value": {_answer_json(extraction.value)}, '
            f'"raw_span": {encode_basestring(extraction.raw_span)}, "position": {extraction.position!r}}}'
        )
    else:
        raw = (
            f'{{"ok": false, "reason": {encode_basestring(extraction.reason.value)}, '
            f'"detail": {encode_basestring(extraction.detail)}}}'
        )
    # an ISO timestamp holds nothing a JSON string escapes
    return (
        f'"prompt_sha256": {encode_basestring(prompt_sha256)}, "transcript": {encode_basestring(transcript)}, '
        f'"extraction": {raw}, "verdict": {encode_basestring(verdict.value)}, '
        f'"error": {"null" if error is None else encode_basestring(error)}, '
        f'"error_detail": {encode_basestring(error_detail)}, "latency_s": {latency_s!r}, '
        f'"attempts": {attempts!r}, "timestamp": "{datetime.now(timezone.utc).isoformat()}"'
    )


class CheckedRecord(NamedTuple):
    """A record's JSON object that passed ``check_record``, with what the check parsed from it."""

    data: dict
    cell: CellKey
    index: int
    verdict: Verdict

    @property
    def outcome(self) -> Verdict | None:
        """What the record says about the model: its verdict, or None after a backend error."""
        return self.verdict if self.data.get("error") is None else None


def _member(members: dict, value, noun: str):
    """The enum member whose value is ``value``; ValueError if none is."""
    member = members.get(value)
    if member is None:
        raise ValueError(f"unknown {noun} {value!r}")
    return member


def _require(obj: dict, names: tuple[str, ...]) -> None:
    """KeyError for the first of ``names`` that ``obj`` lacks."""
    for name in names:
        if name not in obj:
            raise KeyError(name)


def check_record(data) -> CheckedRecord:
    """Check that ``data``, a decoded record line, holds a record; it comes back with what was parsed.

    This is every rule a record keeps, for a resume, a report and a replay alike:

    - it is a JSON object naming a known task, kind and rendering, with a
      length and an index that ``int()`` accepts;
    - its instance passes ``instance_fields``: the symbols are in the
      task's alphabet, and a palindrome has one marker, at its centre;
    - its oracle is a value of the type ``ANSWER_TYPES`` gives the task:
      a boolean, an integer (not ``true``, not ``1.0``) or a string;
    - its extraction is an object holding ``raw_span``, ``value`` and
      ``position`` if ``ok``, and a known failure ``reason`` if not;
    - it holds a ``prompt_sha256``, a ``transcript`` and a known verdict.

    ValueError, KeyError or MalformedInstance if it breaks one; a field of
    the wrong JSON type, such as a list where text belongs, is a ValueError,
    and so is a length or an index that is not finite, such as ``Infinity``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a record is a JSON object, not {type(data).__name__}")
    try:
        cell = CellKey.from_json(data)
        raw_instance = data["instance"]
        instance_fields(cell.task, raw_instance["elements"], raw_instance.get("params"))
        typed(data["oracle"], cell.answer_type, "oracle")
        raw = data["extraction"]
        if not isinstance(raw, dict):
            raise ValueError(f"extraction is a JSON object, not {type(raw).__name__}")
        if raw.get("ok"):
            _require(raw, ("raw_span", "value", "position"))
        else:
            _member(_REASONS, raw["reason"], "failure reason")
        index = int(data["index"])
        _require(data, ("prompt_sha256", "transcript"))
        verdict = _member(_VERDICTS, data["verdict"], "verdict")
        return CheckedRecord(data, cell, index, verdict)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed record: {exc}") from exc


def _record_line(cell_json: str, index: int, shared_json: str, tail: str) -> str:
    """One record's line, ``json.dumps`` of its object with ``ensure_ascii=False``, and a newline.

    The object is three parts in a row: the cell's fields and the index,
    the part shared by the kinds of one instance and the call's members
    (``record_tail``), each spliced in as JSON text.  ``cell_json`` and
    ``shared_json`` are encoded once per cell and once per instance.
    """
    # an index is an int, whose JSON is its repr; json.dumps separates
    # members with ", ", which joins the encoded objects' members too
    return f'{cell_json[:-1]}, "index": {index!r}, {shared_json[1:-1]}, {tail}}}\n'


def records_dir(run_dir: Path) -> Path:
    return run_dir / "records"


def cell_file(run_dir: Path, cell: CellKey) -> Path:
    return records_dir(run_dir) / f"{cell.label}.jsonl"


def read_spec(path: Path) -> tuple[ExperimentSpec, dict]:
    """The spec in the file at ``path`` and the JSON object it was read from.

    SpecError if the file holds no spec: invalid JSON, no tasks, a field of
    the wrong JSON type, or an unknown task, kind or rendering.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return ExperimentSpec.from_json(data), data
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecError(f"{path} holds no experiment spec: {type(exc).__name__}: {exc}") from exc


def load_spec(run_dir: Path) -> ExperimentSpec:
    """The spec of the run in ``run_dir``.

    SpecError if ``run_dir`` is not a run directory, that is, holds no
    records directory or no ``spec.json``, or if that file holds no spec.
    """
    if not records_dir(run_dir).is_dir():
        raise SpecError(f"not a run directory: {run_dir} holds no records directory")
    path = run_dir / SPEC_FILE
    if not path.exists():
        raise SpecError(f"not a run directory: {run_dir} holds no {SPEC_FILE}")
    return read_spec(path)[0]


def init_run_dir(run_dir: Path, spec: ExperimentSpec) -> None:
    """Make the run directory and freeze ``spec`` into its ``spec.json``, or check the stored one.

    The stored spec is compared as stored, generator field included:
    SpecError if it holds no spec, another spec, or one drawn from another
    instance stream.
    """
    records_dir(run_dir).mkdir(parents=True, exist_ok=True)
    path = run_dir / SPEC_FILE
    frozen = {**spec.to_json(), "generator": GENERATOR}
    if not path.exists():
        path.write_text(json.dumps(frozen, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        return
    _, stored = read_spec(path)
    if stored != frozen:
        if stored.get("generator") != GENERATOR:
            raise SpecError(
                f"{path} was written with instance stream "
                f"{stored.get('generator', '1 or 2')}, and this version draws stream "
                f"{GENERATOR}: the instances changed, so refusing to resume across "
                "an instance-stream change; start a new run directory"
            )
        raise SpecError(f"{path} holds a different spec; refusing to mix runs")


def scan_cell_file(path: Path, instances_per_cell: int) -> dict[int, CheckedRecord]:
    """The records one cell file holds that belong in it, checked, by index.

    Each line is stripped and a blank one skipped.  A torn line and JSON
    that is not a record (``check_record``) are skipped, and so is a record
    of another cell or with an index outside ``0 .. instances_per_cell - 1``.
    Of several records for one index the last one wins, so a call re-issued
    on resume replaces the error it was re-issued for.  A missing file holds
    no record.  ``load_records`` reads each cell file here.
    """
    records: dict[int, CheckedRecord] = {}
    if not path.exists():
        return records
    label = path.stem
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data, end = _DECODER.raw_decode(line)
                if end < len(line):
                    raise ValueError("extra data after the JSON value")
                checked = check_record(data)
            except (ValueError, KeyError, MalformedInstance):
                continue
            if checked.cell.label == label and 0 <= checked.index < instances_per_cell:
                records[checked.index] = checked
    return records


def load_records(run_dir: str | Path) -> Iterator[CheckedRecord]:
    """The checked records of a run that belong in its spec's cell files, one cell after another.

    This is the one reader of a run's records: a resume, a report, a replay
    and a comparison all read them here.  Each cell of the spec
    (``load_spec``) has its file read by ``scan_cell_file`` in the spec's
    cell order, and the records of one file share one ``CellKey``; a file
    the spec names no cell of is read by nothing.  The generator lets go of
    each record as it hands it out, so it holds at most one cell's records;
    a caller that keeps none holds no more.
    """
    run_dir = Path(run_dir)
    spec = load_spec(run_dir)
    for cell in spec.cells():
        records = scan_cell_file(cell_file(run_dir, cell), spec.instances_per_cell)
        for index in list(records):
            yield records.pop(index)


def _ends_in_torn_line(path: Path) -> bool:
    """Whether the file at ``path`` holds bytes after its last newline; only its last byte is read.

    A missing or empty file holds no torn line.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return False
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if not size:
            return False
        fh.seek(size - 1)
        return fh.read(1) != b"\n"


@contextmanager
def record_appender(run_dir: Path) -> Iterator[Callable[[CellKey, int, str, str], None]]:
    """A function ``save(cell, index, shared_json, tail)`` that appends one record to its cell file.

    ``tail`` is ``record_tail``'s text.  Each cell file is opened for binary
    append on its first record, and a torn final line that a crash left in
    it is ended first, so appended records stay parseable.  Each record's
    line is written as UTF-8 bytes and flushed as it is written.  Every
    handle is closed on leaving the block.
    """
    # by cell label: the cell file's append handle and the encoded cell fields
    files: dict[str, tuple] = {}

    def save(cell: CellKey, index: int, shared_json: str, tail: str) -> None:
        entry = files.get(cell.label)
        if entry is None:
            path = cell_file(run_dir, cell)
            torn = _ends_in_torn_line(path)
            handle = open(path, "ab")
            if torn:
                handle.write(b"\n")
            entry = files[cell.label] = (handle, _ENCODER.encode(cell.to_json()))
        handle, cell_json = entry
        # a lone surrogate, which a transcript decoded from a JSON escape such
        # as "\ud83d" holds, has no UTF-8 form: it is written as that escape
        # again, which decodes back to the same string
        handle.write(_record_line(cell_json, index, shared_json, tail).encode("utf-8", "backslashreplace"))
        # a killed run keeps every record saved so far
        handle.flush()

    try:
        yield save
    finally:
        for handle, _ in files.values():
            handle.close()


def write_table(run_dir: Path, table) -> None:
    """Save an accuracy table as the run's ``table.json`` and ``table.txt``."""
    (run_dir / "table.json").write_text(
        json.dumps(table.to_json(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    (run_dir / "table.txt").write_text(table.format_text(), encoding="utf-8")
