"""Registry and renderer for the 36 prompt templates (9 tasks x 4 kinds).

Template bodies live as plain-text data files next to this module, one per
(task, kind) pair, with a manifest recording each file's provenance label
and content hash.  Bodies are frozen verbatim apart from two fixed
normalizations: typographic quotes become straight ASCII quotes, and
paragraph breaks are single blank lines.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path

from cotbench.tasks import (
    InputRendering,
    TaskId,
    TaskInstance,
    parse_enum,
    render_input,
)

TEMPLATE_DIR = Path(__file__).parent / "templates"

PLACEHOLDER_RE = re.compile(r"\{\{(list|letter|string)\}\}")


class PromptError(Exception):
    pass


class TaskMismatch(PromptError):
    """Template and instance belong to different tasks."""


class SupervisionKind(Enum):
    """The four prompting strategies applied to every task."""

    BASE = "base"
    UNSUPERVISED_COT = "cot"
    SUPERVISED_COT = "scot"
    SUBOPTIMAL_SUPERVISED_COT = "scot-sub"

    @classmethod
    def parse(cls, text: str) -> "SupervisionKind":
        return parse_enum(cls, text, "supervision kind")

    @property
    def display(self) -> str:
        return {
            SupervisionKind.BASE: "Base",
            SupervisionKind.UNSUPERVISED_COT: "CoT",
            SupervisionKind.SUPERVISED_COT: "S-CoT",
            SupervisionKind.SUBOPTIMAL_SUPERVISED_COT: "S-CoT-SUB",
        }[self]


@dataclass(frozen=True)
class PromptTemplate:
    task: TaskId
    kind: SupervisionKind
    body: str
    # The body split once at its placeholders: literal text at the even
    # positions, placeholder names at the odd ones.
    parts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(PLACEHOLDER_RE.split(self.body)))


def prompt_sha256(text: str) -> str:
    """The hex sha256 of a prompt's UTF-8 text, under which a record stores the call and a replay finds it."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RenderedPrompt:
    text: str

    @property
    def sha256(self) -> str:
        return prompt_sha256(self.text)


def _checked_body(name: str, entry: dict | None) -> str | None:
    """The body of template file ``name`` if the file exists and its hash is its manifest ``entry``'s; None if not."""
    try:
        body = (TEMPLATE_DIR / name).read_text(encoding="utf-8").rstrip("\n")
    except FileNotFoundError:
        return None
    return body if entry is not None and prompt_sha256(body) == entry["sha256"] else None


@lru_cache(maxsize=1)
def load_manifest() -> dict:
    with open(TEMPLATE_DIR / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def _registry() -> dict[tuple[TaskId, SupervisionKind], PromptTemplate]:
    """The 36 templates, loaded once per process, each body read once and checked against the manifest.

    A template whose file is missing, whose hash drifted from its manifest
    entry, or that has no entry, is refused.
    """
    manifest = load_manifest()
    registry = {}
    refused = []
    for task in TaskId:
        for kind in SupervisionKind:
            name = f"{task.value}.{kind.value}.prompt"
            body = _checked_body(name, manifest.get(name))
            if body is None:
                refused.append(name)
            else:
                registry[(task, kind)] = PromptTemplate(task, kind, body)
    if refused:
        raise PromptError(f"template files missing, drifted from the manifest or not in it: {', '.join(refused)}")
    return registry


def verify_manifest() -> list[str]:
    """Return the manifest's template files that are missing or whose content hash drifted."""
    manifest = load_manifest()
    return [name for name, entry in manifest.items() if _checked_body(name, entry) is None]


def get_template(task: TaskId, kind: SupervisionKind) -> PromptTemplate:
    """Look up the unique template for a (task, kind) pair; total over the grid."""
    return _registry()[(task, kind)]


def all_templates() -> list[PromptTemplate]:
    return list(_registry().values())


def render_prompt(
    template: PromptTemplate,
    instance: TaskInstance,
    rendering: InputRendering = InputRendering.LIST_FIED,
) -> RenderedPrompt:
    """Substitute the instance into the template's placeholders.

    The '{{string}}' placeholder always takes the compact rendering; the
    rendering argument selects how '{{list}}' is laid out.  The input text
    is built once per instance, so the kinds that share one reuse it.
    """
    if instance.task is not template.task:
        raise TaskMismatch(
            f"template is for {template.task.value}, instance is for {instance.task.value}"
        )
    pieces = list(template.parts)
    for i in range(1, len(pieces), 2):
        name = pieces[i]
        if name == "list":
            pieces[i] = render_input(instance, rendering)
        elif name == "string":
            pieces[i] = render_input(instance, InputRendering.COMPACT_STRING)
        else:
            pieces[i] = str(instance.params["letter"])
    return RenderedPrompt("".join(pieces))

