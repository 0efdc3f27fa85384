"""cotbench: supervised vs unsupervised chain-of-thought evaluation harness.

Generates formal-language task instances with exact oracles, renders the
four prompt variants per task, queries a completion backend, extracts and
scores the concluding answers, and aggregates accuracy grids.
"""

from cotbench.backends import (
    CallContext,
    Completion,
    CorruptingBackend,
    LiveBackend,
    ModelBackend,
    OracleEchoBackend,
    ReplayBackend,
    make_backend,
)
from cotbench.complexity import (
    AnswerSpaceCensus,
    CandidateModel,
    PromptSpaceParams,
    answer_space_census,
    density_report,
    template_count,
)
from cotbench.extraction import (
    ExtractedAnswer,
    ExtractionFailure,
    Verdict,
    extract_result,
    format_result,
    score,
)
from cotbench.prompts import (
    PromptTemplate,
    RenderedPrompt,
    SupervisionKind,
    get_template,
    render_prompt,
)
from cotbench.rundir import CellKey, CompletionConfig, ExperimentSpec
from cotbench.runner import AccuracyTable, aggregate, compare_runs, run_experiment, wilson_interval
from cotbench.tasks import (
    DEFAULT_LENGTHS,
    AnswerKind,
    InputRendering,
    TaskId,
    TaskInstance,
    brute_force_oracle,
    generate_instance,
    make_instance,
    oracle_solve,
    render_input,
)

__all__ = [
    "AccuracyTable",
    "AnswerKind",
    "AnswerSpaceCensus",
    "CallContext",
    "CandidateModel",
    "CellKey",
    "Completion",
    "CompletionConfig",
    "CorruptingBackend",
    "DEFAULT_LENGTHS",
    "ExperimentSpec",
    "ExtractedAnswer",
    "ExtractionFailure",
    "InputRendering",
    "LiveBackend",
    "ModelBackend",
    "OracleEchoBackend",
    "PromptSpaceParams",
    "PromptTemplate",
    "RenderedPrompt",
    "ReplayBackend",
    "SupervisionKind",
    "TaskId",
    "TaskInstance",
    "Verdict",
    "aggregate",
    "answer_space_census",
    "brute_force_oracle",
    "compare_runs",
    "density_report",
    "extract_result",
    "format_result",
    "generate_instance",
    "get_template",
    "make_backend",
    "make_instance",
    "oracle_solve",
    "render_input",
    "render_prompt",
    "run_experiment",
    "score",
    "template_count",
    "wilson_interval",
]

__version__ = "0.1.0"
