"""Template registry completeness, fidelity anchors, and rendering tests."""

from __future__ import annotations

import shutil

import pytest

from cotbench import prompts
from cotbench.prompts import (
    PLACEHOLDER_RE,
    PromptError,
    SupervisionKind,
    TaskMismatch,
    all_templates,
    get_template,
    load_manifest,
    render_prompt,
    verify_manifest,
)
from cotbench.tasks import (
    ANSWER_KINDS,
    AnswerKind,
    InputRendering,
    TaskId,
    generate_instance,
    make_instance,
)

# The placeholders every template of a task uses; the other tasks use {"list"}.
REQUIRED_PLACEHOLDERS = {
    TaskId.PARITY_CHECK: {"letter", "list"},
    TaskId.DUPLICATE_LIST: {"string"},
}


class TestRegistry:
    def test_grid_is_complete(self):
        templates = all_templates()
        assert len(templates) == 36
        seen = {(t.task, t.kind) for t in templates}
        assert len(seen) == 36
        for template in templates:
            assert template.body.strip()

    def test_placeholder_sets(self):
        for task in TaskId:
            for kind in SupervisionKind:
                template = get_template(task, kind)
                found = template.parts[1::2]
                assert set(found) == REQUIRED_PLACEHOLDERS.get(task, {"list"}), (task, kind)
                assert len(found) == len(set(found)), f"duplicate placeholder in {task} {kind}"

    def test_manifest_matches_files(self):
        assert verify_manifest() == []
        manifest = load_manifest()
        assert len(manifest) == 36
        for name, entry in manifest.items():
            assert entry["source"].endswith("-prompts")
            assert len(entry["sha256"]) == 64

    def test_drifted_template_is_refused(self, tmp_path, monkeypatch):
        copy = tmp_path / "templates"
        shutil.copytree(prompts.TEMPLATE_DIR, copy)
        edited = copy / "ep.scot.prompt"
        edited.write_text(edited.read_text(encoding="utf-8") + "One more step.\n", encoding="utf-8")
        monkeypatch.setattr(prompts, "TEMPLATE_DIR", copy)
        prompts.load_manifest.cache_clear()
        prompts._registry.cache_clear()
        try:
            with pytest.raises(PromptError, match="ep.scot.prompt"):
                get_template(TaskId.EVEN_PAIRS, SupervisionKind.BASE)
        finally:
            monkeypatch.undo()
            prompts.load_manifest.cache_clear()
            prompts._registry.cache_clear()
        assert len(all_templates()) == 36

    def test_known_anchor_lines(self):
        assert "Think step by step." in get_template(TaskId.PARITY_CHECK, SupervisionKind.UNSUPERVISED_COT).body
        assert "Initialize the 'count' to 0." in get_template(TaskId.EVEN_PAIRS, SupervisionKind.SUPERVISED_COT).body
        assert "{{string}}" in get_template(TaskId.DUPLICATE_LIST, SupervisionKind.BASE).body

    def test_base_vs_cot_single_insertion(self):
        # the think-step-by-step variant is the base text plus one inserted sentence
        for task in TaskId:
            base = get_template(task, SupervisionKind.BASE).body
            cot = get_template(task, SupervisionKind.UNSUPERVISED_COT).body
            assert len(cot) > len(base)
            prefix = 0
            while prefix < len(base) and base[prefix] == cot[prefix]:
                prefix += 1
            suffix = 0
            while suffix < len(base) - prefix and base[len(base) - 1 - suffix] == cot[len(cot) - 1 - suffix]:
                suffix += 1
            inserted = cot[prefix : len(cot) - suffix]
            assert base[:prefix] + base[prefix : len(base) - suffix] + base[len(base) - suffix :] == base
            assert base[:prefix] + inserted + base[prefix:] == cot, task
            assert "hink" in inserted and "tep" in inserted, (task, inserted)


class TestRendering:
    def test_even_pairs_listfied_final_line(self):
        template = get_template(TaskId.EVEN_PAIRS, SupervisionKind.BASE)
        inst = make_instance(TaskId.EVEN_PAIRS, ["a", "b", "b", "a"])
        prompt = render_prompt(template, inst, InputRendering.LIST_FIED)
        assert prompt.text.splitlines()[-1] == "List: ['a', 'b', 'b', 'a']"

    def test_parity_letter_substituted(self):
        template = get_template(TaskId.PARITY_CHECK, SupervisionKind.BASE)
        inst = make_instance(TaskId.PARITY_CHECK, ["a", "b"], {"letter": "a"})
        prompt = render_prompt(template, inst, InputRendering.LIST_FIED)
        assert "{{letter}}" not in prompt.text
        assert "letter 'a's" in prompt.text

    def test_duplicate_string_compact_regardless_of_rendering(self):
        template = get_template(TaskId.DUPLICATE_LIST, SupervisionKind.BASE)
        inst = make_instance(TaskId.DUPLICATE_LIST, ["a", "b"])
        for rendering in InputRendering:
            prompt = render_prompt(template, inst, rendering)
            assert prompt.text.splitlines()[-1] == "Input string: ab"

    @pytest.mark.parametrize("task", list(TaskId))
    @pytest.mark.parametrize("kind", list(SupervisionKind))
    def test_no_placeholders_survive(self, task, kind):
        length = 6 if task not in (TaskId.EQUAL_NUMBER, TaskId.PALINDROME_VERIFICATION) else 6
        inst = generate_instance(task, length, seed_path=f"prompts/{task.value}")
        prompt = render_prompt(get_template(task, kind), inst)
        assert "{{" not in prompt.text and "}}" not in prompt.text

    def test_rendering_idempotent(self):
        template = get_template(TaskId.REVERSE_LIST, SupervisionKind.SUPERVISED_COT)
        inst = generate_instance(TaskId.REVERSE_LIST, 6, seed_path="idem")
        once = render_prompt(template, inst)
        again = render_prompt(
            PromptTemplate_like(template, once.text), inst, InputRendering.LIST_FIED
        )
        assert again.text == once.text

    def test_task_mismatch_rejected(self):
        template = get_template(TaskId.REVERSE_LIST, SupervisionKind.BASE)
        inst = generate_instance(TaskId.ODDS_FIRST, 6, seed_path="mismatch")
        with pytest.raises(TaskMismatch):
            render_prompt(template, inst)

    def test_expected_answer_kind(self):
        assert ANSWER_KINDS[TaskId.PARITY_CHECK] is AnswerKind.BOOL
        assert ANSWER_KINDS[TaskId.EVEN_PAIRS] is AnswerKind.INT
        assert ANSWER_KINDS[TaskId.REVERSE_LIST] is AnswerKind.TEXT


def PromptTemplate_like(template, new_body):
    from cotbench.prompts import PromptTemplate

    return PromptTemplate(template.task, template.kind, new_body, template.source)


def reference_input(instance, rendering):
    """An instance's input text, built as the renderer built it before it was cached."""
    if rendering is InputRendering.COMPACT_STRING:
        return "".join(instance.elements)
    quoted = ", ".join(f"'{e}'" for e in instance.elements)
    return f"[{quoted}]"


def reference_render(template, instance, rendering):
    """A prompt's text by one regular-expression substitution over the template body."""
    values = {
        "list": reference_input(instance, rendering),
        "letter": str(instance.params.get("letter", "a")),
        "string": reference_input(instance, InputRendering.COMPACT_STRING),
    }
    return PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template.body)


def byte_test_instances(task):
    """Generated instances of three lengths, plus ones that set the task's parameters."""
    instances = [generate_instance(task, n, seed_path=f"bytes/{task.value}/{n}") for n in (2, 6, 14)]
    if task is TaskId.PARITY_CHECK:
        instances.append(make_instance(task, list("abba"), {"letter": "b"}))
    if task is TaskId.DUPLICATE_LIST:
        instances.append(make_instance(task, list("xyyx"), {"alphabet": "xy"}))
        instances.append(make_instance(task, list("éøøé"), {"alphabet": "éø"}))
    if task is TaskId.PALINDROME_VERIFICATION:
        instances.append(make_instance(task, list("ab#ba")))
    return instances


# Digests of known prompts, one per parameter a task can set.  Records and
# replay key transcripts by a prompt's sha256, so a rendering change that
# alters a prompt's bytes would orphan every earlier run.
# id -> (task, kind, rendering, instance, digest)
PINNED_PROMPTS = {
    "pv-marker": (
        TaskId.PALINDROME_VERIFICATION, SupervisionKind.SUPERVISED_COT, InputRendering.LIST_FIED,
        lambda: generate_instance(TaskId.PALINDROME_VERIFICATION, 14, seed_path="bytes/pv/14"),
        "3a4c15c28f0ee9b04cbc8220dd6e64e1a29351a9188c484dc50083f9a73da0e9",
    ),
    "pc-letter": (
        TaskId.PARITY_CHECK, SupervisionKind.BASE, InputRendering.COMPACT_STRING,
        lambda: make_instance(TaskId.PARITY_CHECK, list("abba"), {"letter": "b"}),
        "8c0b1422d9e34d718c7d3ef6e7c473cf9e034e037149fca6e31e23337c5fa5bf",
    ),
    "dl-alphabet": (
        TaskId.DUPLICATE_LIST, SupervisionKind.UNSUPERVISED_COT, InputRendering.LIST_FIED,
        lambda: make_instance(TaskId.DUPLICATE_LIST, list("éøøé"), {"alphabet": "éø"}),
        "09b7e5c5203bd004176e48b92cc2c906232244eea1300e48ac5e99e2272b83e1",
    ),
    "sl-generated": (
        TaskId.SORTING_LIST, SupervisionKind.SUBOPTIMAL_SUPERVISED_COT, InputRendering.LIST_FIED,
        lambda: generate_instance(TaskId.SORTING_LIST, 6, seed_path="bytes/sl/6"),
        "b311fbc9cbeb5f904340e3f1de2e55ea43efdfabc58186a1968fd7711f887b60",
    ),
}


class TestByteIdentical:
    """Rendering fills pre-split templates with cached input texts; the prompts stay the same bytes."""

    @pytest.mark.parametrize("task", list(TaskId))
    @pytest.mark.parametrize("kind", list(SupervisionKind))
    def test_render_matches_substitution(self, task, kind):
        template = get_template(task, kind)
        for instance in byte_test_instances(task):
            # both renderings of one instance, so each reads its own cached text
            for rendering in (*InputRendering, *reversed(InputRendering)):
                expected = reference_render(template, instance, rendering)
                assert render_prompt(template, instance, rendering).text == expected

    @pytest.mark.parametrize("case", sorted(PINNED_PROMPTS))
    def test_pinned_prompt_hashes(self, case):
        task, kind, rendering, make, digest = PINNED_PROMPTS[case]
        assert render_prompt(get_template(task, kind), make(), rendering).sha256 == digest
