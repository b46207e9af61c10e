"""Unit tests for tools/check_doc_links.py — in particular the
``repro <subcommand>`` verification added with the replay PR: docs must
not advertise CLI commands that ``repro.cli.build_parser()`` does not
register, and the scan must only look inside code spans and fenced
blocks (prose mentioning "repro reproduces X" is not a CLI example) —
the job-runner call check on fenced python blocks, and the check that
every ``repro`` name those blocks import exists.
"""

import importlib.util
import pathlib

_TOOL = (pathlib.Path(__file__).resolve().parents[2]
         / "tools" / "check_doc_links.py")
_spec = importlib.util.spec_from_file_location("check_doc_links", _TOOL)
check_doc_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_links)

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_known_subcommands_match_cli():
    known = check_doc_links.known_subcommands(_ROOT)
    for name in ("run", "explain", "replay", "top", "bench", "list",
                 "serve", "submit", "jobs"):
        assert name in known


def _check(tmp_path, text, known=frozenset({"run", "replay"})):
    md = tmp_path / "doc.md"
    md.write_text(text)
    return check_doc_links.check_subcommands(md, set(known))


def test_fenced_block_subcommands_checked(tmp_path):
    errors = _check(tmp_path, "```bash\nrepro run --blocks 4\n"
                              "repro replai x.jsonl\n```\n")
    assert len(errors) == 1
    assert "replai" in errors[0] and ":3:" in errors[0]


def test_inline_code_spans_checked(tmp_path):
    assert _check(tmp_path, "Use `repro run` here.\n") == []
    errors = _check(tmp_path, "Use `repro explian` here.\n")
    assert len(errors) == 1 and "explian" in errors[0]


def test_prose_outside_code_is_ignored(tmp_path):
    # not a CLI example: no backticks, no fence
    assert _check(tmp_path, "The repro project reproduces a paper.\n") == []


def test_python_m_and_module_spellings(tmp_path):
    text = ("```bash\npython -m repro run --blocks 4\n"
            "python -m repro.cli replay x.jsonl\n```\n")
    assert _check(tmp_path, text) == []
    errors = _check(tmp_path, "```bash\npython -m repro.cli frobnicate\n```\n")
    assert len(errors) == 1


def test_python_imports_in_code_not_flagged(tmp_path):
    text = ("```python\nfrom repro import RunConfig\n"
            "from repro import run_huffman\nimport repro\n```\n")
    assert _check(tmp_path, text) == []


def _check_python(tmp_path, text):
    md = tmp_path / "doc.md"
    md.write_text(text)
    return check_doc_links.check_python_blocks(md)


def test_python_block_runner_bare_keywords_flagged(tmp_path):
    text = ("Intro.\n\n```python\nfrom repro import run_huffman\n\n"
            "r = run_huffman(workload=\"txt\", n_blocks=8)\n"
            "s = jobs.run_job(cfg, seed=1)\n```\n")
    errors = _check_python(tmp_path, text)
    assert len(errors) == 2
    assert ":6:" in errors[0] and "workload=, n_blocks=" in errors[0]
    assert ":7:" in errors[1] and "run_job() takes no seed=" in errors[1]


def test_python_block_runner_keywords_allowed(tmp_path):
    text = ("```python\nreport = run_kmeans_experiment(\n"
            "    config=RunConfig.for_app(\"kmeans\", n_blocks=8),\n"
            "    metrics=reg, decisions=None, resources=res)\n"
            "run_filter_experiment(cfg, **extra)\n"
            "RunConfig(workload=\"txt\", n_blocks=8)\n```\n")
    assert _check_python(tmp_path, text) == []


def test_python_block_check_skips_spans_and_other_languages(tmp_path):
    text = ("Old spelling: `run_huffman(workload=\"txt\")`.\n\n"
            "```bash\nrun_huffman(workload=txt)\n```\n")
    assert _check_python(tmp_path, text) == []


def test_unparseable_python_block_flagged_only_if_it_calls_a_runner(tmp_path):
    assert _check_python(tmp_path, "```python\nemit(a=1, ...)\n```\n") == []
    errors = _check_python(
        tmp_path, "```python\nrun_job(cfg, a=1, ...)\n```\n")
    assert len(errors) == 1 and "does not parse" in errors[0]


def test_python_block_imports_of_missing_names_flagged(tmp_path):
    text = ("```python\nfrom repro import RunConfig\n"
            "from repro.core.spec import SpecBuilder, SpeculationSpec\n"
            "from repro.metrics.report import render_table\n"
            "from repro.obs import events\n```\n")
    errors = _check_python(tmp_path, text)
    assert len(errors) == 2
    assert ":3:" in errors[0] and "SpecBuilder" in errors[0]
    assert ":4:" in errors[1] and "cannot import repro.metrics" in errors[1]


def test_repo_docs_are_currently_clean():
    known = check_doc_links.known_subcommands(_ROOT)
    errors = []
    for md in check_doc_links.iter_markdown(_ROOT):
        errors.extend(check_doc_links.check_markdown(md, known))
    assert errors == []


def _check_markdown(tmp_path, name, text):
    md = tmp_path / name
    md.write_text(text)
    return check_doc_links.check_markdown(
        md, {"run": {"--blocks"}, "replay": set()})


def test_changes_md_may_name_removed_subcommands(tmp_path):
    # the PR log keeps history: a subcommand a later change removed, or a
    # flag it dropped, is not an error there
    text = "Added `repro stats --json` and `repro run --gantt`.\n"
    assert _check_markdown(tmp_path, "CHANGES.md", text) == []


def test_listed_history_files_may_name_removed_flags(tmp_path):
    # every file in tools/doc_history_files.txt is exempt from the CLI
    # check, e.g. one naming what a change retires: `repro run --gantt`
    text = "Drop `repro stats --json`; keep `repro run --gantt`.\n"
    assert "CHANGES.md" in check_doc_links._HISTORY_FILES
    for name in check_doc_links._HISTORY_FILES:
        assert _check_markdown(tmp_path, name, text) == []


def test_other_markdown_still_checks_subcommands(tmp_path):
    errors = _check_markdown(tmp_path, "README.md",
                             "Use `repro stats --json` here.\n")
    assert len(errors) == 1 and "unknown `repro stats`" in errors[0]
    errors = _check_markdown(tmp_path, "notes.md",
                             "```bash\nrepro run --gantt\n```\n")
    assert len(errors) == 1 and "has no --gantt option" in errors[0]


def test_changes_md_links_still_checked(tmp_path):
    errors = _check_markdown(tmp_path, "CHANGES.md",
                             "See [the design](docs/missing.md).\n")
    assert len(errors) == 1 and "broken link -> docs/missing.md" in errors[0]
