"""Documentation consistency checks: the docs must not rot."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_readme_quickstart_runs():
    readme = _read("README.md")
    match = re.search(r"```python\n(.*?)```", readme, re.S)
    assert match, "README has no python quickstart block"
    namespace = {}
    code = match.group(1).replace("print(", "_ = (")
    exec(compile(code, "README.md", "exec"), namespace)  # noqa: S102
    assert namespace["result"].dynamic_comm_count > 0


def test_language_doc_zl_snippets_lex():
    from repro.frontend.lexer import tokenize

    doc = _read("docs/LANGUAGE.md")
    for block in re.findall(r"```\n(.*?)```", doc, re.S):
        if "..." in block.replace("..", "", 0) and " ... " in block:
            continue  # prose ellipsis, not ZL
        if ":=" in block or "region" in block:
            tokenize(block)  # must not raise


def test_design_md_module_references_exist():
    import importlib

    design = _read("DESIGN.md")
    for name in set(re.findall(r"`(repro(?:\.\w+)+)`", design)):
        modpath = name
        try:
            importlib.import_module(modpath)
            continue
        except ImportError:
            pass
        # might be module.attr
        mod, _, attr = modpath.rpartition(".")
        module = importlib.import_module(mod)
        assert hasattr(module, attr), f"DESIGN.md references missing {name}"


def test_experiments_md_covers_every_figure_and_table():
    text = _read("EXPERIMENTS.md")
    for item in (
        "Figure 3",
        "Figure 5",
        "Figure 6",
        "Figure 7",
        "Figure 8",
        "Figures 10",
        "Figure 11",
        "Figure 12",
        "Tables 1",
    ):
        assert item in text, f"EXPERIMENTS.md missing {item}"


def test_benchmarks_exist_for_every_listed_target():
    design = _read("DESIGN.md")
    targets = re.findall(r"`((?:benchmarks/bench|tests/paper/test)_\w+\.py)(?:::(\w+))?`", design)
    assert targets
    for path, test in targets:
        assert (ROOT / path).exists(), path
        assert not test or f"def {test}(" in (ROOT / path).read_text(), (path, test)


def test_examples_listed_in_readme_exist():
    readme = _read("README.md")
    for example in re.findall(r"examples/(\w+\.py)", readme):
        assert (ROOT / "examples" / example).exists(), example
