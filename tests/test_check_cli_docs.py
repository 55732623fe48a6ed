"""The CLI-docs checker (``scripts/check_cli_docs.py``) catches stale values."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_cli_docs.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_cli_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_documented_option_values_must_be_choices(checker, tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```bash\n"
        "python -m repro exp --fig 8 --backend remote --workers 4\n"
        "python -m repro exp --fig 8 --backend carrier-pigeon\n"
        "python -m repro faults --backend serial|process --jobs 2\n"
        "python -m repro faults --backend <name>\n"
        "```\n"
    )
    checked, problems = checker.check_file(doc, checker.build_command_table())
    assert checked == 12  # 4 invocations + 8 options
    assert len(problems) == 1, problems
    assert "doc.md:3:" in problems[0]
    assert "'repro exp --backend' has no value 'carrier-pigeon'" in problems[0]


def test_alternation_checks_every_alternative(checker, tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("Run `repro profile compress --core event|columnar`.\n")
    _, problems = checker.check_file(doc, checker.build_command_table())
    assert len(problems) == 1, problems
    assert "'columnar'" in problems[0]
