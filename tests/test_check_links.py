"""The Markdown link checker (``scripts/check_links.py``) checks anchors."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_links.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def docs(tmp_path):
    (tmp_path / "other.md").write_text(
        "# Other\n\n"
        "## Failure taxonomy & retry policy\n\n"
        "## `repro serve --smoke`: the gate (v2.0)\n\n"
        "```bash\n# not-a-heading\n```\n"
    )
    return tmp_path


def _check(checker, docs, body):
    page = docs / "page.md"
    page.write_text("# Page\n\n" + body + "\n")
    return checker.check_links([page])


def test_dangling_anchor_in_other_file_is_reported(checker, docs):
    checked, broken = _check(checker, docs, "See [gone](other.md#gone).")
    assert checked == 1
    assert len(broken) == 1 and "broken anchor -> other.md#gone" in broken[0]


def test_dangling_bare_anchor_is_reported(checker, docs):
    _, broken = _check(checker, docs, "See [gone](#gone).")
    assert len(broken) == 1 and "broken anchor -> #gone" in broken[0]


def test_headings_with_punctuation_resolve(checker, docs):
    _, broken = _check(
        checker,
        docs,
        "[a](other.md#failure-taxonomy--retry-policy) "
        "[b](other.md#repro-serve---smoke-the-gate-v20) [c](#page)",
    )
    assert broken == []


def test_fenced_code_lines_are_not_headings(checker, docs):
    _, broken = _check(checker, docs, "[x](other.md#not-a-heading)")
    assert len(broken) == 1


def test_missing_file_is_still_reported(checker, docs):
    _, broken = _check(checker, docs, "[x](missing.md#other)")
    assert len(broken) == 1 and "broken link -> missing.md#other" in broken[0]
