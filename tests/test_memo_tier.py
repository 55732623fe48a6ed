"""One memo tier: the artifact cache's memory front is the only memo.

The experiment pipeline derives each trace, pair set, priming sequence,
baseline and figure point once per process and reads it many times.
Every read goes through the active :class:`~repro.cache.ArtifactCache`
(the memory-only default when none is installed).  These tests pin
that no second in-process tier comes back, and that the one tier still
shares the work the drivers and the fault campaign repeat.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import figures, framework
from repro.faults.campaign import CampaignSpec, run_campaign
from repro.workloads import suite

#: Packages whose modules may keep no memo of their own.
GUARDED = ("experiments", "workloads")

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Method calls that fill or empty a module-level container.
MUTATORS = {"clear", "setdefault", "update", "pop"}


def _decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def _local_names(function):
    """Names a function binds itself (so they shadow module names)."""
    bound = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    declared_global = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return bound - declared_global


def second_tiers(path):
    """``module:name`` of every memo ``path`` keeps outside the cache.

    A memo is a function decorated with ``functools.lru_cache`` or
    ``functools.cache``, or a module-level name that a function
    subscript-assigns or calls one of :data:`MUTATORS` on.  A name bound
    to an ``ArtifactCache`` is the tier itself, not a second one.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and not (
            isinstance(node.value, ast.Call)
            and _decorator_name(node.value) == "ArtifactCache"
        )
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if isinstance(target, ast.Name)
    }
    found = set()
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for function in functions:
        if any(
            _decorator_name(d) in ("lru_cache", "cache")
            for d in function.decorator_list
        ):
            found.add(function.name)
        shared = module_names - _local_names(function)
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in shared
                    ):
                        found.add(target.value.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in shared
            ):
                found.add(node.func.value.id)
    return {f"{path.stem}:{name}" for name in found}


class TestOneTier:
    def test_no_module_memo_outside_the_cache(self):
        paths = sorted(
            path for package in GUARDED for path in (SRC / package).glob("*.py")
        )
        assert paths
        assert set().union(*(second_tiers(path) for path in paths)) == set()

    def test_the_guard_sees_each_kind_of_memo(self, tmp_path):
        source = tmp_path / "memos.py"
        source.write_text(
            "import functools\n"
            "_runs = {}\n"
            "_seen: dict = {}\n"
            "_order = []\n"
            "@functools.lru_cache(maxsize=8)\n"
            "def cached(x):\n"
            "    return x\n"
            "@functools.cache\n"
            "def forever(x):\n"
            "    return x\n"
            "def record(key, value):\n"
            "    _runs[key] = value\n"
            "    _seen.setdefault(key, value)\n"
            "def reset():\n"
            "    _order.clear()\n"
            "def local_only(_runs):\n"
            "    _runs[1] = 2\n"
            "_tier = ArtifactCache(None)\n"
            "def forget():\n"
            "    _tier.clear()\n"
        )
        assert second_tiers(source) == {
            "memos:cached", "memos:forever", "memos:_runs", "memos:_seen",
            "memos:_order",
        }


def _count_calls(monkeypatch, targets):
    """Count calls through ``{label: [(module, attr), ...]}``."""
    counts = Counter({label: 0 for label in targets})
    for label, attrs in targets.items():
        for module, attr in attrs:
            real = getattr(module, attr)

            def counted(*args, _label=label, _real=real, **kwargs):
                counts[_label] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.fixture
def work(monkeypatch):
    """Counts of workload executions, pair selections and simulations."""
    framework.clear_memos()
    yield _count_calls(monkeypatch, {
        "executions": [(suite, "run_program")],
        "selections": [
            (framework, "select_profile_pairs"),
            (framework, "heuristic_pairs"),
        ],
        "simulations": [(framework, "simulate")],
    })
    framework.clear_memos()


class TestWorkCounts:
    """The one tier shares the work the drivers and campaigns repeat."""

    def test_every_driver_in_one_process(self, work):
        for driver in figures.ALL_FIGURES.values():
            driver(0.05)
        # 232 configurations plus 40 baselines (32 train, 8 ref); train
        # and ref traces of the 8 workloads; 7 pair-selection policies
        # on train plus the profile policy on ref, per workload.
        assert work == {"simulations": 272, "executions": 16, "selections": 64}

    def test_campaign_without_a_cache_dir(self, work):
        result = run_campaign(CampaignSpec.smoke(), jobs=1)
        assert result.ok, result.failures()
        # The reference pass and the sweep share one trace and one pair
        # set per workload.
        assert work["executions"] == 8 and work["selections"] == 8
