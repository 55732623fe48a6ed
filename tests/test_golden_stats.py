"""Golden-stats regression gate for the simulator.

Committed JSON fixtures pin the *complete* ``SimulationStats`` of two
representative workloads across both pair schemes and three value
predictors, under both simulator cores.  Any change to simulator
semantics — intended or not — shows up as a diff here before it can
silently shift the reproduced figures.  After a deliberate semantic
change, regenerate (from the legacy reference core) with::

    pytest tests/test_golden_stats.py --regen-goldens

and review the fixture diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.cmt import ProcessorConfig, simulate
from repro.spawning import (
    HeuristicConfig,
    ProfilePolicyConfig,
    heuristic_pairs,
    select_profile_pairs,
)
from repro.workloads import load_trace

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_SCALE = 0.2
WORKLOADS = ("compress", "li")
POLICIES = ("profile", "heuristics")
PREDICTORS = ("perfect", "stride", "fcm")
#: Every simulator core is held to the same fixtures; the legacy
#: reference core is the one ``--regen-goldens`` writes them from.
SIM_CORES = ("legacy", "event")
REFERENCE_CORE = "legacy"

#: Matches the experiment framework's profile-policy parameters.
POLICY_CONFIG = ProfilePolicyConfig(coverage=0.99, max_distance=4096)


def _point(trace, policy: str, predictor: str, sim_core: str) -> dict:
    if policy == "heuristics":
        pairs = heuristic_pairs(trace, HeuristicConfig())
    else:
        pairs = select_profile_pairs(trace, POLICY_CONFIG)
    config = ProcessorConfig(value_predictor=predictor, sim_core=sim_core)
    stats = simulate(trace, pairs, config)
    # JSON round-trip normalises tuples to lists so the comparison with
    # the loaded fixture is structural, not type-sensitive.
    return json.loads(json.dumps(stats.to_dict()))


def _golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"stats_{workload}.json"


def _compute(workload: str, sim_core: str) -> dict:
    trace = load_trace(workload, GOLDEN_SCALE)
    return {
        f"{policy}/{predictor}": _point(trace, policy, predictor, sim_core)
        for policy in POLICIES
        for predictor in PREDICTORS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("sim_core", SIM_CORES)
def test_stats_match_goldens(request, sim_core, workload):
    """Both cores reproduce the committed fixtures bit for bit."""
    path = _golden_path(workload)
    regen = request.config.getoption("--regen-goldens")
    if regen and sim_core != REFERENCE_CORE:
        pytest.skip(f"fixtures are regenerated from the {REFERENCE_CORE} core")
    current = _compute(workload, sim_core)
    if regen:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden fixture {path}; create it with "
        "pytest tests/test_golden_stats.py --regen-goldens"
    )
    golden = json.loads(path.read_text())
    assert sorted(current) == sorted(golden)
    for key in sorted(current):
        assert current[key] == golden[key], (
            f"{workload} {key}: {sim_core}-core stats diverged from the "
            "golden fixture (regenerate with --regen-goldens only if the "
            "semantic change is intentional)"
        )
