"""perfbench's traced run (`perfbench/run.py --trace 1`) wraps program
functions by module attribute name. Installing and removing those wrappers
here makes a rename in `src/` fail a test instead of the traced benchmark."""

from pathlib import Path

import pytest

import synthsel.bandit as bandit
import synthsel.budget as budget
import synthsel.orchestrator as orchestrator
from synthsel.verify import Verifier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("deployer", [
    orchestrator.MatrixDeployer({}),
    orchestrator.SolverDeployer(Verifier()),
], ids=["matrix", "solver"])
def test_traced_benchmark_hooks_install_and_restore(deployer, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    originals = (orchestrator.build_schedule, budget.nearest_records,
                 bandit.BanditStore.__dict__["load"], type(deployer).deploy)
    tracer = Tracer()
    try:
        layers.install(tracer, deployer)
        assert orchestrator.build_schedule is not originals[0]
    finally:
        tracer.restore()
    assert (orchestrator.build_schedule, budget.nearest_records,
            bandit.BanditStore.__dict__["load"], type(deployer).deploy) == originals
