"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402


class _Nested:
    def outer(self, n: int) -> int:
        return sum(self.inner(i) for i in range(n))

    def inner(self, i: int) -> int:
        return sum(range(1000 * i))


def test_self_times_partition_the_outer_span():
    tracer = layers.Tracer()
    tracer.wrap(_Nested, "outer", "outer")
    tracer.wrap(_Nested, "inner", "inner")
    assert _Nested().outer(20) == sum(sum(range(1000 * i)) for i in range(20))
    calls, total, own = tracer.stats["outer"]
    inner_calls, inner_total, inner_own = tracer.stats["inner"]
    assert (calls, inner_calls) == (1, 20)
    assert inner_own == inner_total
    assert abs(own + inner_own - total) < 1e-9


def _program(unwrapped_s: float) -> type:
    """A stand-in for ``repro.cli``: ``main`` is wrapped as the catch-all."""

    class Program:
        def main(self) -> None:
            self.layer()
            time.sleep(unwrapped_s)  # work no layer span covers

        def layer(self) -> None:
            time.sleep(0.05)

    return Program


@pytest.mark.parametrize("unwrapped_s, coherent", [(0.0, True), (0.05, False)])
def test_coherence_fails_when_time_escapes_the_named_layers(unwrapped_s, coherent):
    program = _program(unwrapped_s)
    tracer = layers.Tracer()
    tracer.wrap(program, "main", layers.CATCH_ALL)
    tracer.wrap(program, "layer", "layer")
    began = time.monotonic()
    program().main()
    ended = time.monotonic()
    rep = run.Rep("t", began, ended - began, 0, 0.0,
                  marks={"started": began, "finished": ended, "import_s": 0.0})
    _, _, gap = run.coherence(rep, tracer.named_self_s())
    assert (abs(gap) <= run.COHERENCE_TOLERANCE * rep.wall_s) == coherent
    assert tracer.stats[layers.CATCH_ALL][2] == pytest.approx(gap, abs=1e-3)


def test_import_self_times_sum_by_package():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy.core\n"
        "import time:        50 |        150 |   numpy\n"
        "import time:        20 |         20 | networkx\n"
        "unrelated line\n"
    )
    totals = run.import_self_times(stderr)
    assert totals == pytest.approx({"numpy": 150e-6, "networkx": 20e-6})


def test_traced_cell_is_coherent_and_host_is_recorded(tmp_path):
    argv = ("run", "--model", "DAS2-fs0", "--hours", "6", "--seed", "13")
    deadline = time.monotonic() + 120
    rep = run.run_child(argv, tmp_path, "traced", deadline, traced=True)
    assert rep.problem is None, rep.problem
    report = run.json.loads((tmp_path / "traced.layers.json").read_text())
    startup, teardown, gap = run.coherence(rep, report["self_sum_s"])
    assert startup > 0 and teardown > 0
    assert abs(gap) <= run.COHERENCE_TOLERANCE * rep.wall_s
    metrics = report["metrics"]
    assert metrics["online_sim.evaluations"][0] > 0
    assert metrics["selection.calls"][0] == rep.export["portfolio_invocations"]
    host = run.host_info(rep.marks["numpy"])
    assert host["cpus"] >= 1 and host["python"] and host["numpy"] and host["platform"]


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hostile-kth-48h",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
