"""One workload process: ``python -m repro <args>`` plus set-up marks.

Usage::

    python perfbench/child.py --marks MARKS.json [--layers LAYERS.json] -- <repro args>

The CLI runs as ``__main__`` through :mod:`runpy`, exactly as under
``python -m repro``, so spawn-started campaign workers import what they
would import there.  Before the CLI starts, this script wraps the one
call that ends set-up (the engine's first ``advance`` or
``Campaign.run``) with a first-call marker that removes itself.  On exit
it writes to ``MARKS.json``:

* ``started`` and ``finished``: ``time.monotonic()`` when this script
  began and when the CLI returned (interpreter start-up and teardown
  are the parent's launch and exit times measured against them);
* ``import_s``: seconds to import ``repro.cli``;
* ``setup_mark``: ``time.monotonic()`` at the end of set-up (Linux
  ``CLOCK_MONOTONIC``, comparable with the parent's clock);
* ``children_maxrss_kb``: peak RSS of the largest child the process
  waited for (the campaign's pool workers);
* ``numpy``: the numpy version the program imported.

With ``--layers`` the per-layer spans of :mod:`layers` are installed as
well and their metrics are written to ``LAYERS.json``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def _mark_first_call(owner: type, attr: str, marks: dict) -> None:
    original = getattr(owner, attr)

    def first_call(*args, **kwargs):
        if marks["setup_mark"] is None:
            marks["setup_mark"] = time.monotonic()
        setattr(owner, attr, original)
        return original(*args, **kwargs)

    setattr(owner, attr, first_call)


def main(argv: list[str]) -> None:
    sep = argv.index("--")
    opts, program = argv[:sep], argv[sep + 1:]
    marks_path = opts[opts.index("--marks") + 1]
    layers_path = opts[opts.index("--layers") + 1] if "--layers" in opts else None
    marks: dict = {"started": STARTED, "setup_mark": None}

    began = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: the import layer)

    marks["import_s"] = time.perf_counter() - began
    if not Path(sys.modules["repro"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from outside {SRC}")

    from repro.experiments.engine import ClusterEngine
    from repro.parallel.campaign import Campaign

    tracer = None
    if layers_path is not None:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    _mark_first_call(ClusterEngine, "advance", marks)
    _mark_first_call(Campaign, "run", marks)

    sys.argv = ["repro", *program]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        marks["finished"] = time.monotonic()
        # The atexit hook would join the campaign's workers only after this
        # block; join them now so their peak RSS reaches RUSAGE_CHILDREN.
        pool = sys.modules.get("repro.parallel.pool")
        if pool is not None:
            pool.shutdown_pool()
        marks["children_maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        numpy = sys.modules.get("numpy")
        marks["numpy"] = getattr(numpy, "__version__", None)
        Path(marks_path).write_text(json.dumps(marks), encoding="utf-8")
        if tracer is not None:
            Path(layers_path).write_text(
                json.dumps(tracer.report()), encoding="utf-8"
            )


if __name__ == "__main__":
    main(sys.argv[1:])
