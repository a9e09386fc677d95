"""Scientific workflows: DAG-structured jobs (the paper's future work).

The paper schedules independent rigid jobs and names workflow support as
its next step (§8: "we are adapting portfolio scheduling for the
execution of scientific workflows").  This module provides the workload
side: a :class:`Workflow` is a set of jobs plus precedence constraints;
the cluster engine (``ClusterEngine(dependencies=...)``) holds a task
back until its parents finish and measures waits from *eligibility*.

Generators produce the two canonical scientific-workflow shapes:

* :func:`fork_join_workflow` — a split/process/merge pipeline (the
  Montage/BoT-with-barriers family),
* :func:`random_layered_workflow` — random DAGs with layered precedence
  (the general case used in workflow-scheduling studies).

Bags-of-Tasks are the degenerate case with no edges —
:func:`bag_of_tasks` builds one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.sim.rng import make_rng
from repro.workload.job import Job

__all__ = [
    "Workflow",
    "topological_order",
    "bag_of_tasks",
    "fork_join_workflow",
    "random_layered_workflow",
    "merge_workflows",
    "workflow_makespan",
]


@dataclass(slots=True)
class Workflow:
    """A DAG of jobs.

    ``dependencies[job_id]`` lists the parent job ids that must finish
    before the job may start.  Validation checks ids, acyclicity, and
    that parents' submit times do not come after their children's
    (children become *eligible* when parents finish; their submit time is
    the earliest they could have been known to the system).
    """

    name: str
    jobs: list[Job]
    dependencies: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = {job.job_id for job in self.jobs}
        if len(ids) != len(self.jobs):
            raise ValueError(f"workflow {self.name}: duplicate job ids")
        for child, parents in self.dependencies.items():
            if child not in ids:
                raise ValueError(f"workflow {self.name}: unknown child {child}")
            for parent in parents:
                if parent not in ids:
                    raise ValueError(
                        f"workflow {self.name}: job {child} depends on "
                        f"unknown job {parent}"
                    )
        try:
            topological_order(self.dependencies)
        except ValueError as exc:
            raise ValueError(f"workflow {self.name}: {exc}") from None

    def graph(self) -> dict[int, list[int]]:
        """The precedence DAG as adjacency lists: job id → child job ids."""
        children: dict[int, list[int]] = {job.job_id: [] for job in self.jobs}
        for child, parents in self.dependencies.items():
            for parent in parents:
                children[parent].append(child)
        return children

    def roots(self) -> list[Job]:
        """Jobs with no parents (start immediately on submission)."""
        return [
            job
            for job in self.jobs
            if not self.dependencies.get(job.job_id)
        ]

    def critical_path_seconds(self) -> float:
        """Lower bound on makespan: the longest runtime chain."""
        runtime = {job.job_id: job.runtime for job in self.jobs}
        order = topological_order(
            self.dependencies, (job.job_id for job in self.jobs)
        )
        longest: dict[int, float] = {}
        for node in order:
            parents = self.dependencies.get(node, ())
            base = max((longest[p] for p in parents), default=0.0)
            longest[node] = base + runtime[node]
        return max(longest.values(), default=0.0)

    def total_work(self) -> float:
        return sum(job.procs * job.runtime for job in self.jobs)


def topological_order(
    dependencies: Mapping[int, Iterable[int]], nodes: Iterable[int] = ()
) -> list[int]:
    """Kahn's algorithm over ``child -> parents`` edges.

    Returns every node — *nodes*, the children and their parents —
    parents first.  Raises :class:`ValueError` naming one cycle's edges
    (``(parent, child)`` pairs) if the graph has any.
    """
    indegree: dict[int, int] = dict.fromkeys(nodes, 0)
    children: dict[int, list[int]] = {}
    for child, parents in dependencies.items():
        indegree.setdefault(child, 0)
        for parent in parents:
            indegree.setdefault(parent, 0)
            indegree[child] += 1
            children.setdefault(parent, []).append(child)
    frontier = [node for node, degree in indegree.items() if degree == 0]
    order: list[int] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in children.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
    if len(order) == len(indegree):
        return order
    # Every node left over still has a left-over parent: walking parent
    # links from any of them must revisit a node, closing a cycle.
    left = {node for node, degree in indegree.items() if degree > 0}
    node = next(node for node in indegree if node in left)
    path: list[int] = []
    seen: dict[int, int] = {}
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = next(parent for parent in dependencies[node] if parent in left)
    cycle = path[seen[node]:][::-1]  # parents first
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    raise ValueError(f"dependency cycle {edges}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def bag_of_tasks(
    name: str,
    submit_time: float,
    n_tasks: int,
    runtime_mean: float,
    seed: int = 0,
    procs: int = 1,
    first_id: int = 0,
) -> Workflow:
    """A bag of independent tasks submitted together (no edges)."""
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    rng = make_rng(seed, f"bot/{name}")
    runtimes = np.maximum(1.0, np.rint(rng.exponential(runtime_mean, size=n_tasks)))
    jobs = [
        Job(
            job_id=first_id + i,
            submit_time=submit_time,
            runtime=float(runtimes[i]),
            procs=procs,
        )
        for i in range(n_tasks)
    ]
    return Workflow(name=name, jobs=jobs)


def fork_join_workflow(
    name: str,
    submit_time: float,
    width: int,
    stage_runtime: float,
    seed: int = 0,
    first_id: int = 0,
) -> Workflow:
    """split → *width* parallel tasks → merge (three levels)."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    rng = make_rng(seed, f"forkjoin/{name}")
    split = Job(job_id=first_id, submit_time=submit_time,
                runtime=max(1.0, stage_runtime / 4), procs=1)
    middles = [
        Job(
            job_id=first_id + 1 + i,
            submit_time=submit_time,
            runtime=float(max(1.0, np.rint(rng.exponential(stage_runtime)))),
            procs=1,
        )
        for i in range(width)
    ]
    merge = Job(job_id=first_id + width + 1, submit_time=submit_time,
                runtime=max(1.0, stage_runtime / 4), procs=1)
    deps: dict[int, tuple[int, ...]] = {m.job_id: (split.job_id,) for m in middles}
    deps[merge.job_id] = tuple(m.job_id for m in middles)
    return Workflow(name=name, jobs=[split, *middles, merge], dependencies=deps)


def random_layered_workflow(
    name: str,
    submit_time: float,
    layers: int,
    width: int,
    runtime_mean: float,
    edge_prob: float = 0.5,
    seed: int = 0,
    first_id: int = 0,
) -> Workflow:
    """A layered random DAG: each task depends on a random subset of the
    previous layer (at least one parent, so layers are real barriers)."""
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    rng = make_rng(seed, f"layered/{name}")
    jobs: list[Job] = []
    deps: dict[int, tuple[int, ...]] = {}
    prev_layer: list[int] = []
    next_id = first_id
    for _ in range(layers):
        this_layer: list[int] = []
        for _ in range(width):
            job = Job(
                job_id=next_id,
                submit_time=submit_time,
                runtime=float(max(1.0, np.rint(rng.exponential(runtime_mean)))),
                procs=int(rng.choice([1, 1, 2, 4])),
            )
            next_id += 1
            jobs.append(job)
            this_layer.append(job.job_id)
            if prev_layer:
                mask = rng.uniform(size=len(prev_layer)) < edge_prob
                parents = [p for p, m in zip(prev_layer, mask) if m]
                if not parents:
                    parents = [prev_layer[int(rng.integers(len(prev_layer)))]]
                deps[job.job_id] = tuple(parents)
        prev_layer = this_layer
    return Workflow(name=name, jobs=jobs, dependencies=deps)


def merge_workflows(workflows: list[Workflow]) -> tuple[list[Job], dict[int, tuple[int, ...]]]:
    """Flatten several workflows into one (jobs, dependencies) pair for the
    engine.  Job ids must be globally unique across the workflows."""
    jobs: list[Job] = []
    deps: dict[int, tuple[int, ...]] = {}
    seen: set[int] = set()
    for wf in workflows:
        for job in wf.jobs:
            if job.job_id in seen:
                raise ValueError(f"job id {job.job_id} appears in two workflows")
            seen.add(job.job_id)
        jobs.extend(wf.jobs)
        deps.update(wf.dependencies)
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs, deps


def workflow_makespan(workflow: Workflow, finish_times: dict[int, float]) -> float:
    """Makespan of one workflow given per-job finish times: last finish
    minus the workflow's submission instant."""
    submit = min(job.submit_time for job in workflow.jobs)
    last = max(finish_times[job.job_id] for job in workflow.jobs)
    return last - submit
