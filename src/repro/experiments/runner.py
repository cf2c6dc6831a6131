"""Experiment registry: one entry per reproduced claim (see DESIGN.md)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.experiments.ablations import run_e13
from repro.experiments.construction import run_e10
from repro.experiments.equivalence import run_e7
from repro.experiments.kleinberg_exp import run_e11
from repro.experiments.loadbalance_exp import run_e8
from repro.experiments.logstyle import run_e3
from repro.experiments.mercury_exp import run_e12
from repro.experiments.proof_internals import run_e2
from repro.experiments.report import ResultTable
from repro.experiments.robustness import run_e9
from repro.experiments.scaling import run_e1, run_e5
from repro.experiments.skew_independence import run_e6
from repro.experiments.tradeoff import run_e4
from repro.experiments.variance import run_e14

__all__ = ["Experiment", "REGISTRY", "run_experiment"]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment.

    Attributes:
        exp_id: short id (``"E1"`` ... ``"E12"``).
        title: one-line description.
        paper_anchor: what part of the paper it reproduces.
        fn: callable ``(seed, quick) -> ResultTable | list[ResultTable]``.
    """

    exp_id: str
    title: str
    paper_anchor: str
    fn: Callable[..., "ResultTable | list[ResultTable]"]


REGISTRY: dict[str, Experiment] = {
    exp.exp_id: exp
    for exp in [
        Experiment("E1", "Uniform-model hop scaling", "Theorem 1", run_e1),
        Experiment("E2", "Partition advance statistics", "eqs. (5)-(6)", run_e2),
        Experiment("E3", "Comparison with logarithmic-style DHTs", "Sec. 3.1", run_e3),
        Experiment("E4", "Table-size / search-cost trade-off", "Sec. 3.1", run_e4),
        Experiment("E5", "Skewed-model hop scaling", "Theorem 2", run_e5),
        Experiment("E6", "Skew-independence headline sweep", "Sec. 1/4", run_e6),
        Experiment("E7", "Space-normalisation equivalence", "Figures 1-2", run_e7),
        Experiment("E8", "Storage load balance", "Sec. 4.1", run_e8),
        Experiment("E9", "Robustness to connectivity loss", "Sec. 3.1", run_e9),
        Experiment("E10", "Construction protocols", "Sec. 4.2", run_e10),
        Experiment("E11", "Kleinberg exponent sweep", "Sec. 2", run_e11),
        Experiment("E12", "Mercury sampling convergence", "Sec. 4 / Mercury", run_e12),
        Experiment("E13", "Design-choice ablations", "DESIGN.md §6", run_e13),
        Experiment("E14", "Search-cost variation", "Sec. 5 future work", run_e14),
    ]
}


def run_experiment(
    exp_id: str, seed: int = 0, quick: bool = False, workers: int | None = None
) -> list[ResultTable]:
    """Run one experiment by id and return its result tables.

    Args:
        exp_id: registry id (``"E1"`` ... ``"E14"``).
        seed: random seed.
        quick: reduced-size variant.
        workers: route lookup batches over this many worker threads
            for the duration of the experiment (installed as the
            :mod:`repro.parallel` default, so every ``route_many`` in
            the sweep picks it up; results are bit-identical to serial).

    Raises:
        KeyError: for an unknown experiment id.
    """
    exp_id = exp_id.upper()
    if exp_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    if workers is None:
        result = REGISTRY[exp_id].fn(seed=seed, quick=quick)
    else:
        from repro.parallel.autotune import get_default_workers, set_default_workers

        previous = get_default_workers()
        set_default_workers(workers)
        try:
            result = REGISTRY[exp_id].fn(seed=seed, quick=quick)
        finally:
            set_default_workers(previous)
    return result if isinstance(result, list) else [result]
