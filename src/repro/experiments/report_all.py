"""One-shot regeneration of the paper's evaluation artifacts.

``generate_all`` runs the paper's evaluation — figures 7-11, table 1,
the headline ratios, every ablation and the alignment study — and
writes each series to ``<out_dir>/<name>.txt``; the CLI exposes it as
``python -m repro all``.  Each artifact is made by the same call as its
benchmark in ``benchmarks/``, so at the default sizes every file it
writes is byte-identical to its ``results/`` namesake.  (The
benchmarks also write seven extension tables that are built inside
their test files.)

Every experiment submits its points through **one shared
:class:`~repro.engine.ExperimentEngine`**: pass
``engine=ExperimentEngine(jobs=N, cache_dir=...)`` to fan the whole
evaluation over a worker pool and replay re-runs from the result cache;
its aggregate metrics (points/sec, cache hit rate) stay readable on
``engine.metrics``.

``elements`` shrinks every experiment's vectors for a quick sanity
pass; by default each runs at the size its benchmark records.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.engine import ExperimentEngine
from repro.experiments.ablations import (
    ablate_bank_scaling,
    ablate_bypass_paths,
    ablate_refresh,
    ablate_row_policy,
    ablate_subcommand_latency,
    ablate_vector_contexts,
)
from repro.experiments.alignment import alignment_study
from repro.experiments.complexity import complexity_table
from repro.experiments.figures import run_figure
from repro.experiments.headline import headline_table
from repro.params import SystemParams

__all__ = ["generate_all"]


def generate_all(
    out_dir: Union[str, Path] = "results",
    elements: Optional[int] = None,
    progress: Callable[[str], None] = lambda message: None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Path]:
    """Regenerate the 14 evaluation artifacts; return ``{name: path}``.

    ``progress`` receives a line per artifact (the CLI prints them).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    engine = engine if engine is not None else ExperimentEngine()
    sized: Dict[str, object] = {"engine": engine}
    if elements is not None:
        sized["elements"] = elements

    def emit(name: str, text: str) -> None:
        path = out / f"{name}.txt"
        path.write_text(text + "\n")
        written[name] = path
        progress(f"wrote {path}")

    for number in ("7", "8", "9", "10", "11"):
        emit(f"figure{number}", run_figure(number, **sized).text)

    emit("table1", complexity_table(SystemParams()))
    emit("headline", headline_table(**sized)[2])

    for name, study in (
        ("ablation_row_policy", ablate_row_policy),
        ("ablation_vector_contexts", ablate_vector_contexts),
        ("ablation_bypass", ablate_bypass_paths),
        ("ablation_bank_scaling", ablate_bank_scaling),
        ("ablation_subcommand_latency", ablate_subcommand_latency),
        ("ablation_refresh", ablate_refresh),
        ("alignment_study", alignment_study),
    ):
        # The bypass ablation times one isolated command of one cache
        # line: it has no vector length to shrink.
        kwargs = {"engine": engine} if study is ablate_bypass_paths else sized
        emit(name, study(**kwargs)[1])
    return written
