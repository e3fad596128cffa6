"""perfbench: end-to-end and per-layer benchmark of the repro simulator.

Run from anywhere inside a checkout::

    python perfbench/run.py --workload paper-grid --seed 1
    python perfbench/run.py --workload all --repeats 5 --out results.json
    python perfbench/run.py --workload gather-scatter --trace 1

Each repeat runs in a fresh process (``perfbench.worker``) with
``REPRO_SIM_MODE``/``REPRO_TIME_SKIP`` removed, single-threaded BLAS and
its temporary files under ``.perfbench_tmp/`` in the checkout, so it
measures the program's defaults and writes nothing else but ``--out``.
Metric names and units come from ``BENCHMARK.json`` at the checkout
root.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over repeats), or with ``--trace 1`` the per-layer
metrics of one untraced plus one traced repeat.  End-to-end host times
are normalised to a reference host speed sampled during the run
(``perfbench/speed.py``); the raw clock readings are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Import this directory as the ``perfbench`` package, never its modules
# as top-level names (``trace`` would shadow the standard library's).
if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
    sys.path[0] = str(ROOT)
elif str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.compare import load_spec, quartiles  # noqa: E402
from perfbench.workloads import SIZES, WORKLOADS  # noqa: E402

#: Set-up-only launches per repeat.  A repeat's ``setup_s`` is the
#: median of these and the repeat's own set-up: single 0.2 s intervals
#: catch host noise bursts.
SETUP_PROBES = 4
#: A run must end within this many seconds.
RUN_DEADLINE_S = 170.0
#: What the benchmark may leave behind is confined here (and removed).
TMP_DIR = ".perfbench_tmp"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def worker_env(tmp: Path, pycache: Path) -> Dict[str, str]:
    """The environment of a repeat: the program's defaults, one BLAS
    thread, temporary files inside the checkout.

    Bytecode is always cached, under ``pycache``, as on a user's
    machine after the first ``repro`` command: with
    ``PYTHONDONTWRITEBYTECODE`` set, or a fresh checkout, every launch
    would otherwise compile the program and ``setup_s`` would measure
    the compiler.  The run's first launch fills the cache; set-up is a
    median over launches, so that one does not count.
    """
    env = dict(os.environ)
    for name in ("REPRO_SIM_MODE", "REPRO_TIME_SKIP", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["TMPDIR"] = str(tmp)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source, str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Launcher:
    """Starts worker processes under one run deadline and tidies up."""

    def __init__(self, root_tmp: Path, deadline: float):
        self.root_tmp = root_tmp
        self.deadline = deadline
        self.launches = 0

    def __call__(
        self,
        workload: str,
        seed: int,
        size: str,
        trace: bool = False,
        setup_only: bool = False,
        sample: bool = False,
    ) -> Dict:
        self.launches += 1
        tmp = self.root_tmp / f"launch-{self.launches}"
        tmp.mkdir(parents=True)
        config = {
            "workload": workload,
            "seed": seed,
            "size": size,
            "tmp": str(tmp),
            "trace": trace,
            "setup_only": setup_only,
            "sample": sample,
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{workload}: out of time before launch {self.launches}")
        config["launched"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", json.dumps(config)],
            cwd=ROOT,
            env=worker_env(tmp, self.root_tmp / "pycache"),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: a repeat overran the run deadline")
        finally:
            # The worker's session holds its pool workers too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            shutil.rmtree(tmp, ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{workload}: worker exited with {proc.returncode} and no record"
            )
        return json.loads(lines[-1])


def end_to_end(records: List[Dict], setup: List[float]) -> Dict[str, List[float]]:
    """Per-repeat values of every end-to-end metric; host times are at
    the reference speed (``perfbench/speed.py``)."""
    return {
        "wall_s": [r["norm_wall_s"] for r in records],
        "points_per_s": [r["points"] / r["norm_wall_s"] for r in records],
        "sim_cycles_per_s": [r["sim_cycles"] / r["norm_wall_s"] for r in records],
        "point_p50_ms": [r["norm_point_p50_ms"] for r in records],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "correct_fraction": [
            (r["attempted"] - r["failed"]) / r["attempted"] for r in records
        ],
    }


def per_layer(plain: Dict, traced: Dict) -> Dict[str, float]:
    """Span metrics of the traced repeat, program counters of the
    untraced one, and the tracing overhead between them."""
    metrics = dict(traced["spans"])
    metrics.update(plain["counters"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    reference = traced.get("reference", {})
    metrics["check.reference_points"] = reference.get("checked", 0)
    metrics["check.reference_mismatches"] = reference.get("mismatched", 0)
    return metrics


def run_workload(name: str, args, launch: Launcher, spec: Dict) -> Dict:
    """All repeats of one workload; returns its result document."""
    started = time.monotonic()
    notes: List[str] = []
    if args.trace:
        plain = launch(name, args.seed, args.size)
        traced = launch(name, args.seed, args.size, trace=True)
        records = [plain, traced]
        if traced["digests"] != plain["digests"]:
            notes.append(
                f"traced digests {traced['digests']} differ from untraced "
                f"{plain['digests']}"
            )
            traced["failed"] = traced["attempted"]
    else:
        setup = []
        records = []
        while len(records) < args.repeats:
            began = time.monotonic()
            probes = [
                launch(name, args.seed, args.size, setup_only=True, sample=True)
                for _ in range(SETUP_PROBES)
            ]
            record = launch(name, args.seed, args.size, sample=True)
            setup.append(
                statistics.median(p["norm_setup_s"] for p in probes + [record])
            )
            record["raw_setup_s"] = statistics.median(
                p["setup_s"] for p in probes + [record]
            )
            if records and record["digests"] != records[0]["digests"]:
                notes.append(
                    f"repeat {len(records) + 1} digests {record['digests']} "
                    f"differ from repeat 1 {records[0]['digests']}"
                )
                record["failed"] = record["attempted"]
            records.append(record)
            took = time.monotonic() - began
            if args.seconds and time.monotonic() + took > started + args.seconds:
                break
    for record in records:
        notes.extend(record["notes"])
    doc: Dict = {
        "repeats": len(records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "notes": notes,
        "digests": records[0]["digests"],
        "point_samples": records[0]["point_samples"],
    }
    if "headline" in records[0]:
        doc["headline"] = records[0]["headline"]
    if args.trace:
        values = per_layer(records[0], records[1])
        doc["absent"] = records[1]["absent"]
        doc["per_layer"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        series = end_to_end(records, setup)
        doc["end_to_end"] = {
            m["name"]: {
                "unit": m["unit"],
                "values": series[m["name"]],
                **quartiles(series[m["name"]]),
            }
            for m in spec["end_to_end"]
        }
        # What the clock read, and the host speed that normalised it.
        doc["raw"] = {
            key: [r[key] for r in records]
            for key in ("wall_s", "point_p50_ms", "raw_setup_s", "speed")
        }
    return doc


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, doc: Dict, spec: Dict) -> None:
    print(
        f"perfbench {name}: {doc['repeats']} repeat(s), "
        f"{doc['attempted']} points attempted, {doc['failed']} failed"
    )
    direction = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for metric, entry in doc.get("end_to_end", {}).items():
        extra = ""
        if metric == "point_p50_ms":
            extra = f"  ({doc['point_samples']} samples)"
        print(
            f"  {metric:<22} {_fmt(entry['median']):>12} {entry['unit']:<9}"
            f" q1 {_fmt(entry['q1'])}  q3 {_fmt(entry['q3'])}"
            f"  ({direction[metric]} is better){extra}"
        )
    if "raw" in doc:
        raw = doc["raw"]
        print(
            "  host times above are at the reference speed; the clock read "
            f"wall_s {_fmt(statistics.median(raw['wall_s']))}, "
            f"point_p50_ms {_fmt(statistics.median(raw['point_p50_ms']))}, "
            f"setup_s {_fmt(statistics.median(raw['raw_setup_s']))} "
            f"at host speed {_fmt(statistics.median(raw['speed']))}"
        )
    for metric, entry in doc.get("per_layer", {}).items():
        print(f"  {metric:<36} {_fmt(entry['value']):>12} {entry['unit']}")
    for point in doc.get("absent", []):
        print(f"  absent wrap point: {point}")
    if "headline" in doc:
        from perfbench.checks import PAPER_HEADLINE

        measured = doc["headline"]
        print(
            "  headline (copy/scale/swap): "
            + ", ".join(f"{k} {measured[k]}" for k in PAPER_HEADLINE)
            + "; paper: "
            + ", ".join(f"{k} {v}" for k, v in PAPER_HEADLINE.items())
        )
    for note in doc["notes"]:
        print(f"  FAILED: {note}")


def parse_args(argv: Optional[List[str]]):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--repeats", type=int, default=5, help="most repeats per workload"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="stop starting repeats once another would end past this budget "
        "(at least one repeat always runs)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="per-layer run: one untraced and one traced repeat",
    )
    parser.add_argument("--out", default=None, help="write the full results here")
    parser.add_argument(
        "--size", choices=sorted(SIZES), default="full", help="tiny is for self-tests"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    root_tmp = ROOT / TMP_DIR / f"run-{os.getpid()}"
    launch = Launcher(root_tmp, time.monotonic() + RUN_DEADLINE_S * len(names))
    try:
        results = {name: run_workload(name, args, launch, spec) for name in names}
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root_tmp, ignore_errors=True)
        try:
            (ROOT / TMP_DIR).rmdir()
        except OSError:
            pass
    for name, doc in results.items():
        print_workload(name, doc, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "seed": args.seed,
                    "size": args.size,
                    "trace": args.trace,
                    "workloads": results,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, doc in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, entry in doc[section].items():
            value = entry["value"] if args.trace else entry["median"]
            metrics[prefix + metric] = {"value": value, "unit": entry["unit"]}
    attempted = sum(doc["attempted"] for doc in results.values())
    failed = sum(doc["failed"] for doc in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
