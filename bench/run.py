"""Audit benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A workload (``GROUPS`` in
``bench/workloads.py``) is a pair of audit sweeps, its parts.  Every part
runs in a fresh interpreter (``bench/worker.py``) started here, one after
another, so the module-level memo tables start empty as they do for a CLI
user.  Warm repeats inside one process would read faster and measure a
program no user runs.  One pass over the parts of a workload is a round.

Untraced (``--trace 0``): a warm-up round of set-up-only starts (unmeasured;
it also compiles the bytecode), then pairs of one set-up-only round and one
full round, for as long as another pair is expected to end within S
seconds.  It prints the medians over rounds of

- ``setup_s``: summed over the parts, from starting the interpreter until
  ``import forcebench`` has returned and the raw inputs are built;
- ``wall_s``: summed over the parts, from the first call into forcebench
  until the last verdict and count are checked;
- ``peak_rss_mb``: summed over the parts, the peak resident memory of the
  part's process (a sum, so that growth in the smaller part still shows).

Both times are seconds at reference speed (``bench/reference.py``): each
part's raw seconds times ``REFERENCE_S`` over the mean time of the
reference loop timed every 40 ms inside that part.  The machine's speed
drifts by up to 2x within minutes, which the raw seconds carry and the
scaled ones cancel.  The raw seconds go to the record and to stderr.

Traced (``--trace 1``): one traced round, then untraced rounds as above for
what is left of S seconds (at least one).  It prints the per-layer metrics
that BENCHMARK.json names (see ``bench/tracer.py``), summed over the parts,
and ``trace.overhead_ratio`` = traced raw wall time / untraced median raw
wall time.  The traced round runs no reference loop, so its per-layer
times are raw seconds.

Every verdict and pinned count goes through the gate in
``bench/workloads.py``; the finite-wide machine report must also hash the
same in every round of one seed.  Anything off is reported on stderr, makes
``correct`` false, the metrics empty and the exit status 1.  The share of
failed audit items is ``failed / attempted`` in the result line; it is not a
metric because it reads 0 on a correct program.

The last stdout line is the result JSON.  A record with the machine context
and every raw sample, per part, and the traced round's spans go to
``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import REFERENCE_S  # noqa: E402
from tracer import layer_value  # noqa: E402
from workloads import GROUPS  # noqa: E402

DEADLINE_S = 170.0  # every worker is stopped before the whole run reaches this


def machine_context() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    def __init__(self, parts: tuple[str, ...], seed: int, started: float) -> None:
        self.parts, self.seed = parts, seed
        self.started = started
        self.env = dict(os.environ)
        # hash order is pinned for every worker unless the caller pinned it
        self.env.setdefault("PYTHONHASHSEED", "0")
        self.failures: list[str] = []
        self.attempted = 0

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)

    def spawn(self, part: str, mode: str, spans_path: Path | None) -> dict | None:
        """Start one worker and wait for it; its result, or None on failure."""
        cmd = [sys.executable, str(BENCH / "worker.py"), part, str(self.seed), mode]
        if spans_path is not None:
            cmd.append(str(spans_path))
        budget = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(budget, 1.0)
            )
        except subprocess.TimeoutExpired:
            self.fail(f"{part} {mode} worker did not finish within the {DEADLINE_S:.0f} s deadline")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            self.fail(f"{part} {mode} worker exited with status {proc.returncode}")
            return None
        out = json.loads(lines[-1])
        out["setup_raw_s"] = out["setup_done"] - spawned - out["setup_paused"]
        out["setup_s"] = out["setup_raw_s"] * REFERENCE_S / out["setup_ref_s"]
        if mode == "run":
            out["wall_s"] = out["wall_raw_s"] * REFERENCE_S / out["wall_ref_s"]
        if mode != "setup":
            self.attempted += out["attempted"]
            self.failures.extend(out["failures"])
        return out

    def round(self, mode: str, spans_stem: Path | None = None) -> dict | None:
        """Every part once, in a fresh interpreter each; None if one failed."""
        parts = {}
        for part in self.parts:
            spans = spans_stem.with_name(f"{spans_stem.name}-{part}-spans.json") if spans_stem else None
            out = self.spawn(part, mode, spans)
            if out is None:
                return None
            parts[part] = out
        return parts

    def repeat(self, seconds: float, probe: bool) -> tuple[list[dict], list[dict]]:
        """Full untraced rounds while another one is expected to end within
        ``seconds`` (at least one).  With ``probe``, a set-up-only round
        precedes each, so set-up is sampled across the whole run."""
        runs, setups = [], []
        begun = time.monotonic()
        while True:
            if probe:
                setups.append(self.round("setup"))
            out = self.round("run")
            if out is None:
                break
            runs.append(out)
            elapsed = time.monotonic() - begun
            if elapsed + elapsed / len(runs) > seconds:
                break
        digests = {tuple(part["digest"] for part in run.values()) for run in runs}
        if len(digests) > 1:
            self.fail(f"machine report differs between rounds of seed {self.seed}")
        return runs, [s for s in setups if s] + runs


def summed(traced: dict) -> tuple[dict, Counter, Counter]:
    """The traced parts' aggregates and memo sizes, added up."""
    stats: dict[str, list] = {}
    memo_start, memo_end = Counter(), Counter()
    for part in traced.values():
        for key, row in part["stats"].items():
            total = stats.setdefault(key, [0, 0.0, 0.0])
            for i, x in enumerate(row):
                total[i] += x
        memo_start.update(part["memo_start"])
        memo_end.update(part["memo_end"])
    return stats, memo_start, memo_end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GROUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "forcebench" / "__init__.py").is_file():
        print(f"no forcebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = ROOT / ".bench_runs"
    records.mkdir(exist_ok=True)
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    context = machine_context()
    runner = Runner(GROUPS[args.workload], args.seed, started)
    context["pythonhashseed"] = runner.env["PYTHONHASHSEED"]

    runner.round("setup")  # warm-up: bytecode and file cache, not measured
    begun = time.monotonic()
    traced = runner.round("trace", stem) if args.trace else None
    runs, setups = runner.repeat(args.seconds - (time.monotonic() - begun), probe=not args.trace)
    samples = {
        "setup_s": [sum(p["setup_s"] for p in s.values()) for s in setups],
        "wall_s": [sum(p["wall_s"] for p in r.values()) for r in runs],
        "peak_rss_mb": [sum(p["peak_rss_mb"] for p in r.values()) for r in runs],
        "wall_raw_s": [sum(p["wall_raw_s"] for p in r.values()) for r in runs],
        "setup_raw_s": [sum(p["setup_raw_s"] for p in s.values()) for s in setups],
        "parts": {
            part: {
                key: [r[part][key] for r in runs]
                for key in (
                    "wall_s",
                    "wall_raw_s",
                    "wall_ref_s",
                    "wall_passes",
                    "peak_rss_mb",
                    "cpu_user_s",
                    "cpu_sys_s",
                )
            }
            for part in runner.parts
        },
    }

    totals = summed(traced) if traced else None

    def value(name: str):
        if not args.trace:
            return statistics.median(samples[name])
        if name == "trace.overhead_ratio":
            traced_wall = sum(p["wall_raw_s"] for p in traced.values())
            return traced_wall / statistics.median(samples["wall_raw_s"])
        return layer_value(name, *totals)

    metrics = {}
    if runs and not runner.failures:  # a failed run is reported, never timed
        metrics = {
            m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        }
    elif not runner.failures:
        runner.fail("no complete round")

    context["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload,
        "parts": runner.parts,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "samples": samples,
        "traced": traced,
        "report_digests": sorted({part["digest"] for r in runs for part in r.values()} - {""}),
        "metrics": metrics,
        "attempted": runner.attempted,
        "failures": runner.failures,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for message in runner.failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(runs)} rounds, "
        f"{len(samples['setup_s'])} set-up rounds, record {records.name}/{stem.name}.json",
        file=sys.stderr,
    )
    if runs:
        print(
            "raw seconds (median): wall {:.3f}, setup {:.3f}".format(
                statistics.median(samples["wall_raw_s"]), statistics.median(samples["setup_raw_s"])
            ),
            file=sys.stderr,
        )
    correct = not runner.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(runner.attempted, 1),
                "failed": len(runner.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
