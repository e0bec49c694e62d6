"""One cold audit run: a fresh interpreter, one sweep, one result line.

    python3 bench/worker.py SWEEP SEED MODE [SPANS_PATH]

MODE is ``setup`` (import forcebench and build the raw inputs, then stop),
``run`` (also run the audit sweep untraced) or ``trace`` (run it with the
per-layer tracer installed, and write the spans to SPANS_PATH).

Outside ``trace`` the reference loop of ``bench/reference.py`` is timed
every 40 ms of work, from the first line on; the set-up and the audits are
each reported as raw work seconds plus the mean reference time inside
them.  A traced run has no reference ticks, which would land in the self
time of whatever function they interrupt.

The last line of standard output is a JSON object.  ``setup_done`` is read
from CLOCK_MONOTONIC, which every process on the machine shares, so the
parent can time set-up from the moment it started this interpreter.
"""
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from reference import Ticker  # noqa: E402


def main(sweep: str, seed: int, mode: str, spans_path: str | None) -> dict:
    ticker = Ticker()
    if mode != "trace":
        ticker.start()
    import forcebench  # noqa: F401  (set-up includes the import)

    from workloads import SWEEPS, Gate

    make_inputs, run = SWEEPS[sweep]
    inputs = make_inputs(seed, ROOT)
    out = {"setup_done": time.monotonic(), "setup_paused": ticker.paused}
    _, out["setup_ref_s"], out["setup_passes"] = ticker.window()
    if mode == "setup":
        ticker.stop()
        return out

    tracer = None
    if mode == "trace":
        from tracer import Tracer, memo_sizes

        memo_start = memo_sizes()
        tracer = Tracer()
        tracer.install()
        ticker.window()  # the audits' window opens after the install

    gate = Gate()
    run(inputs, gate)
    out["wall_raw_s"], out["wall_ref_s"], out["wall_passes"] = ticker.window()
    ticker.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    # whole-process CPU time, kept with the raw samples
    out["cpu_user_s"], out["cpu_sys_s"] = usage.ru_utime, usage.ru_stime

    if tracer is not None:
        for key in tracer.hot_misses(sweep):
            gate.failures.append(f"traced layer {key} recorded no calls on {sweep}")
        out["stats"] = {k: v[:3] for k, v in sorted(tracer.stats.items())}
        out["memo_start"], out["memo_end"] = memo_start, memo_sizes()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "parent", "start", "end"],
                    "spans": sorted(tracer.spans),
                },
                fh,
            )
    out.update(attempted=gate.attempted, failures=gate.failures, digest=gate.digest)
    return out


if __name__ == "__main__":
    args = sys.argv[1:]
    result = main(args[0], int(args[1]), args[2], args[3] if len(args) > 3 else None)
    print(json.dumps(result))
