"""The measuring loop, the determinism checks and the result of one run.

Imported by run.py only after phyres has been imported and timed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import hostspeed
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
STARTED = time.perf_counter()
TIME_LIMIT_S = 150.0  # no pass may be expected to end later than this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "mse_a_test": "ratio", "calib_mse": "ratio", "ok_rate": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_call"):
        return "rows/call"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    return "count"


@dataclass
class Pass:
    traced: bool
    wall_s: float     # at the reference host speed; see hostspeed.py
    raw_wall_s: float
    cpu_s: float
    outcome: wl.Outcome
    digests: dict[str, str] = field(repr=False)
    busy: dict[str, float] = field(default_factory=dict, repr=False)
    counts: dict[str, int] = field(default_factory=dict, repr=False)
    spans: list = field(default_factory=list, repr=False)


def run_pass(workload, out: Path, traced: bool, sampler: hostspeed.HostSampler) -> Pass:
    wl.fresh_dir(out)
    tracer = tracing.Tracer().install() if traced else None
    cpu0, mark = time.process_time(), sampler.mark()
    try:
        errors = workload.run(out)
    except Exception:
        errors = [traceback.format_exc()]
    finally:
        raw, wall = sampler.since(mark)
        factor = sampler.factor(mark)
        cpu = (time.process_time() - cpu0) * factor
        if tracer is not None:
            tracer.restore()
    try:
        outcome = workload.check(out, errors)
    except Exception:
        outcome = wl.Outcome(attempted=1, failed=1,
                             problems=errors + [traceback.format_exc()])
    p = Pass(traced=traced, wall_s=wall, raw_wall_s=raw, cpu_s=cpu, outcome=outcome,
             digests=wl.digests(out))
    if tracer is not None:
        p.counts, p.spans = tracer.counts, tracer.spans
        p.busy = {k: v * factor for k, v in tracer.busy_s().items()}
    return p


def measure(name: str, seed: int, seconds: float, trace: bool, scale: wl.Scale,
            sampler: hostspeed.HostSampler, import_s: float):
    """One run: set-up, the closed loop of passes, checks.  ``import_s`` and
    every reported time are rescaled to the reference host speed.

    Returns (result printed as the last stdout line, record, spans)."""
    work = wl.fresh_dir(STATE / "work" / f"{name}-{seed}-{os.getpid()}")
    try:
        workload = wl.WORKLOADS[name](work, wl.Seeds.derive(seed), scale)
        setup_times = []
        if trace:
            mark = sampler.mark()
            with tracing.Tracer() as setup_tracer:
                workload.setup()
            setup_factor = sampler.factor(mark)
        else:
            for _ in range(scale.setup_repeats):
                mark = sampler.mark()
                workload.setup()
                setup_times.append(sampler.since(mark)[1])
        passes, problems = _closed_loop(workload, work / "out", seconds, trace, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # determinism: outputs, and traced per-layer counts, repeat exactly
    traced = [p for p in passes if p.traced]
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            problems.append("output digests differ between passes")
            p.outcome.failed = p.outcome.attempted
    for p in traced[1:]:
        if p.counts != traced[0].counts:
            problems.append("per-layer counts differ between traced passes")
            p.outcome.failed = p.outcome.attempted
    if any(hasattr(getattr(sys.modules[m], a), "__wrapped__") for m, a, _ in tracing.SITES):
        problems.append("a traced function was not restored")
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    quality = passes[0].outcome.quality
    correct = (not problems and failed == 0 and bool(quality)
               and all(p.outcome.quality == quality for p in passes))

    untraced_wall = statistics.median(p.wall_s for p in passes if not p.traced)
    spans = []
    if trace:
        spans = [("setup", setup_tracer.spans)] + [
            (i, p.spans) for i, p in enumerate(passes) if p.traced]
        busy = Counter(_median_busy(traced)) + Counter(
            {k: v * setup_factor for k, v in setup_tracer.busy_s().items()})
        counts = Counter(traced[0].counts) + setup_tracer.counts
        values = tracing.layer_metrics(busy, counts,
                                       statistics.median(p.cpu_s for p in traced))
        values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - untraced_wall)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": untraced_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "mse_a_test": quality.get("mse_a_test"),
            "calib_mse": quality.get("calib_mse"),
            "ok_rate": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": asdict(scale), "import_s": import_s, "setup_times_s": setup_times,
        "error_rate": failed / attempted,
        "problems": problems + [q for p in passes for q in p.outcome.problems],
        "host_speed": {"samples": sampler.samples,
                       "mean": sampler.speed_sum / max(sampler.samples, 1),
                       "handler_s": sampler.overhead_s},
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s,
                    "cpu_s": p.cpu_s,
                    "attempted": p.outcome.attempted, "failed": p.outcome.failed}
                   for p in passes],
        "digests": passes[0].digests,
        "result": result,
    }
    return result, record, spans


def _closed_loop(workload, out: Path, seconds: float, trace: bool, sampler):
    """Passes, each started after the previous one ends, while one of typical
    length still fits in ``seconds``."""
    min_passes = 3 if trace else 2
    passes, elapsed, problems = [], [], []
    start = time.perf_counter()
    while True:
        if passes:
            typical = statistics.median(elapsed)
            now = time.perf_counter()
            if now + typical - STARTED > TIME_LIMIT_S:
                if len(passes) < min_passes:
                    problems.append(f"time limit reached after {len(passes)} passes")
                break
            if len(passes) >= min_passes and now + typical - start > seconds:
                break
        # traced runs alternate traced and untraced passes: T, U, T, ...
        t0 = time.perf_counter()
        passes.append(run_pass(workload, out, trace and len(passes) % 2 == 0, sampler))
        elapsed.append(time.perf_counter() - t0)
    return passes, problems


def _median_busy(traced: list[Pass]) -> dict[str, float]:
    keys = set().union(*(p.busy for p in traced))
    return {k: statistics.median(p.busy.get(k, 0.0) for p in traced) for k in keys}


def write_record(record: dict, spans, env: dict) -> Path:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    path = results / f"{stem}.json"
    path.write_text(json.dumps(dict(record, environment=env), indent=1) + "\n")
    if spans:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for label, rows in spans:
                for span, start, end, parent in rows:
                    fh.write(json.dumps([label, span, start, end, parent]) + "\n")
    return path


def smoke(sampler: hostspeed.HostSampler, import_s: float) -> int:
    """Every workload, both modes, tiny inputs: each metric present with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record, _ = measure(name, 0, 0, bool(trace), wl.SMOKE, sampler, import_s)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                bad.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}, units "
                           f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                bad.append(f"{name} trace {trace}: {record['problems']}")
            print(f"smoke {name} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations", file=sys.stderr)
    for line in bad:
        print(f"smoke FAILED: {line}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if bad else "ok"}))
    return 1 if bad else 0
