"""Checks of the benchmark itself; run from the repository root::

    python3 perfbench/selfcheck.py

1. Determinism: two runs with one seed print identical deterministic
   metrics, and another seed gives other inputs.
2. The traced run's self-test fails loudly when a wrapper is bound to a
   name its caller never looks up.
3. ``ingest_sharded`` leaves no shared-memory segment behind when its
   correctness check fails or an operation raises, and such a run exits
   nonzero.
4. The metrics and workloads ``run.py`` knows match ``BENCHMARK.json``.

Exits 0 when every check passes and prints one line per failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import host  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

#: Metrics that depend only on the inputs and the program, never on time.
DETERMINISTIC = {
    0: ("synopsis_bytes",),
    1: (
        "streams.predicate.kept_ratio",
        "hashing.coalesce.distinct_ratio",
        "hashing.bulk_tables.table_hit_ratio",
        "core.skim.repeat_ratio",
        "core.skim.dense_values",
    ),
}
#: Lines of the human-readable output that must repeat exactly.
DETERMINISTIC_LINES = ("input_sha256", "answers_sha256", "max_rel_error")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One short benchmark run: ``(JSON result, deterministic lines)``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n"
                           f"{out.stderr[-2000:]}")
    facts = {}
    for line in lines:
        for key in DETERMINISTIC_LINES:
            if line.startswith(key):
                facts[key] = line
    return json.loads(lines[-1]), facts


def check_determinism(workload: str) -> list[str]:
    problems = []
    for trace, names in DETERMINISTIC.items():
        first, facts_a = _run(workload, 7, trace)
        second, facts_b = _run(workload, 7, trace)
        if facts_a != facts_b:
            problems.append(f"{workload}: same seed, different {facts_a} {facts_b}")
        for name in names:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b} on one seed")
    _, other = _run(workload, 8, 0)
    if other["input_sha256"] == facts_a["input_sha256"]:
        problems.append(f"{workload}: seeds 7 and 8 gave identical inputs")
    return problems


def check_misbound_wrapper() -> list[str]:
    """Wrap ``repro.core.skim.skim_dense``, which ``SkimmedSketch`` never
    looks up (it calls its own module's binding): the self-test must
    report the missing skim spans."""
    import repro.core.skim as skim_module

    def misbound():
        rows = original()
        return [
            (skim_module, *row[1:]) if row[2] == "core.skim" and row[1] == "skim_dense"
            else row
            for row in rows
        ]

    original = spans._targets
    workload = replay.WORKLOADS["standing_queries"]
    spans._targets = misbound
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rep = run.run_rep(workload, workload.make_input(1), traced=True)
    finally:
        spans._targets = original
    if rep.failed == 0 or "core.skim" not in err.getvalue():
        return ["a wrapper bound to an unused name passed the trace self-test"]
    return []


def _corrupt_truth(data):
    for step in data.steps:
        if step.kind == replay.ANSWER:
            step.exact *= 2.0
    return data


def _bad_value(data):
    step = next(s for s in data.steps if s.kind == replay.INGEST and s.target == "f")
    step.values = step.values.copy()
    step.values[0] = replay.INGEST_DOMAIN  # outside the domain: the program raises
    return data


def check_shared_memory() -> list[str]:
    problems = []
    workload = replay.WORKLOADS["ingest_sharded"]
    make_input = workload.make_input
    for fault in (_corrupt_truth, _bad_value):
        before = host.shm_segments()
        workload.make_input = lambda seed, fault=fault: fault(make_input(seed))
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "ingest_sharded", "--seed", "3",
                                 "--seconds", "0.1"])
        finally:
            workload.make_input = make_input
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        if code == 0 or result["correct"] or not result["failed"]:
            problems.append(f"{fault.__name__}: the failing run exited {code}")
        # The run's own leak check; /dev/shm below is clean either way once
        # the run has stopped the resource tracker.
        if "left behind" in err.getvalue():
            problems.append(f"{fault.__name__}: the run reported leaked segments")
        leaked = host.shm_segments() - before
        if leaked:
            problems.append(f"{fault.__name__}: left {sorted(leaked)} in /dev/shm")
    return problems


def check_contract() -> list[str]:
    """The metric names and units ``run.py`` prints are the ones
    ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, printed in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        units = {m["name"]: m["unit"] for m in declared[section]}
        if units != printed:
            problems.append(f"{section}: BENCHMARK.json {units} != run.py {printed}")
    if [w["name"] for w in declared["workloads"]] != list(replay.WORKLOADS):
        problems.append("workload names differ between BENCHMARK.json and replay.py")
    return problems


def main() -> int:
    problems = check_contract() + check_misbound_wrapper() + check_shared_memory()
    for workload in replay.WORKLOADS:
        problems += check_determinism(workload)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
