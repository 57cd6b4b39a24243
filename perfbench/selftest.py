"""Self-test of the benchmark itself (not of mmdsl).

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it checks that:
- two untraced runs with one seed print byte-identical corpus and output
  digests, and identical counts of attempted and failed operations;
- the untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and the traced run every per-layer metric;
- the traced run writes spans, and across all workloads checked the spans
  cover every layer the benchmark times.
Finally it checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes. Runs take one pass each (--seconds 0).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = {"lexer", "grammar", "meta", "emfatic", "xf", "transform", "modeltext", "diagnostics"}
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def digests(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(("corpus_sha256", "output_sha256"))]


def check_metrics(result: dict, stdout: str, declared: list[dict], label: str) -> list[str]:
    problems = []
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        problems.append(f"{label}: metrics {sorted(set(got) ^ {m['name'] for m in declared})} "
                        f"missing or undeclared")
    for m in declared:
        entry = got.get(m["name"])
        if entry is not None and entry["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {entry['unit']}, not {m['unit']}")
        if f" {m['name']} " not in stdout:
            problems.append(f"{label}: {m['name']} is not printed")
    return problems


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in bench["workloads"]]
    problems: list[str] = []
    layers_seen: set[str] = set()
    for w in workloads:
        first, second, traced = run(w, 0), run(w, 0), run(w, 1)
        for label, proc in (("untraced", first), ("untraced again", second), ("traced", traced)):
            if proc.returncode != 0:
                problems.append(f"{w} {label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        if problems:
            continue
        a, b = (json.loads(p.stdout.splitlines()[-1]) for p in (first, second))
        if digests(first.stdout) != digests(second.stdout) or len(digests(first.stdout)) != 2:
            problems.append(f"{w}: digests differ between two runs of seed {SEED}")
        if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
            problems.append(f"{w}: attempted/failed differ between two runs of seed {SEED}")
        problems += check_metrics(a, first.stdout, bench["end_to_end"], f"{w} untraced")
        t = json.loads(traced.stdout.splitlines()[-1])
        problems += check_metrics(t, traced.stdout, bench["per_layer"], f"{w} traced")
        spans = HERE / "out" / f"spans-{w}-seed{SEED}.jsonl"
        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        layers_seen |= {n.split(".")[0] for n in names}
        print(f"{w}: {len(digests(first.stdout))} digests stable, {len(a['metrics'])} + "
              f"{len(t['metrics'])} metrics, {len(names)} span names")
    if set(workloads) == {w["name"] for w in bench["workloads"]} and layers_seen != LAYERS:
        problems.append(f"spans cover layers {sorted(layers_seen)}, expected {sorted(LAYERS)}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the mmdsl sources the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
