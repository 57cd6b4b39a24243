"""Benchmark of the mmdsl text<->model chain.

    python3 perfbench/run.py --workload css_merge --seed 1 --seconds 40 --trace 0

Generates the workload's corpus from the seed, repeats passes over it
until --seconds have been measured (the first pass, and every traced pass,
runs whole), checks every output against an oracle built from the
generator's ground truth, prints every metric with its unit and sample
count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones, from spans recorded around every call into mmdsl,
and the spans are written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from statistics import median
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "text_to_model_kb_s": "KB/s",
    "text_to_model_p50_ms": "ms",
    "text_to_model_p95_ms": "ms",
    "model_to_text_kb_s": "KB/s",
    "model_to_text_p50_ms": "ms",
    "model_to_text_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

SECONDS = "s"  # per-layer times are seconds per pass over the corpus
PER_LAYER = {
    "lexer.tokenize_s": SECONDS, "lexer.tokens": "count", "lexer.tokens_per_s": "1/s",
    "grammar.parse_text_s": SECONDS, "grammar.parse_self_s": SECONDS,
    "grammar.ast_objects": "count", "grammar.render_ast_s": SECONDS,
    "grammar.us_per_kb_large_over_small": "ratio",
    "grammar.parse_grammar_s": SECONDS, "grammar.check_grammar_s": SECONDS,
    "grammar.skeleton_s": SECONDS,
    "meta.validate_model_s": SECONDS, "meta.target_objects": "count",
    "emfatic.parse_metamodel_s": SECONDS, "emfatic.print_metamodel_s": SECONDS,
    "xf.parse_transformation_s": SECONDS, "xf.derive_ast_metamodel_s": SECONDS,
    "xf.format_trace_s": SECONDS, "xf.ast_classes": "count",
    "transform.build_plan_s": SECONDS, "transform.namespace_registry_s": SECONDS,
    "transform.ast_to_model_s": SECONDS, "transform.ast_to_model_self_s": SECONDS,
    "transform.resolver_calls": "count", "transform.resolver_s": SECONDS,
    "transform.resolve_hit_ratio": "ratio", "transform.placer_calls": "count",
    "transform.placer_s": SECONDS, "transform.us_per_kb_large_over_small": "ratio",
    "transform.model_to_ast_s": SECONDS, "transform.namer_calls": "count",
    "transform.namer_s": SECONDS,
    "modeltext.dump_s": SECONDS, "modeltext.dump_bytes": "count", "modeltext.load_s": SECONDS,
    "diagnostics.sort_s": SECONDS, "diagnostics.render_s": SECONDS,
    "diagnostics.errors": "count", "diagnostics.code.resolve-unresolved": "count",
    "diagnostics.code.other": "count",
    "trace.spans": "count", "trace.overhead_s": SECONDS, "trace.overhead_ratio": "ratio",
}

# span name -> the per-layer time metric that totals it
SPAN_TIMES = {
    "lexer.tokenize": "lexer.tokenize_s",
    "grammar.parse_text": "grammar.parse_text_s",
    "grammar.render_ast": "grammar.render_ast_s",
    "grammar.parse_grammar": "grammar.parse_grammar_s",
    "grammar.check_grammar": "grammar.check_grammar_s",
    "grammar.generate_grammar_skeleton": "grammar.skeleton_s",
    "meta.validate_model": "meta.validate_model_s",
    "emfatic.parse_metamodel": "emfatic.parse_metamodel_s",
    "emfatic.print_metamodel": "emfatic.print_metamodel_s",
    "xf.parse_transformation": "xf.parse_transformation_s",
    "xf.derive_ast_metamodel": "xf.derive_ast_metamodel_s",
    "xf.format_trace": "xf.format_trace_s",
    "transform.build_plan": "transform.build_plan_s",
    "transform.namespace_registry": "transform.namespace_registry_s",
    "transform.ast_to_model": "transform.ast_to_model_s",
    "transform.resolver": "transform.resolver_s",
    "transform.placer": "transform.placer_s",
    "transform.model_to_ast": "transform.model_to_ast_s",
    "transform.namer": "transform.namer_s",
    "modeltext.dump_model": "modeltext.dump_s",
    "modeltext.load_model": "modeltext.load_s",
    "diagnostics.sort": "diagnostics.sort_s",
    "diagnostics.render": "diagnostics.render_s",
}
COUNTS = ["lexer.tokens", "grammar.ast_objects", "meta.target_objects", "xf.ast_classes",
          "transform.resolver_calls", "transform.placer_calls", "transform.namer_calls",
          "modeltext.dump_bytes", "diagnostics.errors",
          "diagnostics.code.resolve-unresolved", "diagnostics.code.other"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed samples are inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rec, reference: float) -> dict[str, tuple[float, str]]:
    """name -> (value, note with the raw figure and sample count).

    Every document time sample is scaled to the reference speed:
    multiplied by ``reference`` over the reference_seconds() measured
    around it. Each document's time is then its fastest pass, or infinite
    if any pass failed; percentiles are over documents. Goodput is the KB
    of every document that never failed over the sum of every document's
    time. The raw figure is the same statistic without the scaling.
    set-up is not scaled: each language's fastest of its many loads, and
    the median over languages."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def fastest(samples, refs, scaled):
        return min(s * (reference / r if scaled else 1) for s, r in zip(samples, refs))

    loads = sum(map(len, rec.setup_s.values()))
    out = {"setup_s": (median([min(v) for v in rec.setup_s.values()]),
                       f"median over {len(rec.setup_s)} language(s) of the fastest of "
                       f"{loads} loads")}
    for path, samples in (("text_to_model", rec.t2m), ("model_to_text", rec.m2t)):
        kb = sum(min(b for _, b in v) for v in samples.values()) / 1024
        n = f"n={len(samples)} documents, fastest of {rec.passes} passes"
        figures = {}
        for scaled in (True, False):
            ms = [fastest([s for s, _ in v], rec.ref[d], scaled) * 1e3
                  if all(b for _, b in v) else math.inf for d, v in samples.items()]
            seconds = sum(fastest([s for s, _ in v], rec.ref[d], scaled)
                          for d, v in samples.items())
            figures[scaled] = (kb / seconds, percentile(ms, 0.50), percentile(ms, 0.95))
        for i, name in enumerate(("kb_s", "p50_ms", "p95_ms")):
            out[f"{path}_{name}"] = (figures[True][i], f"raw {figures[False][i]:.6g}; {n}")
    out["peak_rss_mb"] = (rss_mb, "n=1 process")
    return {k: out[k] for k in END_TO_END}


def per_layer(rec, tracer) -> dict[str, tuple[float, str]]:
    """Per-pass totals of the traced spans and counts, plus self times."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    ast_validate = 0.0
    by_doc: dict[str, dict[str, float]] = {"grammar.parse_text": {}, "transform.ast_to_model": {}}
    for i, (name, start, end, parent, doc, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child[i]
        if note == "ast":
            ast_validate += end - start
        if name in by_doc:
            by_doc[name][doc] = by_doc[name].get(doc, 0.0) + end - start
    n = rec.passes
    out = {}
    for span, metric in SPAN_TIMES.items():
        out[metric] = total.get(span, 0.0) / n
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0) / n
    out["lexer.tokens_per_s"] = out["lexer.tokens"] / out["lexer.tokenize_s"]
    out["grammar.parse_self_s"] = out["grammar.parse_text_s"] - out["lexer.tokenize_s"] \
        - ast_validate / n
    out["transform.ast_to_model_self_s"] = self_time.get("transform.ast_to_model", 0.0) / n
    calls = tracer.counts.get("transform.resolver_calls", 0)
    out["transform.resolve_hit_ratio"] = (
        tracer.counts.get("transform.resolve_hits", 0) / calls if calls else 0.0)
    out["grammar.us_per_kb_large_over_small"] = large_over_small(
        by_doc["grammar.parse_text"], rec.sizes)
    out["transform.us_per_kb_large_over_small"] = large_over_small(
        by_doc["transform.ast_to_model"], rec.sizes)
    out["trace.spans"] = len(spans) / n
    out["trace.overhead_s"] = (rec.traced_s - rec.untraced_s) / n
    out["trace.overhead_ratio"] = rec.traced_s / rec.untraced_s - 1 if rec.untraced_s else 0.0
    note = f"per pass, n={n} passes"
    return {k: (out[k], note) for k in PER_LAYER}


def large_over_small(seconds_by_doc: dict[str, float], sizes: dict[str, int]) -> float:
    """Time per KB of the largest quarter of documents over that of the
    smallest quarter: 1 when cost is linear in size. 0 without samples."""
    docs = sorted((sizes[d], s) for d, s in seconds_by_doc.items() if d in sizes)
    k = len(docs) // 4
    if k == 0:
        return 0.0
    small, large = docs[:k], docs[-k:]
    per_kb = lambda part: sum(s for _, s in part) / sum(b for b, _ in part)  # noqa: E731
    return per_kb(large) / per_kb(small)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmdsl" / "__init__.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"perfbench: no mmdsl sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from chain import Tracer
    from workloads import REFERENCE_SECONDS, WORKLOADS, Record

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    rec = Record()
    start = perf_counter()
    deadline = start + args.seconds
    while rec.passes == 0 or perf_counter() < deadline:
        first = rec.passes == 0  # the first pass, and every traced pass, runs whole
        workload.run_pass(rec, first, tracer, None if first or tracer else deadline)
        rec.passes += 1
    measured = perf_counter() - start

    metrics = per_layer(rec, tracer) if tracer else end_to_end(rec, REFERENCE_SECONDS)
    units = PER_LAYER if tracer else END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec.passes} passes over {len(workload.docs)} documents in {measured:.1f} s")
    print(f"corpus_sha256 {workload.corpus.hexdigest()}")
    print(f"output_sha256 {workload.outputs.hexdigest()}")
    for name, (value, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} ({note})")
    rate = len(rec.failed) / len(rec.attempted)
    print(f"  {'error_rate':<40} {rate:>14.6g} {'ratio':<6} "
          f"(failed {len(rec.failed)} of {len(rec.attempted)} operations attempted)")
    for cause, ops in sorted(rec.causes.items()):
        print(f"  failed: {cause} x{len(ops)}")
    for problem in rec.mismatches[:20]:
        print(f"  MISMATCH {problem}", file=sys.stderr)
    if tracer:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not rec.mismatches,
        "attempted": len(rec.attempted),
        "failed": len(rec.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
