"""The text<->model chain as the benchmark drives it, one public mmdsl call
at a time, each routed through a tracer.

``Direct`` calls straight through and is used for every end-to-end
number. ``Tracer`` records one span per call (name ``layer.function``,
start, end, parent span, document id) and keeps them in memory until the
run writes them out. Resolver, placer and namer callbacks are wrapped on
the registry from the outside, so their spans nest inside the transform
span that called them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from mmdsl import (
    DiagnosticError, build_plan, check_grammar, derive_ast_metamodel, dump_model,
    generate_grammar_skeleton, load_model, namespace_registry, parse_config,
    parse_grammar, parse_metamodel, parse_text, parse_transformation, render_ast,
    sort_diagnostics, transform_ast_to_model, transform_model_to_ast,
)
from mmdsl import transform as transform_module
from mmdsl.diagnostics import has_errors


class Direct:
    """Untraced calls: no recording, one extra Python call per stage."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Span recorder. A span is ``[name, start, end, parent, doc, note]``;
    parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc: str | None = None
        self.counts: dict[str, int] = {}
        self.origin = perf_counter()

    def call(self, name, fn, *args, note=None, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.doc, note]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap_registry(self, registry):
        """Route the registry's pluggable callbacks through spans."""
        resolver = registry.default_resolver

        def traced_resolver(ctx):
            result = self.call("transform.resolver", resolver, ctx)
            self.count("transform.resolver_calls")
            if result is not None:
                self.count("transform.resolve_hits")
            return result

        registry.default_resolver = traced_resolver
        for key, placer in list(registry.placers.items()):
            registry.placers[key] = self._counted("transform.placer", placer)
        namer = registry.default_namer or transform_module.default_namer
        registry.default_namer = self._counted("transform.namer", namer)

    def _counted(self, name, fn):
        def traced(*args):
            self.count(name + "_calls")
            return self.call(name, fn, *args)
        return traced

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, doc, note in self.spans:
                out.write(json.dumps({
                    "name": name, "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9), "parent": parent, "doc": doc,
                    "note": note}) + "\n")


# ---------------------------------------------------------------------------
# Set-up: load one language


@dataclass
class Language:
    target: object
    ast: object
    trace: object
    grammar: object
    plan: object
    registry: object
    problems: list


def load_language(t, mm_text: str, mm_name: str, xf_text: str, gr_text: str | None,
                  cfg_text: str) -> Language:
    """parse_metamodel -> parse_transformation -> derive_ast_metamodel ->
    parse_grammar (of the skeleton when gr_text is None) + check_grammar ->
    build_plan -> namespace_registry."""
    target = t.call("emfatic.parse_metamodel", parse_metamodel, mm_text, mm_name)
    script = t.call("xf.parse_transformation", parse_transformation, xf_text, target)
    ast, trace = t.call("xf.derive_ast_metamodel", derive_ast_metamodel, target, script)
    if gr_text is None:
        gr_text = t.call("grammar.generate_grammar_skeleton", generate_grammar_skeleton, ast)
    g = t.call("grammar.parse_grammar", parse_grammar, gr_text, ast)
    problems = t.call("grammar.check_grammar", check_grammar, g)
    plan = t.call("transform.build_plan", build_plan, trace, target, ast)
    registry = t.call("transform.namespace_registry", namespace_registry,
                      parse_config(cfg_text), target, ast)
    return Language(target, ast, trace, g, plan, registry, problems)


# ---------------------------------------------------------------------------
# Per-document paths; the caller times each call.


@dataclass
class Verdict:
    text: str  # the dump, or the sorted, rendered diagnostics
    ast_model: object | None
    model: object | None  # the target model (the AST model when not transformed)
    diagnostics: list


def text_to_model(t, text: str, lang: Language, transform: bool = True) -> Verdict:
    """parse_text -> transform_ast_to_model -> dump_model, or the sorted,
    rendered diagnostics when a stage reports errors. Without ``transform``
    the verdict is the AST model and its dump."""
    ast_model = None
    try:
        ast_model = t.call("grammar.parse_text", parse_text, text, lang.grammar)
        if not transform:
            return Verdict(t.call("modeltext.dump_model", dump_model, ast_model),
                           ast_model, ast_model, [])
        model, diags = t.call("transform.ast_to_model", transform_ast_to_model,
                              ast_model, lang.plan, lang.registry)
    except DiagnosticError as exc:
        model, diags = None, exc.diagnostics
    if has_errors(diags):
        ordered = t.call("diagnostics.sort", sort_diagnostics, diags)
        rendered = [t.call("diagnostics.render", d.render) for d in ordered]
        return Verdict("\n".join(rendered) + "\n", ast_model, None, diags)
    return Verdict(t.call("modeltext.dump_model", dump_model, model), ast_model, model, diags)


def ast_to_text(t, astm: str, lang: Language) -> str:
    """load_model(.astm) -> render_ast: the AST-level reverse path."""
    ast_model = t.call("modeltext.load_model", load_model, astm, lang.ast)
    return t.call("grammar.render_ast", render_ast, ast_model, lang.grammar)


def model_to_text(t, dump: str, lang: Language) -> str:
    """load_model(.model) -> transform_model_to_ast -> render_ast: the
    trace-driven reverse path. Reverse diagnostics are a failure."""
    model = t.call("modeltext.load_model", load_model, dump, lang.target,
                   extra_metamodels=[lang.ast])
    ast_model, diags = t.call("transform.model_to_ast", transform_model_to_ast,
                              model, lang.plan, lang.registry)
    if diags:
        raise ReverseError("; ".join(d.render() for d in diags))
    return t.call("grammar.render_ast", render_ast, ast_model, lang.grammar)


class ReverseError(Exception):
    """The reverse transform reported diagnostics for a valid model."""
