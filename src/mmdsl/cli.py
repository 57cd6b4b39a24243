"""Batch driver for the text-to-model pipeline and its reverse.

Subcommands mirror the pipeline stages: derive (target metamodel +
transformation script -> AST metamodel + trace), grammar-init (AST
metamodel -> grammar skeleton), parse (text -> AST model), transform
(AST model -> target model), render (AST model -> text), to-text
(target model -> text), and pipeline (everything, from a config file).

Every command exits 0 iff no error diagnostics were emitted; diagnostics
go to stderr as ``file:line:col: severity[code]: message`` lines, or as
JSON lines with --diagnostics-json. Outputs are byte-identical across
repeated runs on identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import DiagnosticError, has_errors, sort_diagnostics
from .emfatic import parse_metamodel, print_metamodel
from .grammar import (
    check_grammar, generate_grammar_skeleton, parse_grammar, parse_text,
    render_ast,
)
from .meta import validate_model
from .modeltext import dump_model, load_model
from .transform import (
    build_plan, namespace_registry, parse_config, transform_ast_to_model,
    transform_model_to_ast,
)
from .xf import (
    Transformation, derive_ast_metamodel, format_trace, parse_trace,
    parse_transformation,
)


def mm_name_from_path(path: Path) -> str:
    stem = path.name
    if stem.endswith(".mm"):
        stem = stem[: -len(".mm")]
    cleaned = "".join(c if (c.isalnum() or c == "_") else "_" for c in stem)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "m_" + cleaned
    return cleaned


class _Reporter:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.failed = False

    def emit(self, diagnostics):
        for d in sort_diagnostics(diagnostics):
            line = d.to_json() if self.as_json else d.render()
            print(line, file=sys.stderr)
        if has_errors(diagnostics):
            self.failed = True


def _read(path: Path, reporter) -> str | None:
    try:
        return path.read_text()
    except OSError as exc:
        from .diagnostics import error
        reporter.emit([error("parse", "io", f"cannot read {path}: {exc.strerror}")])
        return None


def _load_metamodel(path: Path, reporter, name: str | None = None):
    text = _read(path, reporter)
    if text is None:
        return None
    try:
        return parse_metamodel(text, name or mm_name_from_path(path), file=str(path))
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return None


def cmd_derive(args, reporter) -> None:
    target = _load_metamodel(Path(args.target), reporter, args.name)
    if target is None:
        return
    if args.xf:
        text = _read(Path(args.xf), reporter)
        if text is None:
            return
        try:
            t = parse_transformation(text, target, file=args.xf)
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)
            return
    else:
        t = Transformation([])
    try:
        ast, trace = derive_ast_metamodel(target, t)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    Path(args.out).write_text(print_metamodel(ast))
    Path(args.trace).write_text(format_trace(trace))


def cmd_grammar_init(args, reporter) -> None:
    ast = _load_metamodel(Path(args.ast), reporter)
    if ast is None:
        return
    try:
        text = generate_grammar_skeleton(ast)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    Path(args.out).write_text(text)


def _load_grammar(grammar_path: Path, ast, reporter):
    text = _read(grammar_path, reporter)
    if text is None:
        return None
    try:
        g = parse_grammar(text, ast, file=str(grammar_path))
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return None
    problems = check_grammar(g)
    if problems:
        reporter.emit(problems)
        return None
    return g


def cmd_parse(args, reporter) -> None:
    ast = _load_metamodel(Path(args.ast), reporter)
    if ast is None:
        return
    g = _load_grammar(Path(args.grammar), ast, reporter)
    if g is None:
        return
    text = _read(Path(args.input), reporter)
    if text is None:
        return
    try:
        model = parse_text(text, g, file=args.input)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    Path(args.out).write_text(dump_model(model))


def _registry_for(args, target, ast, reporter):
    if args.resolver != "namespace":
        from .diagnostics import error
        reporter.emit([error("resolve", "config",
                             f"unknown resolver {args.resolver!r}; only 'namespace' is "
                             f"built in")])
        return None
    config = {}
    if args.resolver_config:
        text = _read(Path(args.resolver_config), reporter)
        if text is None:
            return None
        try:
            config = parse_config(text)
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)
            return None
    try:
        return namespace_registry(config, target, ast)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return None


def _load_plan(args, reporter):
    target = _load_metamodel(Path(args.target), reporter)
    ast = _load_metamodel(Path(args.ast), reporter)
    trace_text = _read(Path(args.trace), reporter)
    if None in (target, ast, trace_text):
        return None
    try:
        trace = parse_trace(trace_text, file=args.trace)
        plan = build_plan(trace, target, ast)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return None
    return target, ast, plan


def cmd_transform(args, reporter) -> None:
    loaded = _load_plan(args, reporter)
    if loaded is None:
        return
    target, ast, plan = loaded
    registry = _registry_for(args, target, ast, reporter)
    if registry is None:
        return
    text = _read(Path(args.input), reporter)
    if text is None:
        return
    try:
        ast_model = load_model(text, ast, extra_metamodels=[target], file=args.input)
        problems = validate_model(ast_model)
        if problems:
            reporter.emit(problems)
            return
        model, diags = transform_ast_to_model(ast_model, plan, registry)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    reporter.emit(diags)
    if not has_errors(diags):
        Path(args.out).write_text(dump_model(model))


def cmd_render(args, reporter) -> None:
    ast = _load_metamodel(Path(args.ast), reporter)
    if ast is None:
        return
    g = _load_grammar(Path(args.grammar), ast, reporter)
    if g is None:
        return
    text = _read(Path(args.input), reporter)
    if text is None:
        return
    try:
        model = load_model(text, ast, file=args.input)
        problems = validate_model(model)
        if problems:
            reporter.emit(problems)
            return
        print(render_ast(model, g), end="")
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)


def cmd_to_text(args, reporter) -> None:
    loaded = _load_plan(args, reporter)
    if loaded is None:
        return
    target, ast, plan = loaded
    registry = _registry_for(args, target, ast, reporter)
    if registry is None:
        return
    g = _load_grammar(Path(args.grammar), ast, reporter)
    if g is None:
        return
    text = _read(Path(args.input), reporter)
    if text is None:
        return
    try:
        model = load_model(text, target, extra_metamodels=[ast], file=args.input)
        ast_model, diags = transform_model_to_ast(model, plan, registry)
        reporter.emit(diags)
        if not has_errors(diags):
            print(render_ast(ast_model, g), end="")
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)


def cmd_pipeline(args, reporter) -> None:
    cfg_path = Path(args.config)
    text = _read(cfg_path, reporter)
    if text is None:
        return
    try:
        cfg = parse_config(text)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    base = cfg_path.parent

    def need(key):
        if key not in cfg:
            from .diagnostics import error
            reporter.emit([error("parse", "config",
                                 f"pipeline config is missing the {key!r} key")])
            return None
        return base / cfg[key]

    target_path = need("target")
    if target_path is None:
        return
    out_dir = base / cfg.get("out", "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = mm_name_from_path(target_path)

    target = _load_metamodel(target_path, reporter)
    if target is None:
        return
    t = Transformation([])
    if cfg.get("xf"):
        xf_text = _read(base / cfg["xf"], reporter)
        if xf_text is None:
            return
        try:
            t = parse_transformation(xf_text, target, file=cfg["xf"])
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)
            return
    try:
        ast, trace = derive_ast_metamodel(target, t)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    (out_dir / f"{stem}.ast.mm").write_text(print_metamodel(ast))
    (out_dir / f"{stem}.trace").write_text(format_trace(trace))

    if cfg.get("grammar"):
        g = _load_grammar(base / cfg["grammar"], ast, reporter)
        if g is None:
            return
    else:
        try:
            skeleton = generate_grammar_skeleton(ast)
            (out_dir / f"{stem}.gr").write_text(skeleton)
            g = parse_grammar(skeleton, ast, file=f"{stem}.gr")
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)
            return

    try:
        plan = build_plan(trace, target, ast)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return
    rc_text = ""
    if cfg.get("resolver.config"):
        rc_text = _read(base / cfg["resolver.config"], reporter)
        if rc_text is None:
            return
    try:
        registry = namespace_registry(parse_config(rc_text), target, ast)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
        return

    inputs = [p.strip() for p in cfg.get("inputs", "").split(",") if p.strip()]
    for rel in inputs:
        in_path = base / rel
        in_stem = in_path.name.rsplit(".", 1)[0]
        text = _read(in_path, reporter)
        if text is None:
            continue
        try:
            ast_model = parse_text(text, g, file=str(in_path))
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)
            continue
        (out_dir / f"{in_stem}.astm").write_text(dump_model(ast_model))
        try:
            model, diags = transform_ast_to_model(ast_model, plan, registry)
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)
            continue
        reporter.emit(diags)
        if not has_errors(diags):
            (out_dir / f"{in_stem}.model").write_text(dump_model(model))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdsl",
        description="Metamodel-first DSL workbench: derive AST metamodels, parse DSL "
                    "text into models, and render models back to text.")
    parser.add_argument("--diagnostics-json", action="store_true",
                        help="emit diagnostics as JSON lines on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive the AST metamodel and trace")
    p.add_argument("--target", required=True, help="target metamodel (.mm)")
    p.add_argument("--xf", help="transformation script (.xf); default mapping if omitted")
    p.add_argument("--out", required=True, help="derived AST metamodel output (.mm)")
    p.add_argument("--trace", required=True, help="trace output (.trace)")
    p.add_argument("--name", help="metamodel name (default: from the file name)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("grammar-init", help="generate an initial grammar skeleton")
    p.add_argument("--ast", required=True, help="AST metamodel (.mm)")
    p.add_argument("--out", required=True, help="grammar output (.gr)")
    p.set_defaults(func=cmd_grammar_init)

    p = sub.add_parser("parse", help="parse DSL text into an AST model")
    p.add_argument("--grammar", required=True)
    p.add_argument("--ast", required=True)
    p.add_argument("input")
    p.add_argument("--out", required=True, help="AST model dump output (.astm)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("transform", help="transform an AST model into a target model")
    p.add_argument("--trace", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ast", required=True)
    p.add_argument("--resolver", default="namespace")
    p.add_argument("--resolver-config")
    p.add_argument("input")
    p.add_argument("--out", required=True, help="target model dump output (.model)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("render", help="render an AST model back to DSL text")
    p.add_argument("--grammar", required=True)
    p.add_argument("--ast", required=True)
    p.add_argument("input")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("to-text", help="render a target model back to DSL text")
    p.add_argument("--trace", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ast", required=True)
    p.add_argument("--grammar", required=True)
    p.add_argument("--resolver", default="namespace")
    p.add_argument("--resolver-config")
    p.add_argument("input")
    p.set_defaults(func=cmd_to_text)

    p = sub.add_parser("pipeline", help="run derive/parse/transform from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    reporter = _Reporter(args.diagnostics_json)
    args.func(args, reporter)
    return 1 if reporter.failed else 0


if __name__ == "__main__":
    sys.exit(main())
