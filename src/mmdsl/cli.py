"""Batch driver for the text-to-model pipeline and its reverse.

Subcommands mirror the pipeline stages: derive (target metamodel +
transformation script -> AST metamodel + trace), grammar-init (AST
metamodel -> grammar skeleton), parse (text -> AST model), transform
(AST model -> target model), render (AST model -> text), to-text
(target model -> text), and pipeline (everything, from a config file).

Every command is a chain of the stage functions below, each of which
returns its result or raises DiagnosticError. ``main`` is the one runner:
a command stops at its first failing stage and its diagnostics are
printed; ``pipeline`` reports a failing input and goes on with the next.
``pipeline`` writes its first output only after its set-up stages
(derivation, grammar, plan, registry) have all succeeded. The outputs of
one stage (``derive``'s metamodel and trace; ``pipeline``'s AST metamodel,
trace and skeleton) are written all or none.
A file that cannot be read (missing, unreadable, not UTF-8) or written
(missing directory, no permission) is an ``io`` diagnostic.

Every command exits 0 iff no error diagnostics were emitted; diagnostics
go to stderr as ``file:line:col: severity[code]: message`` lines, or as
JSON lines with --diagnostics-json. Outputs are byte-identical across
repeated runs on identical inputs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .diagnostics import (
    DiagnosticError, SourceLocation, error, has_errors, raise_any, sort_diagnostics,
)
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

    def check(self, diagnostics):
        """Emit ``diagnostics`` if they are all warnings; raise them otherwise."""
        if has_errors(diagnostics):
            raise DiagnosticError(diagnostics)
        self.emit(diagnostics)


def _io_error(verb: str, path, exc: OSError | ValueError) -> DiagnosticError:
    """An OSError, text that is not UTF-8, or a ValueError such as a path
    holding a NUL byte, as an ``io`` diagnostic located at ``path``."""
    if isinstance(exc, UnicodeDecodeError):
        why = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    else:
        why = getattr(exc, "strerror", None) or str(exc)
    return DiagnosticError([error("parse", "io", f"cannot {verb} {path}: {why}",
                                  location=SourceLocation(str(path)))])


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise _io_error("read", path, exc) from None


def _write(*outputs) -> None:
    """Write each ``(path, text)`` of ``outputs``, all of them or none. Each
    text goes to a temporary file next to its path; the temporaries replace
    their paths only once every one is written, and are removed on failure."""
    staged, path = [], None
    try:
        for path, text in outputs:
            dest = Path(path)
            if dest.exists() and not dest.is_file():
                # a rename cannot replace a directory, and must not replace a device
                raise OSError(errno.EINVAL, "not a regular file")
            tmp = dest.with_name(f".{dest.name}.{os.getpid()}.tmp")
            with open(tmp, "x", encoding="utf-8") as f:
                staged.append((tmp, path))
                f.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        raise _io_error("write", path, exc) from None
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _metamodel(path, name: str | None = None):
    return parse_metamodel(_read(path), name or mm_name_from_path(Path(path)),
                           file=str(path))


def _derive(target, xf):
    """The AST metamodel and trace of ``target`` under the script at ``xf``,
    or under the default mapping if ``xf`` is None."""
    t = parse_transformation(_read(xf), target, file=str(xf)) if xf else Transformation([])
    return derive_ast_metamodel(target, t)


def _grammar(text: str, path, ast):
    """The checked grammar ``text``, located at ``path`` in diagnostics."""
    g = parse_grammar(text, ast, file=str(path))
    problems = check_grammar(g)
    raise_any(problems)
    return g


def _plan(args):
    target = _metamodel(args.target)
    ast = _metamodel(args.ast)
    return target, ast, build_plan(parse_trace(_read(args.trace), file=args.trace),
                                   target, ast)


def _registry(resolver: str, config, target, ast):
    """The resolver registry named ``resolver``, set up from the config file
    at ``config`` (no settings if None)."""
    if resolver != "namespace":
        raise DiagnosticError([error("resolve", "config",
                                     f"unknown resolver {resolver!r}; only 'namespace' is "
                                     f"built in")])
    settings = parse_config(_read(config), file=str(config)) if config else {}
    return namespace_registry(settings, target, ast)


def _model(path, mm, extra=()):
    model = load_model(_read(path), mm, extra_metamodels=extra, file=str(path))
    raise_any(validate_model(model))
    return model


def cmd_derive(args, reporter) -> None:
    ast, trace = _derive(_metamodel(args.target, args.name), args.xf)
    _write((args.out, print_metamodel(ast)), (args.trace, format_trace(trace)))


def cmd_grammar_init(args, reporter) -> None:
    _write((args.out, generate_grammar_skeleton(_metamodel(args.ast))))


def cmd_parse(args, reporter) -> None:
    g = _grammar(_read(args.grammar), args.grammar, _metamodel(args.ast))
    _write((args.out, dump_model(parse_text(_read(args.input), g, file=args.input))))


def cmd_transform(args, reporter) -> None:
    target, ast, plan = _plan(args)
    registry = _registry(args.resolver, args.resolver_config, target, ast)
    model, diags = transform_ast_to_model(_model(args.input, ast, [target]), plan, registry)
    reporter.check(diags)
    _write((args.out, dump_model(model)))


def cmd_render(args, reporter) -> None:
    ast = _metamodel(args.ast)
    g = _grammar(_read(args.grammar), args.grammar, ast)
    print(render_ast(_model(args.input, ast), g), end="")


def cmd_to_text(args, reporter) -> None:
    target, ast, plan = _plan(args)
    registry = _registry(args.resolver, args.resolver_config, target, ast)
    g = _grammar(_read(args.grammar), args.grammar, ast)
    ast_model, diags = transform_model_to_ast(_model(args.input, target, [ast]), plan,
                                              registry)
    reporter.check(diags)
    print(render_ast(ast_model, g), end="")


def cmd_pipeline(args, reporter) -> None:
    cfg_path = Path(args.config)
    cfg = parse_config(_read(cfg_path), file=str(cfg_path))
    if "target" not in cfg:
        raise DiagnosticError([error("parse", "config",
                                     "pipeline config is missing the 'target' key")])
    base = cfg_path.parent
    target_path = base / cfg["target"]
    out_dir = base / cfg.get("out", "out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise _io_error("create", out_dir, exc) from None
    stem = mm_name_from_path(target_path)

    target = _metamodel(target_path)
    ast, trace = _derive(target, base / cfg["xf"] if cfg.get("xf") else None)
    if cfg.get("grammar"):
        grammar_path, skeleton = base / cfg["grammar"], None
    else:
        grammar_path, skeleton = out_dir / f"{stem}.gr", generate_grammar_skeleton(ast)
    g = _grammar(_read(grammar_path) if skeleton is None else skeleton, grammar_path, ast)
    plan = build_plan(trace, target, ast)
    rc = cfg.get("resolver.config")
    registry = _registry("namespace", base / rc if rc else None, target, ast)
    outputs = [(out_dir / f"{stem}.ast.mm", print_metamodel(ast)),
               (out_dir / f"{stem}.trace", format_trace(trace))]
    if skeleton is not None:
        outputs.append((grammar_path, skeleton))
    _write(*outputs)

    inputs = [p.strip() for p in cfg.get("inputs", "").split(",") if p.strip()]
    for rel in inputs:
        in_path = base / rel
        in_stem = in_path.name.rsplit(".", 1)[0]
        try:
            ast_model = parse_text(_read(in_path), g, file=str(in_path))
            _write((out_dir / f"{in_stem}.astm", dump_model(ast_model)))
            model, diags = transform_ast_to_model(ast_model, plan, registry)
            reporter.check(diags)
            _write((out_dir / f"{in_stem}.model", dump_model(model)))
        except DiagnosticError as exc:
            reporter.emit(exc.diagnostics)


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
    try:
        args.func(args, reporter)
    except DiagnosticError as exc:
        reporter.emit(exc.diagnostics)
    return 1 if reporter.failed else 0


if __name__ == "__main__":
    sys.exit(main())
