"""Parser and printer for the Emfatic-like `.mm` metamodel syntax.

Supported subset: ``[abstract] class Name [extends A, B] { features }`` with
features ``attr <type> <name> [= default];``, ``val <type>[mult] <name>;``
(containment) and ``ref <type>[mult] <name>;`` (cross). Multiplicity is
``*``, ``n`` or ``n..m|*``; the default is 0..1. Type names resolve against
the file's own classes first, then the builtin ecore package; ``ecore::``
qualification forces the builtin. Feature names may be keywords (``abstract``
appears as a feature name in practice). One metamodel per file.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import SourceLocation, error, raise_any
from .lexer import Lexer, Token, TokenStream, format_literal
from .meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, MetaReference, builtin_ecore,
    validate_metamodel, value_fits,
)

KEYWORDS = {"abstract", "class", "extends", "attr", "val", "ref", "true", "false"}
SYMBOLS = {"{", "}", "[", "]", ";", ",", "=", "*", "..", "::", "-"}

_LEXER = Lexer(reserved=KEYWORDS, symbols=SYMBOLS)


@dataclass
class FeatureDecl:
    kind: str  # attr | val | ref
    type_name: str
    lower: int
    upper: object
    name: str
    default: object
    type_loc: SourceLocation
    name_loc: SourceLocation


def parse_qname(stream: TokenStream) -> tuple[str, SourceLocation]:
    tok = stream.expect("ID")
    name = tok.text
    while stream.accept_kw("::"):
        name += "::" + stream.expect("ID").text
    return name, tok.location


def parse_qnames(stream: TokenStream) -> list[tuple[str, SourceLocation]]:
    """One or more qualified names, separated by ','."""
    names = [parse_qname(stream)]
    while stream.accept_kw(","):
        names.append(parse_qname(stream))
    return names


def parse_name_token(stream: TokenStream) -> Token:
    """A feature-name position: plain identifier or a reserved word."""
    tok = stream.current
    if tok.kind == "ID" or (tok.kind == "KW" and tok.text.isidentifier()):
        return stream.next()
    stream.fail(f"expected a name, found '{tok.text}'")


def parse_multiplicity(stream: TokenStream) -> tuple[int, object]:
    """The bracketed part of ``[*]``, ``[n]`` or ``[n..m|*]`` (brackets already
    handled by the caller returns (lower, upper))."""
    if stream.accept_kw("*"):
        return 0, UNBOUNDED
    lo = stream.expect("INT").value
    if stream.accept_kw(".."):
        if stream.accept_kw("*"):
            return lo, UNBOUNDED
        return lo, stream.expect("INT").value
    return lo, lo


def parse_feature_decl(stream: TokenStream) -> FeatureDecl:
    kind_tok = stream.next()
    if kind_tok.text not in ("attr", "val", "ref"):
        stream.fail(f"expected 'attr', 'val' or 'ref', found '{kind_tok.text}'", token=kind_tok)
    type_name, type_loc = parse_qname(stream)
    lower, upper = 0, 1
    if stream.accept_kw("["):
        lower, upper = parse_multiplicity(stream)
        stream.expect_kw("]")
    name_tok = parse_name_token(stream)
    default = None
    if stream.accept_kw("="):
        default = _parse_literal(stream)
    stream.expect_kw(";")
    return FeatureDecl(kind_tok.text, type_name, lower, upper,
                       name_tok.text, default, type_loc, name_tok.location)


def _parse_literal(stream: TokenStream):
    tok = stream.current
    if tok.kind == "STRING" or tok.kind == "INT":
        return stream.next().value
    if stream.accept_kw("-"):
        return -stream.expect("INT").value
    if tok.is_kw("true") or tok.is_kw("false"):
        return stream.next().text == "true"
    stream.fail("expected a literal default value")


@dataclass
class _ClassDecl:
    name: str
    abstract: bool
    supertypes: list[tuple[str, SourceLocation]]
    features: list[FeatureDecl]
    loc: SourceLocation


def parse_metamodel(text: str, name: str, file: str = "<metamodel>") -> Metamodel:
    """Parse `.mm` source into a validated Metamodel named ``name``.

    Raises DiagnosticError with source locations on syntax errors, unresolved
    type names, or metamodel invariant violations."""
    stream = TokenStream(_LEXER.tokenize(text, file))
    decls: list[_ClassDecl] = []
    while not stream.at("EOF"):
        abstract = stream.accept_kw("abstract")
        stream.expect_kw("class")
        cname = stream.expect("ID")
        supers = parse_qnames(stream) if stream.accept_kw("extends") else []
        stream.expect_kw("{")
        features = []
        while not stream.at_kw("}"):
            features.append(parse_feature_decl(stream))
        stream.expect_kw("}")
        decls.append(_ClassDecl(cname.text, abstract, supers, features, cname.location))

    mm = Metamodel(name)
    classes: dict[str, MetaClass] = {}
    class_locs: dict[str, list[SourceLocation]] = {}  # every declaration of a name
    diags = []
    for d in decls:
        cls = MetaClass(d.name, abstract=d.abstract)
        classes.setdefault(d.name, cls)
        class_locs.setdefault(d.name, []).append(d.loc)
        mm.classifiers.append(cls)

    ecore = builtin_ecore()

    def resolve(type_name: str, loc, want: str):
        if type_name.startswith("ecore::"):
            c = ecore.classifier(type_name.split("::", 1)[1])
        else:
            c = classes.get(type_name) or ecore.classifier(type_name)
        if c is None:
            diags.append(error("metamodel", "name-unresolved",
                               f"unknown type name {type_name!r}", location=loc))
            return None
        if c.is_class != (want == "class"):
            why = ("a class; attributes need a datatype" if c.is_class
                   else "a datatype; a class is required here")
            diags.append(error("metamodel", "mm-bad-type", f"{type_name!r} is {why}", location=loc))
            return None
        return c

    for d, cls in zip(decls, mm.classifiers):
        for sname, sloc in d.supertypes:
            sup = resolve(sname, sloc, "class")
            if sup is not None:
                cls.supertypes.append(sup)
        for fd in d.features:
            if fd.kind == "attr":
                dtype = resolve(fd.type_name, fd.type_loc, "datatype")
                if dtype is None:
                    continue
                if fd.default is not None and not value_fits(fd.default, dtype):
                    diags.append(error("metamodel", "mm-bad-default",
                                       f"default {fd.default!r} does not fit {dtype.name}",
                                       location=fd.name_loc))
                cls.features.append(MetaAttribute(fd.name, fd.lower, fd.upper,
                                                  type=dtype, default=fd.default))
            else:
                ctype = resolve(fd.type_name, fd.type_loc, "class")
                if ctype is None:
                    continue
                if fd.default is not None:
                    diags.append(error("metamodel", "syntax",
                                       "references cannot carry default values",
                                       location=fd.name_loc))
                cls.features.append(MetaReference(fd.name, fd.lower, fd.upper,
                                                  type=ctype, containment=(fd.kind == "val")))

    raise_any(diags)

    # Re-anchor structural violations on the declaration of the classifier
    # each one names in its path, /<mm>/<classifier>: its first declaration,
    # or for each duplicate of a name the next one, in order.
    later = {name: iter(locs[1:]) for name, locs in class_locs.items()}
    for d in validate_metamodel(mm):
        name = d.path.removeprefix(f"/{mm.name}/")
        loc = (next(later[name]) if d.code == "mm-duplicate-classifier"
               else class_locs.get(name, [None])[0])
        diags.append(error("metamodel", d.code, d.message,
                           location=loc or SourceLocation(file, 1, 1)))
    raise_any(diags)
    return mm


def print_metamodel(mm: Metamodel) -> str:
    """Deterministic `.mm` text; parse_metamodel(print_metamodel(mm)) is
    structurally equal to mm. Classifier order is preserved."""
    own = {c.name for c in mm.classifiers}
    ecore_names = {c.name for c in builtin_ecore().classifiers}

    def type_ref(t) -> str:
        # qualify builtins only when shadowed by a same-named local classifier
        if t.name in ecore_names and any(c is t for c in builtin_ecore().classifiers):
            if t.name in own:
                return f"ecore::{t.name}"
        return t.name

    def mult(f) -> str:
        if f.lower == 0 and f.upper == 1:
            return ""
        if f.lower == 0 and f.upper is UNBOUNDED:
            return "[*]"
        if f.upper is UNBOUNDED:
            return f"[{f.lower}..*]"
        if f.lower == f.upper:
            return f"[{f.lower}]"
        return f"[{f.lower}..{f.upper}]"

    lines = []
    for c in mm.classifiers:
        if not c.is_class:
            continue
        head = "abstract class" if c.abstract else "class"
        ext = ""
        if c.supertypes:
            ext = " extends " + ", ".join(type_ref(s) for s in c.supertypes)
        lines.append(f"{head} {c.name}{ext} {{")
        for f in c.features:
            kind = "attr" if f.is_attribute else ("val" if f.containment else "ref")
            default = ""
            if f.is_attribute and f.default is not None:
                default = f" = {format_literal(f.default)}"
            lines.append(f"    {kind} {type_ref(f.type)}{mult(f)} {f.name}{default};")
        lines.append("}")
    return "\n".join(lines) + "\n"
