"""Grammar notation interpreted in both directions.

A grammar file (`.gr`) holds rules over an AST metamodel:

    Name : body ;                     -- concrete rule, Name is an AST class
    Abstract Name : Alt1 | Alt2 ;     -- dispatch rule for an abstract class

Rule bodies combine double-quoted keywords, assignments (``feat=Callee``,
``feat+=Callee``, boolean flags ``feat?"kw"``), parenthesized groups with
``|`` alternation, ``?`` optionals and ``*``/``+`` repetitions. Callees are
other rules or the terminals ID, STRING, INT.

The same rules drive three interpreters: a single-token-lookahead
recursive-descent parser producing models (parse_text), a deterministic
renderer producing text (render_ast), and a random model generator used by
round-trip tests. check_grammar enforces what they need: no reachable left
recursion, no reachable rule that derives no finite text, and disjoint
first-token sets at every choice point (alternatives, optionals and repetition
continuations are checked against their local follow in the enclosing sequence).

The facts they read are compiled once per grammar (Grammar.analysis): by
fixpoint, each rule's FIRST set and whether it can be empty; and on every
element its ``first`` set, ``nullable`` and ``assigns``, the assignments
below it in text order, each built from its children's. So parsing or
rendering a document never walks a subtree to ask what can start it, or
what it assigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, SourceLocation, error
from .lexer import Lexer, Token, TokenStream, escape_string
from .meta import (
    MetaClass, Metamodel, Model, ModelObject, Tree, is_subtype, miscount,
    validate_metamodel, validate_model,
)

TERMINALS = ("ID", "STRING", "INT")


# ---------------------------------------------------------------------------
# Grammar model


class _Facts:
    """What _Analysis compiles onto every element of a grammar: ``first``,
    ``nullable`` and ``assigns``."""

    __slots__ = ("first", "nullable", "assigns")


@dataclass(slots=True)
class Keyword(_Facts):
    text: str
    loc: SourceLocation | None = None


@dataclass(slots=True)
class Assignment(_Facts):
    feature: str
    op: str  # "=" | "+=" | "?"
    callee: str | None = None  # rule name or terminal; None for flags
    keyword: str | None = None  # flag keyword
    loc: SourceLocation | None = None


@dataclass(slots=True)
class Sequence(_Facts):
    items: list


@dataclass(slots=True)
class Opt(_Facts):
    inner: object


@dataclass(slots=True)
class Repeat(_Facts):
    inner: object
    kind: str  # "*" | "+"


@dataclass(slots=True)
class Group(_Facts):
    alternatives: list


Element = Keyword | Assignment | Sequence | Opt | Repeat | Group


@dataclass
class ConcreteRule:
    name: str
    cls: MetaClass
    body: Element
    loc: SourceLocation | None = None


@dataclass
class AbstractRule:
    name: str
    cls: MetaClass
    alternatives: list[str] = field(default_factory=list)
    loc: SourceLocation | None = None


Rule = ConcreteRule | AbstractRule


@dataclass
class Grammar:
    rules: list[Rule]
    ast: Metamodel
    entry: str = ""

    def __post_init__(self):
        if not self.entry and self.rules:
            self.entry = self.rules[0].name
        self.by_name = {r.name: r for r in self.rules}
        self._analysis = None
        self._lexer = None

    def keywords(self) -> set[str]:
        out: set[str] = set()
        for r in self.rules:
            if isinstance(r, ConcreteRule):
                _collect_keywords(r.body, out)
        return out

    def analysis(self) -> "_Analysis":
        if self._analysis is None:
            self._analysis = _Analysis(self)
        return self._analysis

    def lexer(self) -> Lexer:
        """The lexer of parse_text: the keywords as reserved words and symbols."""
        if self._lexer is None:
            self._lexer = Lexer.for_keywords(self.keywords(), phase="parse")
        return self._lexer


def _children(e) -> list | tuple:
    """The elements directly below ``e``, in text order."""
    if isinstance(e, Sequence):
        return e.items
    if isinstance(e, Group):
        return e.alternatives
    if isinstance(e, (Opt, Repeat)):
        return (e.inner,)
    return ()


def _collect_keywords(e, out: set[str]):
    if isinstance(e, Keyword):
        out.add(e.text)
    elif isinstance(e, Assignment) and e.op == "?":
        out.add(e.keyword)
    for x in _children(e):
        _collect_keywords(x, out)


# ---------------------------------------------------------------------------
# Grammar file parsing

_GR_LEXER = Lexer(reserved={"Abstract"},
                  symbols={":", ";", "|", "(", ")", "?", "*", "+", "+=", "="},
                  phase="grammar")


def parse_grammar(text: str, ast: Metamodel, file: str = "<grammar>") -> Grammar:
    stream = TokenStream(_GR_LEXER.tokenize(text, file), phase="grammar")
    rules: list[Rule] = []
    diags: list[Diagnostic] = []

    def parse_alternation():
        alts = [parse_sequence()]
        while stream.accept_kw("|"):
            alts.append(parse_sequence())
        return alts[0] if len(alts) == 1 else Group(alts)

    def parse_sequence():
        items = [parse_element()]
        while not (stream.at_kw(";") or stream.at_kw("|") or stream.at_kw(")") or stream.at("EOF")):
            items.append(parse_element())
        return items[0] if len(items) == 1 else Sequence(items)

    def parse_element():
        e = parse_primary()
        while stream.at_kw("?") or stream.at_kw("*") or stream.at_kw("+"):
            op = stream.next().text
            e = Opt(e) if op == "?" else Repeat(e, op)
        return e

    def parse_primary():
        tok = stream.current
        if tok.kind == "STRING":
            stream.next()
            if not tok.value:
                diags.append(error("grammar", "syntax", "empty keyword", location=tok.location))
            return Keyword(tok.value, tok.location)
        if tok.is_kw("("):
            stream.next()
            inner = parse_alternation()
            stream.expect_kw(")")
            return inner
        if tok.kind == "ID":
            stream.next()
            if stream.at_kw("?"):
                # flag form feat?"kw"; only when a keyword literal follows,
                # otherwise the '?' is a postfix optional
                if stream.peek().kind == "STRING":
                    stream.next()
                    kw = stream.expect("STRING")
                    return Assignment(tok.text, "?", keyword=kw.value, loc=tok.location)
            if stream.at_kw("=") or stream.at_kw("+="):
                op = stream.next().text
                callee = stream.expect("ID")
                return Assignment(tok.text, op, callee=callee.text, loc=tok.location)
            stream.fail(f"expected '=', '+=' or '?\"kw\"' after '{tok.text}'")
        stream.fail(f"expected a keyword, assignment or group, found '{tok.text}'")

    while not stream.at("EOF"):
        kind = AbstractRule if stream.accept_kw("Abstract") else ConcreteRule
        name = stream.expect("ID")
        stream.expect_kw(":")
        if kind is ConcreteRule:
            body = parse_alternation()
        else:
            body = [stream.expect("ID").text]
            while stream.accept_kw("|"):
                body.append(stream.expect("ID").text)
        stream.expect_kw(";")
        rules.append(kind(name.text, None, body, name.location))

    seen = set()
    for r in rules:
        if r.name in seen:
            diags.append(error("grammar", "name-duplicate",
                               f"duplicate rule name {r.name!r}", location=r.loc))
        seen.add(r.name)
        if r.name in TERMINALS:
            diags.append(error("grammar", "name-duplicate",
                               f"{r.name!r} is a terminal and cannot name a rule", location=r.loc))
        cls = ast.classifier(r.name)
        r.cls = cls if isinstance(cls, MetaClass) else None
    g = Grammar(rules, ast)
    diags += g.analysis().problems
    if diags:
        raise DiagnosticError(diags)
    return g


def _check_rules(g: Grammar) -> list[Diagnostic]:
    """What makes each object parse_text builds valid but for its bounds:
    each rule's class is in ``g.ast``, concrete unless the rule is Abstract;
    each assignment names one of its features, with an operator and callee
    that fit the feature's multiplicity, kind and type, never a cross one."""
    diags: list[Diagnostic] = []

    def bad(code, message, at):  # ``at``: the rule or assignment at fault
        diags.append(error("grammar", code, message, location=at.loc))

    known = {id(c) for c in g.ast.classifiers}
    for r in g.rules:
        cls = r.cls
        if not isinstance(cls, MetaClass) or id(cls) not in known:
            bad("gr-unknown-class", f"rule {r.name!r} does not match an AST class", r)
        elif isinstance(r, AbstractRule):
            if not cls.abstract:
                bad("gr-unknown-class", f"Abstract rule {r.name!r} needs an abstract class", r)
            for alt in r.alternatives:
                sub = g.by_name.get(alt)
                if sub is None:
                    bad("gr-unknown-rule", f"alternative {alt!r} of {r.name!r} is not a rule", r)
                elif isinstance(sub.cls, MetaClass) and not is_subtype(sub.cls, cls):
                    bad("gr-type", f"alternative {alt!r} is not a subtype of {r.name!r}", r)
        else:
            if cls.abstract:
                bad("gr-unknown-class", f"class {r.name!r} is abstract; use an Abstract rule", r)
            for e in r.body.assigns:
                _check_assignment(e, cls, g.by_name, bad)
    return diags


def _check_assignment(e: Assignment, cls: MetaClass, by_name, bad):
    feat = cls.find_feature(e.feature)
    if feat is None:
        return bad("gr-unknown-feature", f"class {cls.name} has no feature {e.feature!r}", e)
    if e.op == "?":
        if not (feat.is_attribute and feat.type.kind == "boolean" and not feat.many):
            bad("gr-type", f"flag {e.feature!r} needs a single-valued boolean attribute", e)
        return
    if e.op == "=" and feat.many:
        bad("gr-operator", f"'=' on multi-valued feature {e.feature!r}; use '+='", e)
    if e.op == "+=" and not feat.many:
        bad("gr-operator", f"'+=' on single-valued feature {e.feature!r}; use '='", e)
    callee = by_name.get(e.callee)
    if e.callee in TERMINALS:
        if not feat.is_attribute:
            bad("gr-type", f"terminal {e.callee} cannot fill reference {e.feature!r}", e)
        elif feat.type.kind != ("integer" if e.callee == "INT" else "string"):
            bad("gr-type", f"{e.callee} does not fit {feat.type.name} attribute {e.feature!r}", e)
    elif callee is None:
        bad("gr-unknown-rule", f"assignment callee {e.callee!r} is not a rule or terminal", e)
    elif feat.is_attribute:
        bad("gr-type", f"rule callee {e.callee!r} cannot fill attribute {e.feature!r}", e)
    elif not feat.containment:
        bad("gr-cross-reference",
            f"{cls.name}.{e.feature} is a cross reference; grammars only build containment "
            f"trees", e)
    elif isinstance(callee.cls, MetaClass) and not is_subtype(callee.cls, feat.type):
        bad("gr-type", f"rule {e.callee!r} builds {callee.cls.name}, which does not conform "
            f"to {feat.type.name}", e)


# ---------------------------------------------------------------------------
# FIRST/nullability analysis

TokenKey = tuple  # ("kw", text) or ("term", "ID"|"STRING"|"INT")


def _key(token: Token) -> TokenKey:
    """The FIRST-set entry ``token`` matches."""
    return ("kw", token.text) if token.kind == "KW" else ("term", token.kind)


class _Analysis:
    """The grammar's compiled facts: per rule, ``first``, ``nullable`` and
    ``finite`` (it derives some finite text); per concrete rule, the features
    its flag assignments set (``flags``); on every element, ``first``,
    ``nullable`` and ``assigns``; the ``problems`` of _check_rules; and
    ``sound``: there are none and ``g.ast`` is valid, so parse_text builds
    valid objects but for bounds."""

    def __init__(self, g: Grammar):
        self.nullable: dict[str, bool] = {r.name: False for r in g.rules}
        self.finite: dict[str, bool] = {r.name: False for r in g.rules}
        self.first: dict[str, frozenset[TokenKey]] = {r.name: frozenset() for r in g.rules}
        # A worklist fixpoint: a rule is compiled again whenever the facts of
        # a rule it reads change, so the facts left on every element are
        # final. Rules are mostly written callers first; taking the last
        # first lets most rules be compiled once.
        readers: dict[str, set[str]] = {r.name: set() for r in g.rules}
        todo, queued = list(g.rules), set(readers)
        while todo:
            r = todo.pop()
            queued.discard(r.name)
            if isinstance(r, AbstractRule):
                callees = r.alternatives
                n = any(self.nullable.get(a, False) for a in callees)
                f = frozenset().union(*(self.first.get(a, ()) for a in callees))
                fin = any(self.finite.get(a, True) for a in callees)
            else:
                self._compile(r.body)
                callees = [x.callee for x in r.body.assigns]
                n, f, fin = r.body.nullable, r.body.first, self._finite(r.body)
            for c in callees:
                if c in readers:
                    readers[c].add(r.name)
            if (n, f, fin) != (self.nullable[r.name], self.first[r.name], self.finite[r.name]):
                self.nullable[r.name], self.first[r.name], self.finite[r.name] = n, f, fin
                for name in readers[r.name] - queued:
                    queued.add(name)
                    todo.append(g.by_name[name])
        self.flags: dict[str, list[str]] = {
            r.name: [x.feature for x in r.body.assigns if x.op == "?"]
            for r in g.rules if isinstance(r, ConcreteRule)}
        self.problems = _check_rules(g)
        self.sound = not self.problems and not validate_metamodel(g.ast)

    def _finite(self, e) -> bool:
        """Whether ``e`` derives some finite text, by the rules found to so far
        (unknown callees count as finite: _check_rules reports them)."""
        if isinstance(e, Assignment):
            return self.finite.get(e.callee, True)
        if isinstance(e, Group):
            return any([self._finite(x) for x in e.alternatives])
        if isinstance(e, Sequence) or isinstance(e, Repeat) and e.kind == "+":
            return all([self._finite(x) for x in _children(e)])
        return True  # a keyword, an optional part or a '*' repetition

    def _compile(self, e):
        """Store ``first``, ``nullable`` and ``assigns`` on ``e`` and on every
        element below it, each from its children's."""
        if isinstance(e, Keyword):
            e.first, e.nullable, e.assigns = frozenset((("kw", e.text),)), False, ()
            return
        if isinstance(e, Assignment):
            e.assigns = (e,)
            if e.op == "?":
                e.first, e.nullable = frozenset((("kw", e.keyword),)), True
            elif e.callee in TERMINALS:
                e.first, e.nullable = frozenset((("term", e.callee),)), False
            else:
                e.first = self.first.get(e.callee, frozenset())
                e.nullable = self.nullable.get(e.callee, False)
            return
        kids = _children(e)
        for x in kids:
            self._compile(x)
        e.assigns = tuple([a for x in kids for a in x.assigns])
        if isinstance(e, Sequence):
            first = set()
            for x in kids:
                first |= x.first
                if not x.nullable:
                    e.first, e.nullable = frozenset(first), False
                    return
            e.first, e.nullable = frozenset(first), True
        elif isinstance(e, Group):
            e.first = frozenset().union(*[x.first for x in kids])
            e.nullable = any([x.nullable for x in kids])
        else:
            e.first = e.inner.first
            e.nullable = isinstance(e, Opt) or e.kind == "*" or e.inner.nullable


def _reachable_rules(g: Grammar) -> list[str]:
    """The rules reachable from the entry rule; needs the compiled facts."""
    out, frontier = [], [g.entry]
    seen = set()
    while frontier:
        name = frontier.pop()
        if name in seen or name not in g.by_name:
            continue
        seen.add(name)
        out.append(name)
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            frontier.extend(r.alternatives)
        else:
            frontier.extend(x.callee for x in r.body.assigns
                            if x.callee and x.callee not in TERMINALS)
    return out


def _unproductive(g: Grammar) -> list[Diagnostic]:
    """The rules reachable from the entry rule that derive no finite text."""
    finite = g.analysis().finite
    return [error("grammar", "gr-unproductive", f"rule {name!r} derives no finite text",
                  location=g.by_name[name].loc) for name in _reachable_rules(g)
            if not finite[name]]


def check_grammar(g: Grammar) -> list[Diagnostic]:
    """Reject grammars the interpreters cannot handle: among the rules
    reachable from the entry rule, left recursion, rules that derive no
    finite text, and choice points whose first-token sets overlap (group and
    abstract-rule alternatives pairwise; optionals and repetitions against
    the first tokens of their local continuation in the enclosing sequence)."""
    diags: list[Diagnostic] = []
    a = g.analysis()
    reachable = _reachable_rules(g)

    # left recursion: cycle over leftmost rule references
    def left_refs(e, acc):
        if isinstance(e, Assignment):
            if e.op != "?" and e.callee and e.callee not in TERMINALS:
                acc.add(e.callee)
        for x in _children(e):
            left_refs(x, acc)
            if isinstance(e, Sequence) and not x.nullable:
                break

    graph: dict[str, set[str]] = {}
    for name in reachable:
        r = g.by_name[name]
        acc: set[str] = set()
        if isinstance(r, AbstractRule):
            acc.update(al for al in r.alternatives if al in g.by_name)
        else:
            left_refs(r.body, acc)
        graph[name] = acc

    def reaches_itself(start: str) -> bool:
        seen: set[str] = set()
        frontier = list(graph.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(graph.get(node, ()))
        return False

    for name in reachable:
        if reaches_itself(name):
            diags.append(error("grammar", "gr-left-recursion",
                               f"rule {name!r} is left-recursive",
                               location=g.by_name[name].loc))
    diags += _unproductive(g)

    if any(d.code == "gr-left-recursion" for d in diags):
        return diags  # FIRST sets are meaningless under left recursion

    def describe(keys):
        return ", ".join(sorted(
            f'"{k[1]}"' if k[0] == "kw" else k[1] for k in keys))

    def check_choices(e, rule, follow: set[TokenKey]):
        if isinstance(e, Sequence):
            # the local follow of each item: the first tokens of what comes
            # after it, up to the first item that cannot be empty
            follows = [follow]
            for x in reversed(e.items[1:]):
                follows.append(x.first | follows[-1] if x.nullable else x.first)
            for x, local in zip(e.items, reversed(follows)):
                check_choices(x, rule, local)
            return
        if isinstance(e, Opt):
            overlap = e.first & follow
            if overlap:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: optional part and its continuation both "
                                   f"start with {describe(overlap)}"))
            check_choices(e.inner, rule, follow)
            return
        if isinstance(e, Repeat):
            overlap = e.first & follow
            if overlap:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: repeated part and its continuation both "
                                   f"start with {describe(overlap)}"))
            check_choices(e.inner, rule, e.first | follow)
            return
        if isinstance(e, Group):
            firsts = [x.first for x in e.alternatives]
            for i in range(len(firsts)):
                for j in range(i + 1, len(firsts)):
                    overlap = firsts[i] & firsts[j]
                    if overlap:
                        diags.append(error(
                            "grammar", "gr-ambiguous",
                            f"in rule {rule!r}: alternatives {i + 1} and {j + 1} both start "
                            f"with {describe(overlap)}"))
            nullable_alts = [x for x in e.alternatives if x.nullable]
            if len(nullable_alts) > 1:
                diags.append(error("grammar", "gr-ambiguous",
                                   f"in rule {rule!r}: more than one alternative can be empty"))
            for x in e.alternatives:
                check_choices(x, rule, follow)
            return

    for name in reachable:
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            firsts = [(alt, a.first.get(alt, frozenset())) for alt in r.alternatives]
            for i in range(len(firsts)):
                for j in range(i + 1, len(firsts)):
                    overlap = firsts[i][1] & firsts[j][1]
                    if overlap:
                        diags.append(error(
                            "grammar", "gr-ambiguous",
                            f"in rule {name!r}: alternatives {firsts[i][0]!r} and "
                            f"{firsts[j][0]!r} both start with {describe(overlap)}"))
        else:
            check_choices(r.body, name, set())
    return diags


# ---------------------------------------------------------------------------
# Text to model


def parse_text(text: str, g: Grammar, ast: Metamodel | None = None,
               file: str = "<input>") -> Model:
    """Recursive-descent interpretation of the grammar from its entry rule.
    The result is a valid Model over ``ast``, by default ``g.ast``. If ``g``
    is sound (see _Analysis) and ``ast`` is ``g.ast``, each object is valid
    by construction but for its bounds, which the parser checks as it
    finishes the object; otherwise the model goes through validate_model."""
    checked = g.analysis().sound and (ast is None or ast is g.ast)
    parser = _TextParser(g, TokenStream(g.lexer().tokenize(text, file), phase="parse"),
                         checked)
    root = parser.parse_rule(g.entry)
    parser.stream.expect_eof()
    model = Model(root, ast or g.ast)
    if not checked:
        problems = [(d.code, d.message, d.path) for d in validate_model(model)]
    elif parser.miscounts:
        tree = Tree(root)  # for the paths, only once a problem was found
        problems = [("model-multiplicity", message, tree.path(obj))
                    for obj, message in parser.miscounts]
    else:
        return model
    if problems:
        raise DiagnosticError([error("parse", code, message, path=path)
                               for code, message, path in problems])
    return model


def _expected(keys) -> str:
    names = sorted(f"'{k[1]}'" if k[0] == "kw" else k[1] for k in keys)
    return " or ".join(names) if names else "nothing"


class _TextParser:
    """One parse_text call: the grammar, its analysis, the token stream and,
    if it checks bounds, each finished object that breaks one, with why."""

    def __init__(self, g: Grammar, stream: TokenStream, check_bounds: bool):
        self.g = g
        self.a = g.analysis()
        self.stream = stream
        self.miscounts: list[tuple[ModelObject, str]] | None = [] if check_bounds else None

    def parse_rule(self, name: str) -> ModelObject:
        a, stream = self.a, self.stream
        rule = self.g.by_name[name]
        if isinstance(rule, AbstractRule):
            key = _key(stream.current)
            for alt in rule.alternatives:
                if key in a.first.get(alt, ()):
                    return self.parse_rule(alt)
            for alt in rule.alternatives:
                if a.nullable.get(alt, False):
                    return self.parse_rule(alt)
            stream.fail(f"expected {_expected(a.first.get(name, ()))}, "
                        f"found {stream.describe()}")
        obj = ModelObject(rule.cls)
        self.walk(rule.body, obj)
        for f in a.flags[name]:
            obj.slots.setdefault(f, False)
        if self.miscounts is not None:
            for f in rule.cls.tables().bounded:
                message = miscount(obj, f, len(obj.values_of(f)))
                if message:
                    self.miscounts.append((obj, message))
        return obj

    def walk(self, e, obj):
        stream = self.stream
        if isinstance(e, Keyword):
            stream.expect_kw(e.text)
            return
        if isinstance(e, Assignment):
            # written in place: in a sound grammar each operator fits its feature
            slots = obj.slots
            if e.op == "?":
                if stream.accept_kw(e.keyword):
                    slots[e.feature] = True
                return
            if e.callee in TERMINALS:
                value = stream.expect(e.callee).value
            else:
                value = self.parse_rule(e.callee)
            if e.op == "+=":
                slots.setdefault(e.feature, []).append(value)
            elif e.feature in slots:
                stream.fail(f"feature {e.feature!r} assigned twice")
            else:
                slots[e.feature] = value
            return
        if isinstance(e, Sequence):
            for x in e.items:
                if isinstance(x, Keyword):
                    stream.expect_kw(x.text)
                else:
                    self.walk(x, obj)
            return
        if isinstance(e, Opt):
            if _key(stream.current) in e.first:
                self.walk(e.inner, obj)
            return
        if isinstance(e, Repeat):
            first = e.first
            if e.kind == "+" and _key(stream.current) not in first:
                stream.fail(f"expected {_expected(first)}, found {stream.describe()}")
            while _key(stream.current) in first:
                self.walk(e.inner, obj)
            return
        # Group
        key = _key(stream.current)
        for alt in e.alternatives:
            if key in alt.first:
                self.walk(alt, obj)
                return
        if not e.nullable:
            stream.fail(f"expected {_expected(e.first)}, found {stream.describe()}")


# ---------------------------------------------------------------------------
# Model to text


def render_ast(m: Model, g: Grammar) -> str:
    """Deterministic inverse of parse_text: one space between tokens, a
    newline after ';' and '}', 4-space indentation inside braces.
    parse_text(render_ast(m)) is model-equal to m."""
    renderer = _Renderer(g)
    renderer.render_obj(m.root)
    if renderer.problems:
        tree = Tree(m.root)
        raise DiagnosticError([error("grammar", code, message, path=tree.path(obj))
                               for obj, code, message in renderer.problems])
    return _layout(renderer.tokens)


class _Cursors:
    """How many values of each feature of one object are rendered so far.
    Each slot is read once, as its live list if multi-valued and as ``[v]``
    if single-valued. An ID assignment has a value available only if that
    value reads back as an ID: another alternative must carry it. A set
    flag counts as one value, so a repetition around it ends."""

    def __init__(self, obj: ModelObject, reads_as_id):
        self.obj = obj
        self.reads_as_id = reads_as_id
        self.used: dict[str, int] = {}
        self.slots: dict[str, list] = {}

    def values(self, feature: str) -> list:
        vals = self.slots.get(feature)
        if vals is None:
            v = self.obj.slots.get(feature)
            if v is None:
                vals = []
            else:
                vals = v if self.obj._feature(feature).many else [v]
            self.slots[feature] = vals
        return vals

    def available(self, e: Assignment) -> bool:
        i = self.used.get(e.feature, 0)
        if e.op == "?":
            return not i and self.obj.get(e.feature) is True
        vals = self.values(e.feature)
        return i < len(vals) and (e.callee != "ID" or self.reads_as_id(vals[i]))

    def any_available(self, e) -> bool:
        """Whether some assignment below ``e`` has a value left to render."""
        return any(map(self.available, e.assigns))

    def take(self, e: Assignment):
        i = self.used.get(e.feature, 0)
        self.used[e.feature] = i + 1
        return self.values(e.feature)[i]


class _Renderer:
    """One render_ast call: the grammar, the tokens written so far and the
    problems found, each as the object it is about, a code and a message."""

    def __init__(self, g: Grammar):
        self.g = g
        self.flags = g.analysis().flags
        self.reads_as_id = g.lexer().reads_as_id
        self.problems: list[tuple[ModelObject, str, str]] = []
        self.tokens: list[str] = []

    def render_obj(self, obj: ModelObject):
        rule = self.g.by_name.get(obj.cls.name)
        if not isinstance(rule, ConcreteRule):
            self.problems.append((obj, "gr-no-rule",
                                  f"no concrete rule for class {obj.cls.name!r}"))
            return
        cur = _Cursors(obj, self.reads_as_id)
        self.walk(rule.body, cur)
        flags = self.flags[rule.name]
        for f in obj.slots:
            if f in flags or cur.used.get(f, 0) >= len(cur.values(f)):
                continue
            feat = obj.cls.find_feature(f)
            if not feat.is_attribute and not feat.containment:
                continue  # cross slots are not the renderer's business
            self.problems.append((obj, "gr-unset-mandatory",
                                  f"rule {rule.name!r} cannot emit all values of "
                                  f"{obj.cls.name}.{f}"))

    def walk(self, e, cur: _Cursors):
        tokens, problems = self.tokens, self.problems
        if isinstance(e, Keyword):
            tokens.append(e.text)
            return
        if isinstance(e, Assignment):
            if e.op == "?":
                if cur.available(e):
                    tokens.append(e.keyword)
                    cur.used[e.feature] = 1
                return
            if not cur.available(e):
                left = cur.values(e.feature)[cur.used.get(e.feature, 0):]
                why = f"value {left[0]!r} is not an ID" if left else "has no value to render"
                problems.append((cur.obj, "gr-unset-mandatory",
                                 f"{cur.obj.cls.name}.{e.feature} {why}"))
                return
            value = cur.take(e)
            if e.callee == "STRING":
                tokens.append(escape_string(value))
            elif e.callee in ("ID", "INT"):
                tokens.append(str(value))
            else:
                self.render_obj(value)
            return
        if isinstance(e, Sequence):
            for x in e.items:
                if isinstance(x, Keyword):
                    tokens.append(x.text)
                else:
                    self.walk(x, cur)
            return
        if isinstance(e, Opt):
            if cur.any_available(e):
                self.walk(e.inner, cur)
            return
        if isinstance(e, Repeat):
            if e.kind == "+" and not cur.any_available(e):
                problems.append((cur.obj, "gr-unset-mandatory",
                                 "'+' repetition has nothing to render"))
                return
            while cur.any_available(e):
                self.walk(e.inner, cur)
            return
        # Group: prefer an alternative with actual values, then a pure-keyword
        # one, then an empty one.
        for alt in e.alternatives:
            if cur.any_available(alt):
                self.walk(alt, cur)
                return
        for alt in e.alternatives:
            if not alt.assigns:
                self.walk(alt, cur)
                return
        if e.nullable:
            return
        problems.append((cur.obj, "gr-unset-mandatory", "no renderable alternative in group"))


def _layout(tokens: list[str]) -> str:
    lines: list[str] = []
    current: list[str] = []
    depth = 0
    for tok in tokens:
        if tok == "}":
            depth = max(0, depth - 1)
        if not current:
            current.append("    " * depth + tok)
        else:
            current.append(tok)
        if tok == "{":
            depth += 1
        if tok in (";", "}"):
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Skeleton generation


def generate_grammar_skeleton(ast: Metamodel) -> str:
    """One rule per AST class: keyword-framed blocks listing every feature.
    The output always passes parse_grammar and check_grammar for ``ast``."""
    diags: list[Diagnostic] = []
    classes = ast.classes()
    if not any(not c.abstract for c in classes):
        diags.append(error("grammar", "gr-unknown-class",
                           "AST metamodel has no concrete class"))
    for cls in classes:
        for f in cls.features:
            if not f.is_attribute and not f.containment:
                diags.append(error("grammar", "gr-cross-reference",
                                   f"{cls.name}.{f.name} is a cross reference; translate it "
                                   f"before generating a grammar"))
    for cls in classes:
        if cls.abstract and not _has_concrete_descendant(cls, classes):
            diags.append(error("grammar", "gr-unknown-class",
                               f"abstract class {cls.name!r} has no concrete subtype"))
    if diags:
        raise DiagnosticError(diags)

    lines = []
    for cls in classes:
        if cls.abstract:
            subs = [c.name for c in classes if cls in c.supertypes]
            lines.append(f"Abstract {cls.name} :")
            lines.append("    " + " | ".join(subs) + " ;")
            lines.append("")
            continue
        parts = []
        for f in cls.all_features():
            if f.is_attribute and f.type.kind == "boolean":
                parts.append(f'( {f.name} ? "{f.name}" )?')
                continue
            if f.is_attribute:
                callee = "INT" if f.type.kind == "integer" else "STRING"
            else:
                callee = f.type.name
            op = "+=" if f.many else "="
            unit = f'"{f.name}" "=" {f.name} {op} {callee}'
            if f.many:
                if f.lower == 0:
                    parts.append(f"( {unit} )*")
                else:
                    parts.append(f"{unit} ( {unit} )*")
            else:
                if f.lower == 0:
                    parts.append(f"( {unit} )?")
                else:
                    parts.append(unit)
        lines.append(f"{cls.name} :")
        body = " ".join([f'"{cls.name}"', '"{"'] + parts + ['"}"'])
        lines.append(f"    {body} ;")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _has_concrete_descendant(cls, classes) -> bool:
    return any(not c.abstract and is_subtype(c, cls) for c in classes)


# ---------------------------------------------------------------------------
# Grammar-respecting random models (round-trip test support)


def generate_random_model(g: Grammar, rng: random.Random, max_depth: int = 8) -> Model:
    """Walk the grammar generatively, making random choices; the result is a
    valid model that render_ast can always emit."""
    if stuck := _unproductive(g):
        raise DiagnosticError(stuck)
    flags = g.analysis().flags
    reserved = {k for k in g.keywords() if k and (k[0].isalpha() or k[0] == "_")}

    def rand_id():
        while True:
            name = rng.choice("abcdefgh") + "".join(
                rng.choice("abcdefgh123_") for _ in range(rng.randint(0, 5)))
            if name not in reserved:
                return name

    def rand_string():
        alphabet = "abc XYZ 123 _-:"
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        if rng.random() < 0.2:
            s += rng.choice(['"', "\\", "\n", "\t"])
        return s

    def gen_rule(name: str, depth: int) -> ModelObject:
        rule = g.by_name[name]
        if isinstance(rule, AbstractRule):
            alts = list(rule.alternatives)
            if depth > max_depth:
                alts.sort(key=_weight)
                return gen_rule(alts[0], depth + 1)
            return gen_rule(rng.choice(alts), depth + 1)
        obj = ModelObject(rule.cls)
        gen(rule.body, obj, depth)
        for f in flags[name]:
            if not obj.is_set(f):
                obj.set(f, False)
        return obj

    def _weight(rule_name: str) -> int:
        r = g.by_name[rule_name]
        if isinstance(r, AbstractRule):
            return 5
        return _count_rule_refs(r.body)

    def _count_rule_refs(e) -> int:
        if isinstance(e, Assignment):
            return 0 if (e.op == "?" or e.callee in TERMINALS) else 1
        counts = [_count_rule_refs(x) for x in _children(e)]
        return max(counts, default=0) if isinstance(e, Group) else sum(counts)

    def gen(e, obj, depth):
        if isinstance(e, Keyword):
            return
        if isinstance(e, Assignment):
            if e.op == "?":
                if rng.random() < 0.5:
                    obj.set(e.feature, True)
                return
            if e.callee == "ID":
                value = rand_id()
            elif e.callee == "STRING":
                value = rand_string()
            elif e.callee == "INT":
                value = rng.randint(0, 20)
            else:
                value = gen_rule(e.callee, depth + 1)
            if e.op == "=":
                if not obj.is_set(e.feature):
                    obj.set(e.feature, value)
            else:
                obj.add(e.feature, value)
            return
        if isinstance(e, Sequence):
            for x in e.items:
                gen(x, obj, depth)
            return
        if isinstance(e, Opt):
            if depth <= max_depth and rng.random() < 0.5:
                gen(e.inner, obj, depth + 1)
            return
        if isinstance(e, Repeat):
            count = 1 if e.kind == "+" else 0
            if depth <= max_depth:
                while rng.random() < 0.5 and count < 4:
                    count += 1
            for _ in range(count):
                gen(e.inner, obj, depth + 1)
            return
        # Group
        alts = e.alternatives
        if depth > max_depth:
            if e.nullable:
                return
            keyword_only = [x for x in alts if not x.assigns]
            if keyword_only:
                gen(keyword_only[0], obj, depth + 1)
                return
        gen(rng.choice(alts), obj, depth + 1)

    return Model(gen_rule(g.entry, 0), g.ast)
