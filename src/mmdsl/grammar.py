"""Grammar notation, run in both directions.

A grammar file (`.gr`) holds rules over an AST metamodel:

    Name : body ;                     -- concrete rule, Name is an AST class
    Abstract Name : Alt1 | Alt2 ;     -- dispatch rule for an abstract class

Rule bodies combine double-quoted keywords, assignments (``feat=Callee``,
``feat+=Callee``, boolean flags ``feat?"kw"``), parenthesized groups with
``|`` alternation, ``?`` optionals and ``*``/``+`` repetitions. Callees are
other rules or the terminals ID, STRING, INT.

Grammar.analysis compiles a grammar once: by fixpoint, each rule's FIRST
set, whether it can be empty and its least derivation height, and those
facts on every element, with the MetaFeature each assignment writes; and
each abstract rule as a table from token key to alternative. It also
decides once whether the grammar's code may run: no problems, and for the
parser no reachable left recursion; so that code carries no guard of its own.

Both directions run Python generated per rule from its elements on their
first call for a grammar (_Code): parse_text (text to model, one token of
lookahead, read from the lexer's stream of matches: no token list, and a
lexical error anywhere wins over the errors it finds) and render_ast (model
to text), each on a trampoline. generate_random_model (random models for
round-trip tests) walks the elements itself, on an explicit stack. So a
text's or model's nesting is bounded by memory, not by the recursion limit;
parse_grammar bounds the nesting of the element tree (_MAX_NESTING), over
which the compiler, check_grammar and the generators recurse. check_grammar
reports the left recursion, and what else the parser needs: no reachable rule
that derives no finite text, and disjoint first-token sets at every choice point.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
import random
import threading
from collections import Counter
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, SourceLocation, error, raise_any
from .lexer import Lexer, TokenStream, escape_string, token_value
from .meta import (
    UNBOUNDED, MetaClass, Metamodel, Model, ModelObject, Tree, is_subtype, _unset_value,
    miscount, rejecting, validate_metamodel,
)

TERMINALS = ("ID", "STRING", "INT")


# ---------------------------------------------------------------------------
# Grammar model


class _Facts:
    """What _Analysis compiles onto every element of a grammar: ``first``,
    ``nullable``, ``assigns`` (the assignments in it, in text order) and
    ``height``, the least height of a derivation tree; and onto each
    Assignment its ``feat``, the MetaFeature it writes."""

    __slots__ = ("first", "nullable", "assigns", "height")


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
    feat: object = field(default=None, init=False, repr=False, compare=False)


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
        self._analysis = self._lexer = None

    def keywords(self) -> set[str]:
        return set(self.analysis().keywords)

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
    if isinstance(e, (Opt, Repeat)):
        return (e.inner,)
    return e.items if isinstance(e, Sequence) else e.alternatives if isinstance(e, Group) else ()


# ---------------------------------------------------------------------------
# Grammar file parsing

_GR_LEXER = Lexer(reserved={"Abstract"},
                  symbols={":", ";", "|", "(", ")", "?", "*", "+", "+=", "="},
                  phase="grammar")
# How deep groups, and postfix operators, may nest: a group takes four frames of
# parse_grammar; each element takes one of _Analysis._compile and of check_grammar's
# walk, and up to three of _Code's block, statements and choice, in either generator.
_MAX_NESTING = 100


def parse_grammar(text: str, ast: Metamodel, file: str = "<grammar>") -> Grammar:
    """The grammar ``text`` over ``ast``: at least one rule, and none of
    the analysis's ``problems``. Groups nest at most _MAX_NESTING deep, and
    so do postfix operators with those in what they wrap: the '(' or
    operator past that is a syntax error."""
    stream = TokenStream(_GR_LEXER.tokenize(text, file), phase="grammar")
    rules: list[Rule] = []
    diags: list[Diagnostic] = []
    # the groups open; the operators nested in the last element, and most in one of its group
    depth = height = deepest = 0

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
        nonlocal height, deepest
        e = parse_primary()
        while stream.at_kw("?") or stream.at_kw("*") or stream.at_kw("+"):
            if height == _MAX_NESTING:
                stream.fail(f"operators nested more than {_MAX_NESTING} deep")
            height += 1
            op = stream.next().text
            e = Opt(e) if op == "?" else Repeat(e, op)
        deepest = max(deepest, height)
        return e

    def parse_primary():
        nonlocal depth, height, deepest
        tok, height = stream.current, 0
        if tok.kind == "STRING":
            stream.next()
            if not tok.value:
                diags.append(error("grammar", "syntax", "empty keyword", location=tok.location))
            return Keyword(tok.value, tok.location)
        if tok.is_kw("("):
            if depth == _MAX_NESTING:
                stream.fail(f"groups nested more than {_MAX_NESTING} deep")
            depth, outer, deepest = depth + 1, deepest, 0
            stream.next()
            inner = parse_alternation()
            stream.expect_kw(")")
            depth, height, deepest = depth - 1, deepest, outer
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

    while not (stream.at("EOF") and rules):
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
    raise_any(diags)
    return g


def _check_rules(g: Grammar) -> list[Diagnostic]:
    """What makes each object parse_text builds valid but for its bounds:
    each rule's class is in ``g.ast``, concrete unless the rule is Abstract;
    each assignment names one of its features, with an operator and callee
    that fit the feature's multiplicity, kind and type, never a cross one;
    and the entry names a rule."""
    diags = [error("grammar", "gr-unknown-rule", f"entry {g.entry!r} names no rule")] * (
        g.entry not in g.by_name)

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
_INF = float("inf")


class _Proc:
    """A compiled rule: a concrete rule's ``body``, ``flags`` and ``feats``
    (its assignments' features by name); an abstract rule's ``table`` from
    token key to alternative and ``default``, its first that may be empty.
    An abstract rule has no body."""

    def __init__(self, name: str, cls=None, body=None):
        self.name, self.cls, self.body, self.default = name, cls, body, None
        self.first, self.flags, self.feats, self.table = frozenset(), (), {}, {}


class _Analysis:
    """The grammar's compiled facts: per rule, ``first``, ``nullable``,
    ``height`` (the least height of a derivation tree; inf if the rule
    derives no finite text) and its ``procs`` entry; on every element, the
    _Facts; the ``keywords``; the code generated from the rules' elements,
    each on its first call (``parsers``, ``renderers``); and the one
    decision whether that code may run: ``problems`` (_check_rules's and
    validate_metamodel's for ``g.ast``), refused by parse_grammar and before
    any code is generated, and, of the ``reachable`` rules, those
    ``left_recursive`` and ``unproductive``, as check_grammar reports them.
    A parser is generated only without left recursion."""

    def __init__(self, g: Grammar):
        self.nullable: dict[str, bool] = {r.name: False for r in g.rules}
        self.height: dict[str, float] = {r.name: _INF for r in g.rules}
        self.first: dict[str, frozenset[TokenKey]] = {r.name: frozenset() for r in g.rules}
        self.procs = {r.name: _Proc(r.name, r.cls, r.body if isinstance(r, ConcreteRule) else None)
                      for r in g.rules}
        self.keywords: set[str] = set()
        # A worklist fixpoint: a rule is compiled again whenever the facts of
        # a rule it reads change, so the facts left are final.
        # Rules are mostly written callers first; taking the last first lets
        # most rules be compiled once.
        readers: dict[str, set[str]] = {r.name: set() for r in g.rules}
        todo, queued = list(g.rules), set(readers)
        while todo:
            r = todo.pop()
            queued.discard(r.name)
            proc = self.procs[r.name]
            if isinstance(r, AbstractRule):
                callees = r.alternatives
                n = any(self.nullable.get(a, False) for a in callees)
                f = frozenset().union(*(self.first.get(a, ()) for a in callees))
                h = min((self.height.get(a, 0) for a in callees), default=_INF)
                proc.table = {k: self.procs.get(a)  # the first alternative wins a key
                              for a in reversed(callees) for k in self.first.get(a, ())}
                proc.default = next((self.procs[a] for a in callees if self.nullable.get(a)), None)
            else:
                self._compile(r.body, proc)
                proc.flags = tuple([x.feature for x in r.body.assigns if x.op == "?"])
                callees = [x.callee for x in r.body.assigns]
                n, f, h = r.body.nullable, r.body.first, 1 + r.body.height
            proc.first = f
            for c in callees:
                if c in readers:
                    readers[c].add(r.name)
            if (n, f, h) != (self.nullable[r.name], self.first[r.name], self.height[r.name]):
                self.nullable[r.name], self.first[r.name], self.height[r.name] = n, f, h
                for name in readers[r.name] - queued:
                    queued.add(name)
                    todo.append(g.by_name[name])
        self.reachable = _reachable_rules(g)
        # the rules each reachable rule may call before it reads a token, closed by
        # Warshall's algorithm over the rules that call any: one in its own recurses left
        left = {name: set(r.alternatives) if isinstance(r := g.by_name[name], AbstractRule)
                else _leading(r.body, set()) for name in self.reachable}
        leading = [name for name in left if left[name]]
        for via in leading:
            for name in leading:
                if via in left[name]:
                    left[name] |= left[via]
        self.left_recursive = [_rule_error(g, name, "gr-left-recursion", "is left-recursive")
                               for name in left if name in left[name]]
        self.unproductive = [_rule_error(g, name, "gr-unproductive", "derives no finite text")
                             for name in left if self.height[name] == _INF]
        self.problems = _check_rules(g) + validate_metamodel(g.ast)
        self.parsers = self.renderers = None

    def _compile(self, e, proc: _Proc):
        """Store the facts of ``e``, in rule ``proc``, and of every element
        below it, each from its children's and by the rule facts found so
        far (unknown callees count as finite, and unknown features are
        None: _check_rules reports them)."""
        if isinstance(e, Keyword):
            e.first, e.nullable, e.assigns, e.height = frozenset((("kw", e.text),)), False, (), 0
            self.keywords.add(e.text)
            return
        if isinstance(e, Assignment):
            e.assigns, e.height = (e,), self.height.get(e.callee, 0)
            if e.op == "?":
                e.first, e.nullable = frozenset((("kw", e.keyword),)), True
                self.keywords.add(e.keyword)
            elif e.callee in TERMINALS:
                e.first, e.nullable = frozenset((("term", e.callee),)), False
            else:
                e.first = self.first.get(e.callee, frozenset())
                e.nullable = self.nullable.get(e.callee, False)
            if (f := proc.feats.get(e.feature)) is None and isinstance(proc.cls, MetaClass):
                f = proc.feats[e.feature] = proc.cls.find_feature(e.feature)
            e.feat = f
            return
        kids = _children(e)
        for x in kids:
            self._compile(x, proc)
        e.assigns = tuple([a for x in kids for a in x.assigns])
        if isinstance(e, Sequence):  # FIRST up to the first item that cannot be empty
            n = next((i for i, x in enumerate(kids) if not x.nullable), len(kids))
            e.first = frozenset().union(*[x.first for x in kids[:n + 1]])
            e.nullable, e.height = n == len(kids), max([x.height for x in kids])
        elif isinstance(e, Group):
            e.first = frozenset().union(*[x.first for x in kids])
            e.nullable = any([x.nullable for x in kids])
            e.height = min([x.height for x in kids])
        else:
            e.first = e.inner.first
            e.nullable = isinstance(e, Opt) or e.kind == "*" or e.inner.nullable
            e.height = e.inner.height if isinstance(e, Repeat) and e.kind == "+" else 0


def _sure(items, out: list) -> list:
    """``out``, with each '+=' assignment in elements ``items`` that runs
    each time they run: outside an optional part, a '*' loop and a choice."""
    for e in items:
        if isinstance(e, Assignment) and e.op == "+=":
            out.append(e)
        elif isinstance(e, Sequence) or isinstance(e, Repeat) and e.kind == "+":
            _sure(_children(e), out)
    return out


def _reachable_rules(g: Grammar) -> list[str]:
    """The rules reachable from the entry rule; needs the compiled facts."""
    seen, frontier = {}, [g.entry]  # the rules found, in order
    while frontier:
        if (name := frontier.pop()) in seen or name not in g.by_name:
            continue
        seen[name] = r = g.by_name[name]
        frontier += r.alternatives if isinstance(r, AbstractRule) else [
            x.callee for x in r.body.assigns if x.callee and x.callee not in TERMINALS]
    return list(seen)


def _leading(e, out: set) -> set:
    """``out``, with each rule that element ``e`` may call before it reads a token."""
    if isinstance(e, Assignment) and e.op != "?" and e.callee not in TERMINALS:
        out.add(e.callee)
    for x in _children(e):
        _leading(x, out)
        if isinstance(e, Sequence) and not x.nullable:
            break
    return out


def _rule_error(g: Grammar, name: str, code: str, what: str) -> Diagnostic:
    """The error that rule ``name`` of ``g`` ``what``, located at the rule."""
    return error("grammar", code, f"rule {name!r} {what}", location=g.by_name[name].loc)


def check_grammar(g: Grammar) -> list[Diagnostic]:
    """Reject grammars the parser cannot handle: among the rules reachable
    from the entry rule, left recursion (which parse_text refuses too),
    rules that derive no finite text, and choice points whose first-token
    sets overlap (group and abstract-rule alternatives pairwise; optionals
    and repetitions against the first tokens of their local continuation in
    the enclosing sequence), dropped under left recursion, where FIRST sets
    are meaningless."""
    a = g.analysis()
    ambiguous: list[Diagnostic] = []

    def describe(keys):
        return ", ".join(sorted(f'"{k[1]}"' if k[0] == "kw" else k[1] for k in keys))

    def overlaps(rule, firsts):
        """Report each pair of ``firsts``, (label, FIRST set) pairs, that overlap."""
        for i, (x, fx) in enumerate(firsts):
            for y, fy in firsts[i + 1:]:
                if fx & fy:
                    ambiguous.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: "
                                           f"alternatives {x} and {y} both start with "
                                           f"{describe(fx & fy)}"))

    def walk(e, rule, follow: set[TokenKey]):
        """Check the choice points in ``e``, of ``rule``, whose local follow is ``follow``."""
        if isinstance(e, Sequence):
            # the local follow of each item: the first tokens of what comes
            # after it, up to the first item that cannot be empty
            follows = [follow]
            for x in reversed(e.items[1:]):
                follows.append(x.first | follows[-1] if x.nullable else x.first)
            for x, local in zip(e.items, reversed(follows)):
                walk(x, rule, local)
        elif isinstance(e, (Opt, Repeat)):
            part = "optional" if isinstance(e, Opt) else "repeated"
            if e.first & follow:
                ambiguous.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: {part} "
                                       f"part and its continuation both start with "
                                       f"{describe(e.first & follow)}"))
            walk(e.inner, rule, follow if isinstance(e, Opt) else e.first | follow)
        elif isinstance(e, Group):
            overlaps(rule, [(i, x.first) for i, x in enumerate(e.alternatives, 1)])
            if sum([x.nullable for x in e.alternatives]) > 1:
                ambiguous.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: "
                                       f"more than one alternative can be empty"))
            for x in e.alternatives:
                walk(x, rule, follow)

    for name in a.reachable:
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            overlaps(name, [(repr(alt), a.first.get(alt, frozenset())) for alt in r.alternatives])
        else:
            walk(r.body, name, frozenset())
    left = a.left_recursive
    return left + a.unproductive + ([] if left else ambiguous)


# ---------------------------------------------------------------------------
# Text to model


def parse_text(text: str, g: Grammar, file: str = "<input>") -> Model:
    """The model of ``text`` over ``g.ast``, read from the entry rule with
    one token of lookahead by Python generated per rule on the first call
    for a grammar (_generate_parser), which refuses a grammar with problems
    or left recursion (_Analysis) first, whatever the text. It reads the
    lexer's matches one by one and decodes a value only where an assignment
    takes it. A rule that
    calls rules yields those that do to a trampoline (_run), so nesting is
    bounded by memory, not by the recursion limit. Each object is valid by
    construction but for its bounds, which its rule checks as it finishes
    it. A Token is made only for a diagnostic, once the rest of the text
    holds no lexical error, which wins (Lexer.error_token)."""
    a, lexer = g.analysis(), g.lexer()
    table, rule = (a.parsers or _generate_parser(a, lexer.groups))[g.entry]
    matches = lexer.matches(text)
    read = matches.__next__
    m, box = read(), [None, None, []]  # a generator's object and lookahead; the miscounts
    try:
        r = table.get(m["KW"] or m.lastindex, rule)(m, read, box)
        if type(r) is not tuple:  # a generator, which leaves its result in the box
            _run(r)
            r = box[0], box[1]
        obj, m = r
        if m.lastgroup != "EOF":
            raise _Stuck(m, "end of input")
    except _Stuck as stuck:
        # the token it stopped at, or a lexical error, which wins
        tok = lexer.error_token(stuck.args[0], matches, text, file)
        code, message = stuck.args[1:] if len(stuck.args) == 3 else ("syntax", f"expected "
            f"{stuck.args[1]}, found " + ("end of input" if tok.kind == "EOF" else f"'{tok.text}'"))
        raise DiagnosticError([error("parse", code, message, location=tok.location)]) from None
    if box[2]:
        tree = Tree(obj)  # for the paths, only once a problem was found
        raise DiagnosticError([error("parse", "model-multiplicity", message, path=tree.path(o))
                               for o, message in box[2]])
    return Model(obj, g.ast)


class _Stuck(Exception):
    """A parser stops at match ``args[0]``; then what it expected, or a code and a message."""


def _expected(keys) -> str:
    names = sorted(f"'{k[1]}'" if k[0] == "kw" else k[1] for k in keys)
    return " or ".join(names) if names else "nothing"


def _enter(p: _Proc, key) -> _Proc | str:
    """The concrete rule that a call of rule ``p`` enters at token key
    ``key``, or what the call expected if it stops there."""
    while p.body is None:
        if (q := p.table.get(key, p.default)) is None:
            return _expected(p.first)
        p = q
    return p


def _stop(expected: str, m, read, box):
    """A parser that stops at once, having expected ``expected``; bound to it by partial."""
    raise _Stuck(m, expected)


def _miscount(obj: ModelObject, box: list):
    """Add each bound ``obj`` breaks, with its message, to ``box[2]``."""
    box[2] += [(obj, message) for f in obj.cls.tables().bounded
               if (message := miscount(obj, f, len(obj.values_of(f))))]


# ---------------------------------------------------------------------------
# Generated code: both directions run Python made from each rule's elements

_NESTING = 12  # the blocks a generated function nests; a deeper part becomes a function
_GENERATING = threading.Lock()


@functools.lru_cache(maxsize=1024)
def _compiled(kind: str, rule: str, text: str):
    """Generated source ``text``, rule ``rule``'s ``kind`` code, compiled
    once per process and put in linecache, for tracebacks, inspect and
    profiles, as ``<mmdsl kind Rule #digest>``, with a digest of the text."""
    file = f"<mmdsl {kind} {rule} #{hashlib.blake2b(text.encode(), digest_size=6).hexdigest()}>"
    linecache.cache[file] = (len(text), None, text.splitlines(True), file)
    return compile(text, file, "exec")


def _run(gen):
    """Run generator ``gen``, or nothing, and each generator it yields, on a
    stack of its own: the trampoline of the generated code."""
    stack = []
    while gen is not None:
        if (child := next(gen, None)) is not None:
            stack.append(gen)
            gen = child
        else:
            gen = stack.pop() if stack else None


def _load(kind: str, proc: _Proc, source: "_Code", **shared) -> dict:
    """The fresh namespace in which ``source``, rule ``proc``'s ``kind``
    code, has run, from its constants and ``shared``."""
    names = dict(source.names, **shared, __name__=__name__)
    exec(_compiled(kind, proc.name, source.text), names)
    return names


class _Code:
    """Python source made from a concrete rule's elements, one procedure
    per rule as in syntax-directed translation (Futamura's first
    projection): ``block`` makes nested statements of an element through
    the hooks of a subclass (``holds``, the test of an optional part or a
    loop, ``missing``, what a '+' loop that cannot start does, ``keyword``,
    ``assign``, ``choice`` and ``part``). A part nested past _NESTING is a
    function of its own (``funcs``), as Python allows 20 nested loops and
    100 indent levels. ``yields``: a statement made so far yields;
    ``loops``: the loops open around the statement being made, and
    ``after``: the '+=' assignments sure to run after it (_sure), whose
    values a renderer leaves them; ``temps``: the choices made, which name
    their temporaries."""

    def __init__(self):
        self.funcs, self.yields, self.loops, self.after, self.temps = [], False, 0, [], 0

    def block(self, e, depth: int) -> list[str]:
        """The statements that run element ``e``, ``depth`` blocks deep."""
        pad = "    " * depth
        if depth > _NESTING:
            self.funcs.append(body := [])
            k, outer, self.yields = len(self.funcs) - 1, self.yields, False
            inner = self.block(e, 1)
            head, tail, call = self.part(k, self.yields)
            body += [*head, *inner, *tail]
            self.yields |= outer
            return [pad + s for s in call]
        return self.statements(e, depth, pad) or [pad + "pass"]

    def statements(self, e, depth: int, pad: str) -> list[str]:
        """The statements of ``e``, ``depth`` blocks deep, each after ``pad``."""
        if isinstance(e, Sequence):  # a loop, not a comprehension, which takes a frame
            out, outer = [], len(self.after)
            for i, x in enumerate(e.items):
                self.after[outer:] = _sure(e.items[i + 1:], [])
                out += self.statements(x, depth, pad)
            del self.after[outer:]
            return out
        if isinstance(e, Keyword):
            return [pad + s for s in self.keyword(e.text)]
        if isinstance(e, Assignment):
            return [pad + s for s in self.assign(e)]
        if isinstance(e, Group):
            return self.choice(e, depth, pad)
        test, loop = self.holds(e), isinstance(e, Repeat)
        if loop and e.kind == "+" and test == "False" and not e.assigns:
            return self.block(e.inner, depth)  # nothing decides how many passes: one
        out = [f"{pad}if not ({test}): {self.missing(e)}"] if loop and e.kind == "+" else []
        if test != "False":  # else it never runs
            self.loops += loop
            out += [f"{pad}{'while' if loop else 'if'} {test}:", *self.block(e.inner, depth + 1)]
            self.loops -= loop
        return out


def _generate_parser(a: _Analysis, kinds) -> dict:
    """Each reachable rule's parser by name, as (table, default): a call
    runs table[key] for the lookahead's key (a keyword's text, else its
    kind's group number in ``kinds``), else ``default``. A concrete rule has
    no table and its own parser (_ParseSource); an abstract rule's table
    leads to concrete rules, or to a stand-in that stops as the call would.
    A grammar with problems or left recursion is refused instead."""
    raise_any(a.problems or a.left_recursive)
    with _GENERATING:  # the first thread generates; the others wait and take its parsers
        if a.parsers is not None:
            return a.parsers
        procs = [a.procs[name] for name in a.reachable]
        enter = {p: ({k[1] if k[0] == "kw" else kinds[k[1]]: _enter(p, k) for k in p.table},
                     _enter(p, None)) for p in procs}
        # per rule, its call's expression and whether it may run a generator: a rule it
        # enters calls rules
        key = f"(m[{kinds['KW']}] or m.lastindex)"
        calls = {p.name: (f"T{i}.get({key}, R{i})" if enter[p][0] else f"R{i}", any(
            isinstance(x, _Proc) and any(y.callee and y.callee not in TERMINALS
                                         for y in x.body.assigns)
            for x in (*enter[p][0].values(), enter[p][1]))) for i, p in enumerate(procs)}
        spaces = {p: _load("parse", p, _ParseSource(p, calls, kinds), _Stuck=_Stuck,
                           NEW=ModelObject.__new__, ModelObject=ModelObject,
                           token_value=token_value, _miscount=_miscount) for p in procs if p.body}
        runs = lambda x: spaces[x]["rule"] if isinstance(x, _Proc) else functools.partial(_stop, x)
        tables = {p: ({k: runs(x) for k, x in t.items()}, runs(e)) for p, (t, e) in enter.items()}
        shared = {f"{x}{i}": y for i, p in enumerate(procs) for x, y in zip("TR", tables[p])}
        for names in spaces.values():
            names.update(shared)
        a.parsers = {p.name: tables[p] for p in procs}
        return a.parsers


class _ParseSource(_Code):
    """The source of a concrete rule's parser ``rule(m, read, box)`` and
    its ``part<k>`` functions (``text``), and its constants (``names``):
    CLS, its class. It reads from match ``m`` on, takes the next from
    ``read`` and builds its object. A callee that may be a generator is
    yielded to the trampoline, any other called in place. A rule whose code
    yields is a generator that leaves its object and lookahead in ``box``;
    any other returns them. ``calls``: per rule, its call and whether it
    may yield."""

    def __init__(self, proc: _Proc, calls: dict, kinds):
        super().__init__()
        self.calls, self.kinds = calls, kinds
        # a keyword's text; the lookahead's key, that text or else its kind's group
        self.kw = f"m[{kinds['KW']}]"
        self.key = f"({self.kw} or m.lastindex)"
        # an '=' tests its slot only if another assignment writes it, or if it may run twice
        self.writes = Counter([x.feat.name for x in proc.body.assigns])
        body = self.block(proc.body, 1)
        bounds = [  # where the rule's object can break them; a default counts as a value
            f"{f.lower} <= len(slots.get({f.name!r}, ()))" + (
                "" if f.upper is UNBOUNDED else f" <= {f.upper}") if f.many else
            f"{f.name!r} in slots" for f in proc.cls.tables().bounded
            if f.many or _unset_value(f) is None]
        rule = ["def rule(m, read, box):", "    slots = {}", *body,
                *[f"    if {f!r} not in slots: slots[{f!r}] = False" for f in proc.flags],
                # ModelObject's fields, set without its __init__ and keyword dict
                "    obj = NEW(ModelObject); obj.cls = CLS; obj.slots = slots; "
                "obj.represents = None",
                *[f"    if not ({' and '.join(bounds)}): _miscount(obj, box)"] * bool(bounds),
                "    box[0] = obj; box[1] = m" if self.yields else "    return obj, m"]
        self.text = "\n".join(rule + [s for f in self.funcs for s in f]) + "\n"
        self.names = {"CLS": proc.cls}

    def among(self, keys, x: str = "") -> str:
        """The test that ``x``, by default the lookahead's key, is one of ``keys``."""
        keys, x = sorted({k[1] if k[0] == "kw" else self.kinds[k[1]] for k in keys}, key=repr), \
            x or self.key
        return "False" if not keys else f"{x} == {keys[0]!r}" if len(keys) == 1 else \
            f"{x} in {{{', '.join(map(repr, keys))}}}"

    def holds(self, e) -> str:
        return self.among(e.first)

    def missing(self, e) -> str:
        return f"raise _Stuck(m, {_expected(e.first)!r})"

    def keyword(self, text: str) -> list[str]:
        want = repr(f"'{text}'")
        return [f"if {self.kw} != {text!r}: raise _Stuck(m, {want})", "m = read()"]

    def choice(self, e: Group, depth: int, pad: str) -> list[str]:
        """A run of ifs on the lookahead's key, which only one can hold: each
        alternative's on the keys of its first that no earlier one has."""
        self.temps += 1
        k, taken, out = f"k{self.temps}", set(), [f"{pad}k{self.temps} = {self.key}"]
        for x in e.alternatives:
            if keys := x.first - taken:
                taken |= keys
                out += [f"{pad}if {self.among(keys, k)}:", *self.block(x, depth + 1)]
        return out + [f"{pad}if not ({self.among(e.first, k)}): "
                      f"raise _Stuck(m, {_expected(e.first)!r})"] * (not e.nullable)

    def assign(self, e: Assignment) -> list[str]:
        """The statements of assignment ``e``: read its value into x, then write it."""
        name, callee = e.feat.name, e.callee
        n = repr(name)
        if e.op == "?":
            return [f"if {self.kw} == {e.keyword!r}:", f"    slots[{n}] = True", "    m = read()"]
        if callee in TERMINALS:
            out = [f"if (x := m[{self.kinds[callee]}]) is None: raise _Stuck(m, {callee!r})",
                   *_DECODE[callee], "m = read()"]
        elif (call := self.calls[callee])[1]:
            self.yields = True
            out = [f"r = {call[0]}(m, read, box)", "if type(r) is tuple: x, m = r", "else:",
                   "    yield r", "    x, m = box[0], box[1]"]
        else:
            out = [f"x, m = {call[0]}(m, read, box)"]
        if e.op == "+=":
            return out + [f"if {n} in slots: slots[{n}].append(x)", f"else: slots[{n}] = [x]"]
        twice = repr(f"feature {name!r} assigned twice")
        return out + [f"if {n} in slots: raise _Stuck(m, 'syntax', {twice})"] * (
            self.writes[name] > 1 or self.loops > 0) + [f"slots[{n}] = x"]

    def part(self, k: int, yields: bool) -> tuple:
        head, call = f"def part{k}(m, read, box, slots):", f"part{k}(m, read, box, slots)"
        if yields:  # a generator too
            return [head], ["    box[1] = m"], [f"yield {call}", "m = box[1]"]
        return [head], ["    return m"], [f"m = {call}"]


# The statements that make a terminal's value x from its text x, as token_value does
_DECODE = {"ID": ("if x >= '\\x80' and not x[0].isalpha(): raise _Stuck(m, 'lexical', '')",),
           "STRING": ("x = token_value('STRING', x) if '\\\\' in x else x[1:-1]",),
           "INT": ("try:", "    x = int(x)", "except ValueError:",
                   "    raise _Stuck(m, 'lexical', '')")}


# ---------------------------------------------------------------------------
# Model to text


@rejecting
def render_ast(m: Model, g: Grammar) -> str:
    """Deterministic inverse of parse_text: one space between tokens, a newline
    after ';' and '}', 4-space indentation inside braces.
    parse_text(render_ast(m)) is model-equal to m. A grammar with problems
    (_Analysis) is refused first. The first call for a grammar generates its
    renderer (_generate); each rule decides by what its object holds: an
    optional or loop runs while an assignment below it has a value left,
    past those that the '+=' assignments sure to run after it take; a choice
    takes the first alternative with one, else the first without
    assignments; a '+' loop that assigns nothing renders one pass. A rule
    that calls another yields the callee's generator to a trampoline (_run),
    so nesting is bounded by memory, not by the recursion limit. On the
    first value of ``m`` that does not fit where a rule reads it, it raises
    validate_model's diagnostics (meta.rejecting)."""
    a = g.analysis()
    rules = a.renderers or _generate(a, g.lexer().reads_as_id)
    root = m.root
    if (rule := rules.get(root.cls.name)) is None:
        raise DiagnosticError([error("grammar", "gr-no-rule", f"no concrete rule for class "
                                     f"{root.cls.name!r}", path="/")])
    line, lines, lay, problems = [], [], [0, ""], []  # lay: the depth and the line's indent
    _run(rule(root, line, lines, lay, problems, set()))
    if problems:
        tree = Tree(root)
        raise DiagnosticError([error("grammar", code, message, path=tree.path(obj))
                               for obj, code, message in problems])
    if line:
        lines.append(lay[1] + " ".join(line))
    return "\n".join(lines) + ("\n" if lines else "")


# The statements that place a keyword: only these three change the layout,
# as no ID, INT or STRING token reads like one of them.
_PLACE = {
    "{": ("append('{')", "lay[0] += 1"),
    ";": ("append(';')", "lines.append(lay[1] + ' '.join(line))", "line.clear()",
          "lay[1] = '    ' * lay[0]"),
    "}": ("if lay[0]: lay[0] -= 1",
          "if line: append('}'); lines.append(lay[1] + ' '.join(line)); line.clear()",
          "else: lines.append('    ' * lay[0] + '}')", "lay[1] = '    ' * lay[0]")}
# A renderer's parameters: its object, the open line's tokens, the lines
# done, [depth, the open line's indent], the problems, the objects in render.
_ARGS = "obj, line, lines, lay, problems, opened"


def _generate(a: _Analysis, reads_as_id) -> dict:
    """Each concrete rule's renderer by name, generated from its elements
    (_RuleSource): a generator that yields each callee's renderer if it
    calls rules, else a plain function. A grammar with problems is refused
    instead."""
    raise_any(a.problems)
    with _GENERATING:  # the first thread generates; the others wait and take its renderers
        if a.renderers is None:
            rules: dict = {}
            for proc in [p for p in a.procs.values() if p.body is not None]:
                rules[proc.name] = _load(
                    "render", proc, _RuleSource(proc), RULES=rules, reads_as_id=reads_as_id,
                    escape_string=escape_string, ModelObject=ModelObject,
                    _leftover=_leftover)["rule"]
            a.renderers = rules
        return a.renderers


class _RuleSource(_Code):
    """The source of a concrete rule's renderer, ``rule`` and the
    ``part<k>`` functions it calls (``text``), and the constants it reads
    (``names``): PROC, NAMES (the slot names it accounts for) and each
    feature ``F<i>``, whose values it counts in ``c<i>``."""

    def __init__(self, proc: _Proc):
        super().__init__()
        index = self.index = {f: i for i, f in enumerate(proc.feats.values())}
        self.counters = "".join(f"c{i}, " for i in index.values())
        body = self.block(proc.body, 1)
        held = [f for f in index if f.is_attribute or f.containment]
        checks = ["slots.keys() <= NAMES", *[
            f"((v := slots.get({f.name!r})) is None or type(v) is list and c{index[f]} >= len(v))"
            if f.many else f"(c{index[f]} or slots.get({f.name!r}) is None)" for f in held
            if f.name not in proc.flags]]
        rule = [f"def rule({_ARGS}):",
                "    slots, append = obj.slots, line.append",
                *[f"    {self.counters}= {'0, ' * len(index)}"] * bool(index),
                *["    opened.add(obj)"] * self.yields, *body,
                f"    if not ({' and '.join(checks)}):", "        _leftover(obj, PROC, {"
                f"{', '.join(f'F{i}: c{i}' for i in index.values())}}}, problems)",
                *["    opened.discard(obj)"] * self.yields]
        self.text = "\n".join(rule + [s for f in self.funcs for s in f]) + "\n"
        self.names = {f"F{i}": f for f, i in index.items()}
        self.names.update(PROC=proc, NAMES=frozenset([f.name for f in held] + list(proc.flags)))

    def avail(self, reads) -> str:
        """Whether one of the assignments ``reads`` has a value left to
        render: a set flag not written yet, or a value past its feature's
        count and those that the '+=' assignments in ``after`` take; an
        ID's string must read back as an ID."""
        terms = []
        for x in reads:
            f = x.feat
            k, n = f"c{self.index[f]}", repr(f.name)
            if x.op == "?":
                terms.append(f"not {k} and slots.get({n}, F{self.index[f]}.default) is True")
                continue
            left = f"{k} + {taken}" if (taken := sum([y.feat is f for y in self.after])) else k
            test = f"(v := slots.get({n})) is not None and " + (f"{left} < len(v)" if f.many
                                                                  else f"not {k}")
            if x.callee == "ID":
                test += f" and (type(x := {f'v[{k}]' if f.many else 'v'}) is not str or " \
                        f"reads_as_id(x))"
            terms.append(test)
        return " or ".join([f"({t})" for t in terms]) or "False"

    def keyword(self, text: str):
        return _PLACE.get(text, (f"append({text!r})",))

    def holds(self, e) -> str:
        return self.avail(e.assigns)

    def missing(self, e) -> str:
        return ("problems.append((obj, 'gr-unset-mandatory', "
                "\"'+' repetition has nothing to render\"))")

    def choice(self, e: Group, depth: int, pad: str) -> list[str]:
        """The first alternative with a value, else the first without assignments."""
        arms = [x for x in e.alternatives if x.assigns]
        bare = next((x for x in e.alternatives if not x.assigns), None)
        self.temps += 1
        t = f"t{self.temps}"
        # flat ifs on a flag, not an elif chain, which the compiler nests one deeper each
        out = [f"{pad}{t} = 1"] * bool(arms)
        for x in arms:
            out += [f"{pad}if {t} and ({self.avail(x.assigns)}):", f"{pad}    {t} = 0",
                    *self.block(x, depth + 1)]
        tail = self.block(bare, depth + bool(arms)) if bare is not None else [
            f"{pad}{'    ' * bool(arms)}problems.append((obj, 'gr-unset-mandatory', "
            f"'no renderable alternative in group'))"] if not e.nullable else []
        return out + [f"{pad}if {t}:"] * bool(arms and tail) + tail

    def assign(self, e: Assignment) -> list[str]:
        """The statements of assignment ``e``."""
        f, callee = e.feat, e.callee
        i, name = self.index[f], f.name
        k, n = f"c{i}", repr(name)
        if e.op == "?":
            return [f"if {self.avail((e,))}:", f"    {k} = 1",
                    *["    " + s for s in self.keyword(e.keyword)]]
        x = f"v[{k}]" if f.many else "v"
        body = [*[f"x = {x}"] * (callee != "ID"), f"{k} += 1"]
        if callee not in TERMINALS:
            self.yields = True
            body += ["if not isinstance(x, ModelObject) or x in opened: raise TypeError(x)",
                     "if r := RULES.get(x.cls.name):",
                     "    if (r := r(x, line, lines, lay, problems, opened)) is not None: yield r",
                     "else: problems.append((x, 'gr-no-rule', "
                     "'no concrete rule for class ' + repr(x.cls.name)))"]
        else:
            put = {"ID": "x if type(x) is str else str(x)", "INT": "str(x)",
                   "STRING": "escape_string(x)"}[callee]
            body += [f"if {'type(x) is int' if callee == 'INT' else 'isinstance(x, str)'}: "
                     f"append({put})", "else: raise TypeError(x)"]
        out = [f"if (v := slots.get({n})) is None or {k} >= len(v):" if f.many else
               f"if {k} or (v := slots.get({n})) is None:",
               f"    problems.append((obj, 'gr-unset-mandatory', obj.cls.name + "
               f"{f'.{name} has no value to render'!r}))"]
        if callee == "ID":
            out += [f"elif type(x := {x}) is str and not reads_as_id(x):",
                    f"    problems.append((obj, 'gr-unset-mandatory', obj.cls.name + "
                    f"{f'.{name} value '!r} + repr(x) + ' is not an ID'))"]
        return out + ["else:", *["    " + s for s in body]]

    def part(self, k: int, yields: bool) -> tuple:
        """A function of its own; its reads give it counters to pass, in ``box``."""
        call = f"part{k}({_ARGS}, b)"
        return ([f"def part{k}({_ARGS}, box):", "    slots, append = obj.slots, line.append",
                 f"    {self.counters}= box"], [f"    box[:] = {self.counters}"],
                [f"b = [{self.counters}]", f"if (r := {call}) is not None: yield r" if yields
                 else call, f"{self.counters}= b"])


def _leftover(obj: ModelObject, proc: _Proc, used: dict, problems: list):
    """Report each slot of ``obj`` with values rule ``proc`` left, but flags
    and cross slots; a many-valued slot that holds no list raises TypeError."""
    for name, v in obj.slots.items():
        if v is None or name in proc.flags:
            continue
        # looked up by name only for a slot that no assignment of the rule reads
        if (f := proc.feats.get(name) or obj.cls.find_feature(name)) is not None:
            if f.many and type(v) is not list:
                raise TypeError(v)
            if used.get(f, 0) >= (len(v) if f.many else 1) or not (f.is_attribute or f.containment):
                continue
        problems.append((obj, "gr-unset-mandatory", f"rule {proc.name!r} cannot emit "
                         f"all values of {obj.cls.name}.{name}"))


# ---------------------------------------------------------------------------
# Skeleton generation


def generate_grammar_skeleton(ast: Metamodel) -> str:
    """One rule per AST class: keyword-framed blocks listing every feature.
    The output always passes parse_grammar and check_grammar for ``ast``.
    A refusal names the class it is about by path, ``/<ast>/<Class>``, as
    validate_metamodel does."""
    diags: list[Diagnostic] = []
    classes = ast.classes()
    if not any(not c.abstract for c in classes):
        diags.append(error("grammar", "gr-unknown-class",
                           "AST metamodel has no concrete class", path=f"/{ast.name}"))
    for cls in classes:
        for f in cls.features:
            if not f.is_attribute and not f.containment:
                diags.append(error("grammar", "gr-cross-reference",
                                   f"{cls.name}.{f.name} is a cross reference; translate it "
                                   f"before generating a grammar", path=f"/{ast.name}/{cls.name}"))
            elif f.is_attribute and f.many and f.type.kind == "boolean":
                diags.append(error("grammar", "gr-type",
                                   f"{cls.name}.{f.name} is a multi-valued boolean attribute; a "
                                   f"flag needs a single-valued one", path=f"/{ast.name}/{cls.name}"))
    for cls in classes:
        if cls.abstract and not any(not c.abstract and is_subtype(c, cls) for c in classes):
            diags.append(error("grammar", "gr-unknown-class",
                               f"abstract class {cls.name!r} has no concrete subtype",
                               path=f"/{ast.name}/{cls.name}"))
    raise_any(diags)

    lines = []
    for cls in classes:
        if cls.abstract:
            subs = [c.name for c in classes if cls in c.supertypes]
            lines += [f"Abstract {cls.name} :", "    " + " | ".join(subs) + " ;", ""]
            continue
        parts = []
        for f in cls.all_features():
            if f.is_attribute and f.type.kind == "boolean":
                parts.append(f'( {f.name} ? "{f.name}" )?')
                continue
            callee = ("INT" if f.type.kind == "integer" else "STRING") if f.is_attribute \
                else f.type.name
            unit = f'"{f.name}" "=" {f.name} {"+=" if f.many else "="} {callee}'
            if f.lower == 0:
                parts.append(f"( {unit} )" + ("*" if f.many else "?"))
            else:
                parts.append(f"{unit} ( {unit} )*" if f.many else unit)
        body = " ".join([f'"{cls.name}"', '"{"'] + parts + ['"}"'])
        lines += [f"{cls.name} :", f"    {body} ;", ""]
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Grammar-respecting random models (round-trip test support)


def generate_random_model(g: Grammar, rng: random.Random, max_depth: int = 8) -> Model:
    """A random valid model that render_ast can always emit, for a grammar
    without problems, left recursion or unproductive rules (_Analysis); it
    refuses any other with those diagnostics. Walks the elements of the
    rules from the entry rule, on an explicit stack, and decides wherever a
    parser would read a token: an optional part or a loop pass is taken with
    even odds, at most 4 passes, and a '+' loop makes its first pass; a
    choice and an abstract rule take a random alternative; a flag is set
    with even odds. ``max_depth`` counts rule calls: past it, optional parts
    are skipped, a '+' loop makes one pass, and a choice or an abstract rule
    takes the alternative of least height, so the model ends. A pass is
    taken only if the values it adds still fit every finite upper bound (see
    _room); while a feature it assigns has fewer values than its lower
    bound, it is taken, past ``max_depth`` too (see _short), and so is a
    choice's first alternative that assigns such a feature, before any draw.
    Once _MAX_OBJECTS objects are made, the model is finished as deep as no
    pass is forced: so a language whose rules take many optional parts, or
    whose lower bounds chain through many rules, still ends in a bounded
    model."""
    a = g.analysis()
    raise_any(a.problems or a.left_recursive + a.unproductive)
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

    def enter(p: _Proc, depth: int) -> _Proc:
        """The concrete rule that a call of rule ``p`` at ``depth`` runs."""
        while p.body is None:
            alts = g.by_name[p.name].alternatives
            p = a.procs[min(alts, key=a.height.get) if depth > max_depth else rng.choice(alts)]
        return p

    terminal = {"ID": rand_id, "STRING": rand_string, "INT": lambda: rng.randint(0, 20)}
    # past max_depth a rule runs alike at every depth: a longer chain of passes
    # forced by lower bounds repeats without end, as no finite model meets them
    forced_depth = max_depth + len(a.procs)
    stack = []  # below the top rule: (obj, proc, todo, e), e the assignment it fills
    made, depth = 1, 0  # the objects made; the stack's depth, or inf from _MAX_OBJECTS on
    proc = enter(a.procs[g.entry], 0)
    # todo: the elements left to run in the rule, the next last; the next test
    # of an optional part or a loop as (element, passes made)
    obj, todo = ModelObject(proc.cls), [proc.body]
    while True:
        if not todo:  # the rule's end: finish the object, then fill the slot it was made for
            for f in proc.flags:
                obj.slots.setdefault(f, False)
            if not stack:
                return Model(obj, g.ast)
            value = obj
            obj, proc, todo, e = stack.pop()
            depth = len(stack) if made < _MAX_OBJECTS else _INF
        elif (etype := type(e := todo.pop())) is not Assignment:
            if etype is Sequence:
                todo += reversed(e.items)
            elif etype is tuple:  # an optional part's or a loop's next test
                e, passes = e
                if ((depth <= forced_depth and passes < _short(e.assigns, obj)
                     and _room(e, obj, proc.body))
                        or (depth <= max_depth and passes < 4 and rng.random() < 0.5
                            and _room(e, obj, proc.body))):
                    todo += [(e, passes + 1), e.inner] if type(e) is Repeat else [e.inner]
            elif etype is Group:
                short = depth <= forced_depth and next(
                    (x for x in e.alternatives if _short(x.assigns, obj)), None)
                todo.append(short or (min(e.alternatives, key=lambda x: x.height)
                                      if depth > max_depth else rng.choice(e.alternatives)))
            elif etype is not Keyword:  # a '+' loop's first pass is taken, with no draw
                todo += [(e, 1), e.inner] if etype is Repeat and e.kind == "+" else [(e, 0)]
            continue
        elif e.op == "?":  # a flag: set with even odds
            if rng.random() < 0.5:
                obj.slots[e.feat.name] = True
            continue
        elif e.callee in TERMINALS:
            value = terminal[e.callee]()
        else:
            stack.append((obj, proc, todo, e))
            made += 1
            depth = len(stack) if made < _MAX_OBJECTS else _INF
            proc = enter(a.procs[e.callee], depth)
            obj, todo = ModelObject(proc.cls), [proc.body]
            continue
        if e.op == "+=":
            obj.slots.setdefault(e.feat.name, []).append(value)
        else:
            obj.slots.setdefault(e.feat.name, value)  # a second '=' keeps the first value


# How many objects a random model grows to freely. At max_depth 6, skeleton grammars
# of 59-129 classes, with up to seven optional loops a rule, drew up to 139,000.
_MAX_OBJECTS = 4096


def _short(reads: tuple, obj: ModelObject) -> int:
    """If a feature that the assignments ``reads`` assign has fewer values
    in ``obj`` than its lower bound, the sum of those bounds, else 0. A loop
    makes at most that many forced passes, as a pass may assign nothing:
    enough to fill each of them from no values."""
    feats = {x.feat for x in reads if x.feat.lower}
    short = any(len(obj.values_of(f)) < f.lower for f in feats)
    return sum([f.lower for f in feats]) if short else 0


def _room(e, obj: ModelObject, body) -> bool:
    """Whether ``obj`` has room for one more pass of optional part or loop
    ``e`` of the rule whose body is ``body``: for each feature with a finite
    upper bound, its values, the '+=' assignments in ``e`` and those after
    it in the rule's text, each counted once, stay within the bound."""
    adds = Counter([x.feat for x in e.assigns if x.op == "+=" and x.feat.upper is not UNBOUNDED])
    if adds:
        end = next(i for i, x in enumerate(body.assigns) if x is e.assigns[-1]) + 1
        adds.update([x.feat for x in body.assigns[end:] if x.op == "+=" and x.feat in adds])
    return all(len(obj.values_of(f)) + k <= f.upper for f, k in adds.items())
