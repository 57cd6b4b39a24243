"""Grammar notation interpreted in both directions.

A grammar file (`.gr`) holds rules over an AST metamodel:

    Name : body ;                     -- concrete rule, Name is an AST class
    Abstract Name : Alt1 | Alt2 ;     -- dispatch rule for an abstract class

Rule bodies combine double-quoted keywords, assignments (``feat=Callee``,
``feat+=Callee``, boolean flags ``feat?"kw"``), parenthesized groups with
``|`` alternation, ``?`` optionals and ``*``/``+`` repetitions. Callees are
other rules or the terminals ID, STRING, INT.

Grammar.analysis compiles a grammar once: by fixpoint, each rule's FIRST
set, whether it can be empty and its least derivation height, and those
facts on every element; then each concrete rule body as a flat tuple of
ops (keywords, assignments holding their MetaFeature, jumps, and tests and
choices that dispatch on a token key and carry the assignments below
them), and each abstract rule as a table from token key to alternative.

Only parse_grammar, _Analysis._compile and check_grammar read the element
tree, each recursing over its nesting, which parse_grammar bounds
(_MAX_NESTING). parse_text (text to model, one token of lookahead, read
from the lexer's stream of matches: no token list, and a lexical error
anywhere wins over the errors it finds) and generate_random_model (random
models for round-trip tests) run the compiled code in a loop on a stack;
render_ast (model to text) runs Python generated from it per rule, on a
trampoline. So a text's or model's nesting is bounded by memory, not by
the recursion limit. check_grammar enforces what they need, in one walk of
each reachable rule: no reachable left recursion, no reachable rule that
derives no finite text, and disjoint first-token sets at every choice
point (alternatives, optionals and repetition continuations are checked
against their local follow in the enclosing sequence).
"""

from __future__ import annotations

import linecache
import random
import threading
from collections import Counter
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, SourceLocation, error
from .lexer import Lexer, TokenStream, escape_string, token_value
from .meta import (
    UNBOUNDED, MetaAttribute, MetaClass, Metamodel, Model, ModelObject, Tree, is_subtype,
    miscount, validate_metamodel, validate_model,
)

TERMINALS = ("ID", "STRING", "INT")


# ---------------------------------------------------------------------------
# Grammar model


class _Facts:
    """What _Analysis compiles onto every element of a grammar: ``first``,
    ``nullable``, ``assigns`` and ``height``, the least height of a
    derivation tree."""

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
# parse_grammar, each element one of _compile and of check_grammar.
_MAX_NESTING = 100


def parse_grammar(text: str, ast: Metamodel, file: str = "<grammar>") -> Grammar:
    """The grammar ``text`` over ``ast``. Groups nest at most _MAX_NESTING
    deep, and so do postfix operators with those in what they wrap: the
    '(' or operator past that is a syntax error."""
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
# FIRST/nullability analysis and the compiled code

TokenKey = tuple  # ("kw", text) or ("term", "ID"|"STRING"|"INT")

# The ops of compiled rule code, each a tuple that starts with its opcode:
#   (KW, text)   (JUMP, target)   (RET,): the end of a rule's code
#   (TERM | CALL | FLAG, feat, name, many, callee | proc | keyword, plus)
#   (TEST, first, end, reads, must): unless the part is there, go to end
#   (CHOICE, table, default, first, end, alts, bare, low)
# ``feat`` is the MetaFeature the rule's class holds under ``name``; ``reads``
# are the assignment ops below a decision; a '+' loop starts with a TEST that
# ``must`` find its part. A CHOICE goes to table[key], else to ``default`` (its
# end if it may be empty, else None: an error); rendering takes the first of
# ``alts``, (reads, start) pairs, with a value, else ``bare``, the start of the
# first alternative without assignments (or the end); ``low`` is the start of
# the first alternative of least height.
KW, TERM, CALL, FLAG, TEST, JUMP, CHOICE, RET = range(8)
_INF = float("inf")


class _Proc:
    """A compiled rule: a concrete rule's ``code``, ``flags`` and ``feats``
    (its assignments' features by name); an abstract rule's ``table`` from
    token key to alternative and ``default``, its first that may be empty."""

    def __init__(self, name: str, cls=None):
        self.name, self.cls, self.code, self.default = name, cls, None, None
        self.first, self.flags, self.feats, self.table = frozenset(), (), {}, {}


class _Analysis:
    """The grammar's compiled facts: per rule, ``first``, ``nullable``,
    ``height`` (the least height of a derivation tree; inf if the rule
    derives no finite text) and its compiled ``procs`` entry; per concrete
    rule, the features its flag assignments set (``flags``); on every
    element, ``first``, ``nullable`` and ``assigns``; the ``keywords``; the
    ``problems`` of _check_rules; and ``sound``: there are none and
    ``g.ast`` is valid, so parse_text builds valid objects but for bounds."""

    def __init__(self, g: Grammar):
        self.nullable: dict[str, bool] = {r.name: False for r in g.rules}
        self.height: dict[str, float] = {r.name: _INF for r in g.rules}
        self.first: dict[str, frozenset[TokenKey]] = {r.name: frozenset() for r in g.rules}
        self.procs = {r.name: _Proc(r.name, r.cls) for r in g.rules}
        self.keywords: set[str] = set()
        # A worklist fixpoint: a rule is compiled again whenever the facts of
        # a rule it reads change, so the facts and code left are final.
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
                code: list = []
                self._compile(r.body, proc, code, {})
                proc.code, proc.flags = (*code, (RET,)), tuple(
                    [x.feature for x in r.body.assigns if x.op == "?"])
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
        self.flags: dict[str, list[str]] = {
            r.name: list(self.procs[r.name].flags) for r in g.rules if isinstance(r, ConcreteRule)}
        self.problems = _check_rules(g)
        self.renderers = None  # render_ast's generated code (_generate), on its first call
        self.sound = not self.problems and not validate_metamodel(g.ast)

    def _compile(self, e, proc: _Proc, code: list, ops: dict):
        """Store the facts of ``e`` and of every element below it, each from
        its children's and by the rule facts found so far (unknown callees
        count as finite: _check_rules reports them), and append the code of
        ``e`` in rule ``proc`` to ``code``; ``ops`` holds each assignment's op."""
        if isinstance(e, Keyword):
            e.first, e.nullable, e.assigns, e.height = frozenset((("kw", e.text),)), False, (), 0
            self.keywords.add(e.text)
            code.append((KW, e.text))
            return
        if isinstance(e, Assignment):
            e.assigns, e.height = (e,), self.height.get(e.callee, 0)
            if e.op == "?":
                e.first, e.nullable = frozenset((("kw", e.keyword),)), True
                kind, arg = FLAG, e.keyword
                self.keywords.add(e.keyword)
            elif e.callee in TERMINALS:
                e.first, e.nullable = frozenset((("term", e.callee),)), False
                kind, arg = TERM, e.callee
            else:
                e.first = self.first.get(e.callee, frozenset())
                e.nullable = self.nullable.get(e.callee, False)
                kind, arg = CALL, self.procs.get(e.callee) or _Proc(e.callee)  # unknown: no entry
            if (f := proc.feats.get(e.feature)) is None:  # an unknown one is read by name
                known = isinstance(proc.cls, MetaClass) and proc.cls.find_feature(e.feature)
                f = proc.feats[e.feature] = known or MetaAttribute(e.feature)
            code.append(ops.setdefault(id(e), (kind, f, f.name, f.many, arg, e.op == "+=")))
            return
        at, starts, kids = len(code), [], _children(e)
        if not isinstance(e, Sequence):  # decisions, set once their targets are known
            code.extend([None, None] if isinstance(e, Repeat) and e.kind == "+" else [None])
        for x in kids:
            starts.append(len(code))
            self._compile(x, proc, code, ops)
            if isinstance(e, Group):
                code.append(None)  # a jump to the end
        e.assigns = tuple([a for x in kids for a in x.assigns])
        if isinstance(e, Sequence):  # FIRST up to the first item that cannot be empty
            n = next((i for i, x in enumerate(kids) if not x.nullable), len(kids))
            e.first = frozenset().union(*[x.first for x in kids[:n + 1]])
            e.nullable, e.height = n == len(kids), max([x.height for x in kids])
        elif isinstance(e, Group):
            e.first = frozenset().union(*[x.first for x in kids])
            e.nullable = any([x.nullable for x in kids])
            e.height = min([x.height for x in kids])
            code.pop()
            end = len(code)
            code[at + 1:] = [(JUMP, end) if op is None else op for op in code[at + 1:]]
            pairs = list(zip(kids, starts))
            table = {k: start for x, start in reversed(pairs) for k in x.first}
            alts = tuple([(tuple([ops[id(y)] for y in x.assigns]), start) for x, start in pairs])
            bare = next((start for x, start in pairs if not x.assigns), end)
            low = min(pairs, key=lambda p: p[0].height)[1]
            code[at] = (CHOICE, table, end if e.nullable else None, e.first, end, alts, bare, low)
        else:
            e.first = e.inner.first
            e.nullable = isinstance(e, Opt) or e.kind == "*" or e.inner.nullable
            e.height = e.inner.height if isinstance(e, Repeat) and e.kind == "+" else 0
            head, reads = starts[0] - 1, tuple([ops[id(x)] for x in e.assigns])
            if isinstance(e, Repeat):  # a '+' loop's first TEST, before ``head``, must pass
                code.append((JUMP, head))
            code[head] = (TEST, e.first, len(code), reads, False)
            if head != at:
                code[at] = (TEST, e.first, len(code), reads, True)


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


def _unproductive(g: Grammar, reachable: list[str]) -> list[Diagnostic]:
    """The rules of ``reachable`` (``_reachable_rules(g)``) that derive no
    finite text."""
    height = g.analysis().height
    return [error("grammar", "gr-unproductive", f"rule {name!r} derives no finite text",
                  location=g.by_name[name].loc) for name in reachable if height[name] == _INF]


def check_grammar(g: Grammar) -> list[Diagnostic]:
    """Reject grammars the interpreters cannot handle: among the rules
    reachable from the entry rule, left recursion, rules that derive no
    finite text, and choice points whose first-token sets overlap (group and
    abstract-rule alternatives pairwise; optionals and repetitions against
    the first tokens of their local continuation in the enclosing sequence).
    One walk of each rule finds both its leftmost rule references and its
    choice points; the overlaps are dropped under left recursion, where
    FIRST sets are meaningless."""
    a = g.analysis()
    reachable = _reachable_rules(g)
    left: dict[str, set[str]] = {}  # per rule, the rules it may call before reading a token
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

    def walk(e, rule, follow: set[TokenKey], lead: bool):
        """Check the choice points in ``e``, whose local follow is ``follow``;
        ``lead``: nothing is read before ``e`` in ``rule``."""
        if isinstance(e, Assignment):
            if lead and e.op != "?" and e.callee not in TERMINALS:
                left[rule].add(e.callee)
        elif isinstance(e, Sequence):
            # the local follow of each item: the first tokens of what comes
            # after it, up to the first item that cannot be empty
            follows = [follow]
            for x in reversed(e.items[1:]):
                follows.append(x.first | follows[-1] if x.nullable else x.first)
            for x, local in zip(e.items, reversed(follows)):
                walk(x, rule, local, lead)
                lead = lead and x.nullable
        elif isinstance(e, (Opt, Repeat)):
            part = "optional" if isinstance(e, Opt) else "repeated"
            if e.first & follow:
                ambiguous.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: {part} "
                                       f"part and its continuation both start with "
                                       f"{describe(e.first & follow)}"))
            walk(e.inner, rule, follow if isinstance(e, Opt) else e.first | follow, lead)
        elif isinstance(e, Group):
            overlaps(rule, [(i, x.first) for i, x in enumerate(e.alternatives, 1)])
            if sum([x.nullable for x in e.alternatives]) > 1:
                ambiguous.append(error("grammar", "gr-ambiguous", f"in rule {rule!r}: "
                                       f"more than one alternative can be empty"))
            for x in e.alternatives:
                walk(x, rule, follow, lead)

    for name in reachable:
        r = g.by_name[name]
        if isinstance(r, AbstractRule):
            left[name] = {alt for alt in r.alternatives if alt in g.by_name}
            overlaps(name, [(repr(alt), a.first.get(alt, frozenset())) for alt in r.alternatives])
        else:
            left[name] = set()
            walk(r.body, name, frozenset(), True)

    def reaches_itself(start: str) -> bool:
        seen: set[str] = set()
        frontier = list(left.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(left.get(node, ()))
        return False

    diags = [error("grammar", "gr-left-recursion", f"rule {name!r} is left-recursive",
                   location=g.by_name[name].loc) for name in reachable if reaches_itself(name)]
    return diags + _unproductive(g, reachable) + ([] if diags else ambiguous)


# ---------------------------------------------------------------------------
# Text to model


def parse_text(text: str, g: Grammar, file: str = "<input>") -> Model:
    """Run the grammar's compiled code from its entry rule over the tokens
    of ``text`` with one token of lookahead, in one loop on an explicit
    stack: a rule call pushes a frame for the new object, the rule's end
    pops it into the caller's slot. The result is a valid Model over
    ``g.ast``. If ``g`` is sound (see _Analysis), each object is valid by
    construction but for its bounds, which the parser checks as it
    finishes the object; otherwise the model goes through validate_model.
    The tokens are streamed: the loop reads the lexer's matches one by one,
    decodes a value only where a terminal assignment takes it, and makes a
    Token only for a diagnostic, once the rest of the text holds no lexical
    error, which would win (see Lexer.error_token)."""
    a, lexer = g.analysis(), g.lexer()
    miscounts: list[tuple[ModelObject, str]] = []  # read only if a.sound
    matches = lexer.matches(text)
    read = matches.__next__
    # Without left recursion the frames opened at one token are of different
    # rules, so more frames than this allows mean left recursion.
    limit = len(a.procs)
    stack = []  # below the top frame: (code, pc, obj, op, proc), op the CALL it fills
    m, pos = read(), 0  # the lookahead token's match; the tokens read
    tk = m.lastgroup  # its kind
    try:
        proc = _enter(a.procs[g.entry], m, tk)
        code, pc, obj = proc.code, 0, ModelObject(proc.cls)
        slots = obj.slots
        while True:
            op = code[pc]
            pc += 1
            kind = op[0]
            if kind is KW:
                if tk != "KW" or m["KW"] != op[1]:
                    raise _Stuck(f"'{op[1]}'")
            elif kind is TERM:
                if tk != op[4]:
                    raise _Stuck(op[4])
                try:
                    value = token_value(op[4], m[op[4]])
                except ValueError:
                    raise _Stuck("lexical", "") from None  # error_token reports it
            elif kind is TEST:
                if (("kw", m["KW"]) if tk == "KW" else ("term", tk)) not in op[1]:
                    if op[4]:
                        raise _Stuck(_expected(op[1]))
                    pc = op[2]
                continue
            elif kind is CHOICE:
                pc = op[1].get(("kw", m["KW"]) if tk == "KW" else ("term", tk), op[2])
                if pc is None:
                    raise _Stuck(_expected(op[3]))
                continue
            elif kind is CALL:
                callee = op[4] if op[4].code is not None else _enter(op[4], m, tk)
                if len(stack) >= limit * (pos + 1):
                    raise _Stuck("gr-left-recursion", f"rule {callee.name!r} is left-recursive")
                stack.append((code, pc, obj, op, proc))
                proc, code, pc, obj = callee, callee.code, 0, ModelObject(callee.cls)
                slots = obj.slots
                continue
            elif kind is JUMP:
                pc = op[1]
                continue
            elif kind is FLAG:
                if tk != "KW" or m["KW"] != op[4]:
                    continue
                slots[op[2]] = True
            else:  # RET: finish the object, then fill the slot of the CALL that opened it
                for f in proc.flags:
                    slots.setdefault(f, False)
                if bounded := proc.cls.tables().bounded:
                    miscounts += [(obj, message) for f in bounded
                                  if (message := miscount(obj, f, len(obj.values_of(f))))]
                if not stack:
                    break
                value = obj
                code, pc, obj, op, proc = stack.pop()
                slots = obj.slots
            if kind is not RET:  # a keyword, terminal or flag read its token: read the next
                m, pos = read(), pos + 1
                tk = m.lastgroup
                if kind is not TERM:
                    continue
            # written in place: in a sound grammar each operator fits its feature
            name = op[2]
            if op[5]:
                slots.setdefault(name, []).append(value)
            elif name in slots:
                raise _Stuck("syntax", f"feature {name!r} assigned twice")
            else:
                slots[name] = value
        if tk != "EOF":
            raise _Stuck("end of input")
    except _Stuck as stuck:
        tok = lexer.error_token(m, matches, text, file)  # or a lexical error, which wins
        code, message = stuck.args if len(stuck.args) == 2 else ("syntax", f"expected "
            f"{stuck.args[0]}, found " + ("end of input" if tok.kind == "EOF" else f"'{tok.text}'"))
        raise DiagnosticError([error("parse", code, message, location=tok.location)]) from None
    model = Model(obj, g.ast)
    if not a.sound:
        problems = [(d.code, d.message, d.path) for d in validate_model(model)]
    else:
        tree = miscounts and Tree(obj)  # for the paths, only once a problem was found
        problems = [("model-multiplicity", message, tree.path(o)) for o, message in miscounts]
    if problems:
        raise DiagnosticError([error("parse", code, message, path=path)
                               for code, message, path in problems])
    return model


class _Stuck(Exception):
    """parse_text stops at its lookahead token; args: what it expected, or a code and a message."""


def _expected(keys) -> str:
    names = sorted(f"'{k[1]}'" if k[0] == "kw" else k[1] for k in keys)
    return " or ".join(names) if names else "nothing"


def _enter(p: _Proc, m, kind: str) -> _Proc:
    """The concrete rule that rule ``p`` enters at match ``m``, of ``kind``."""
    key, seen = ("kw", m["KW"]) if kind == "KW" else ("term", kind), set()
    while p.code is None:
        if p in seen:
            raise _Stuck("gr-left-recursion", f"rule {p.name!r} is left-recursive")
        seen.add(p)
        q = p.table.get(key, p.default)
        if q is None:
            raise _Stuck(_expected(p.first))
        p = q
    return p


# ---------------------------------------------------------------------------
# Model to text


def render_ast(m: Model, g: Grammar) -> str:
    """Deterministic inverse of parse_text: one space between tokens, a
    newline after ';' and '}', 4-space indentation inside braces.
    parse_text(render_ast(m)) is model-equal to m. The first call for a
    grammar generates its renderer (_generate); each rule decides by what
    its object holds: an optional or loop runs while an assignment below it
    has a value left; a choice takes the first alternative with one, else
    the first without assignments. A rule that calls another yields the
    callee's generator to the loop here, which keeps the stack, so nesting
    is bounded by memory, not by the recursion limit."""
    a = g.analysis()
    rules = a.renderers or _generate(a, g.lexer().reads_as_id)
    root = m.root
    if (rule := rules.get(root.cls.name)) is None:
        raise DiagnosticError([error("grammar", "gr-no-rule", f"no concrete rule for class "
                                     f"{root.cls.name!r}", path="/")])
    line, lines, lay, problems = [], [], [0, ""], []  # lay: the depth and the line's indent
    gen, stack = rule(root, line, lines, lay, problems, set()), []
    while gen is not None:
        if (child := next(gen, None)) is not None:
            stack.append(gen)
            gen = child
        else:
            gen = stack.pop() if stack else None
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
_NESTING = 12  # the blocks a generated function nests; a deeper part becomes a function
# A renderer's parameters: its object, the open line's tokens, the lines
# done, [depth, the open line's indent], the problems, the objects in render.
_ARGS = "obj, line, lines, lay, problems, opened"
_GENERATING = threading.Lock()


def _generate(a: _Analysis, reads_as_id) -> dict:
    """Each concrete rule's renderer by name: Python generated from its
    code (Futamura's first projection), a generator that yields each
    callee's renderer if it calls rules, else a plain function. Each is
    compiled on its own; its source is in linecache as ``<mmdsl render
    Rule>``, for tracebacks, inspect and profiles."""
    with _GENERATING:  # the first thread generates; the others wait and take its renderers
        if a.renderers is not None:
            return a.renderers
        rules: dict = {}
        for proc in [p for p in a.procs.values() if p.code is not None]:
            source = _RuleSource(proc)
            file, names = f"<mmdsl render {proc.name}>", source.names
            linecache.cache[file] = (len(source.text), None, source.text.splitlines(True), file)
            names.update(RULES=rules, reads_as_id=reads_as_id, escape_string=escape_string,
                         ModelObject=ModelObject, _misplaced=_misplaced, _leftover=_leftover,
                         __name__=__name__)
            exec(compile(source.text, file, "exec"), names)
            rules[proc.name] = names["rule"]
        a.renderers = rules
        return rules


class _RuleSource:
    """The source of a concrete rule's renderer, ``rule`` and the
    ``part<k>`` functions it calls (``text``), and the constants it reads
    (``names``): PROC, NAMES (the slot names it accounts for) and each
    feature ``F<i>``, whose values it counts in ``c<i>``."""

    def __init__(self, proc: _Proc):
        code, self.code, self.funcs = proc.code, proc.code, []
        index = self.index = {f: i for i, f in enumerate(proc.feats.values())}
        self.counters = "".join(f"c{i}, " for i in index.values())
        body = self.block(0, len(code) - 1, 1)
        calls = any(op[0] is CALL for op in code)
        held = [f for f in index if f.is_attribute or f.containment]
        checks = ["slots.keys() <= NAMES", *[
            f"((v := slots.get({f.name!r})) is None or c{index[f]} >= len(v))" if f.many else
            f"(c{index[f]} or slots.get({f.name!r}) is None)" for f in held
            if f.name not in proc.flags]]
        rule = [f"def rule({_ARGS}):",
                "    slots, append = obj.slots, line.append",
                *[f"    {self.counters}= {'0, ' * len(index)}"] * bool(index),
                *["    opened.add(obj)"] * calls, *body,
                f"    if not ({' and '.join(checks)}):", "        _leftover(obj, PROC, {"
                f"{', '.join(f'F{i}: c{i}' for i in index.values())}}}, problems)",
                *["    opened.discard(obj)"] * calls]
        self.text = "\n".join(rule + [s for f in self.funcs for s in f]) + "\n"
        self.names = {f"F{i}": f for f, i in index.items()}
        self.names.update(PROC=proc, NAMES=frozenset([f.name for f in held] + list(proc.flags)))

    def avail(self, reads) -> str:
        """Whether one of the assignment ops ``reads`` has a value left to
        render: a set flag not written yet, or a value past its feature's
        count; an ID's string must read back as an ID."""
        terms = []
        for kind, f, name, many, callee, _ in reads:
            k, n = f"c{self.index[f]}", repr(name)
            if kind is FLAG:
                terms.append(f"not {k} and slots.get({n}, F{self.index[f]}.default) is True")
                continue
            test = f"(v := slots.get({n})) is not None and " + (f"{k} < len(v)" if many else
                                                                  f"not {k}")
            if callee == "ID":
                test += f" and (type(x := {f'v[{k}]' if many else 'v'}) is not str or " \
                        f"reads_as_id(x))"
            terms.append(test)
        return " or ".join([f"({t})" for t in terms]) or "False"

    def assign(self, op) -> list[str]:
        """The statements of assignment op ``op``."""
        kind, f, name, many, callee, _ = op
        k, n, i = f"c{self.index[f]}", repr(name), self.index[f]
        if kind is FLAG:
            return [f"if {self.avail((op,))}:", f"    {k} = 1",
                    *["    " + s for s in _PLACE.get(callee, (f"append({callee!r})",))]]
        x = f"v[{k}]" if many else "v"
        body = [*[f"x = {x}"] * (callee != "ID"), f"{k} += 1"]
        if kind is CALL:
            body += ["if isinstance(x, ModelObject) and x not in opened and "
                     "(r := RULES.get(x.cls.name)):",
                     "    if (r := r(x, line, lines, lay, problems, opened)) is not None: yield r",
                     f"else: _misplaced(obj, {n}, x, opened, problems)"]
        else:
            put = {"ID": "x if type(x) is str else str(x)", "INT": "str(x)",
                   "STRING": "escape_string(x)"}[callee]
            body += [f"if {'type(x) is int' if callee == 'INT' else 'isinstance(x, str)'}: "
                     f"append({put})", f"else: problems.append((obj, 'model-kind', obj.cls.name + "
                     f"{f'.{name}: value '!r} + repr(x) + ' does not fit attribute type ' + "
                     f"F{i}.type.name))"]
        out = [f"if (v := slots.get({n})) is None or {k} >= len(v):" if many else
               f"if {k} or (v := slots.get({n})) is None:",
               f"    problems.append((obj, 'gr-unset-mandatory', obj.cls.name + "
               f"{f'.{name} has no value to render'!r}))"]
        if callee == "ID":
            out += [f"elif type(x := {x}) is str and not reads_as_id(x):",
                    f"    problems.append((obj, 'gr-unset-mandatory', obj.cls.name + "
                    f"{f'.{name} value '!r} + repr(x) + ' is not an ID'))"]
        return out + ["else:", *["    " + s for s in body]]

    def block(self, lo: int, hi: int, depth: int) -> list[str]:
        """The statements that run code[lo:hi], ``depth`` blocks deep."""
        code, pad, out, pc = self.code, "    " * depth, [], lo
        if depth > _NESTING:  # a function of its own; its reads give it counters to pass
            self.funcs.append(body := [])
            k = len(self.funcs) - 1
            body += [f"def part{k}({_ARGS}, box):", "    slots, append = obj.slots, line.append",
                     f"    {self.counters}= box", *self.block(lo, hi, 1),
                     f"    box[:] = {self.counters}"]
            call = f"part{k}({_ARGS}, b)"  # in a part, ``box`` holds the caller's counters
            calls = any(op[0] is CALL for op in code[lo:hi])
            return [pad + s for s in (f"b = [{self.counters}]", f"if (r := {call}) is not None:"
                                      f" yield r" if calls else call, f"{self.counters}= b")]
        while pc < hi:
            op = code[pc]
            kind = op[0]
            if kind is KW:
                out += [pad + s for s in _PLACE.get(op[1], (f"append({op[1]!r})",))]
            elif kind is TEST and op[4]:  # a '+' loop's first TEST; the loop follows
                out += [f"{pad}if not ({self.avail(op[3])}):", f"{pad}    problems.append((obj, "
                        f"'gr-unset-mandatory', \"'+' repetition has nothing to render\"))"]
            elif kind is TEST:  # a loop if its part ends with a jump back here, else optional
                end = op[2]
                loop = code[end - 1] == (JUMP, pc)
                if op[3]:
                    out += [f"{pad}{'while' if loop else 'if'} {self.avail(op[3])}:",
                            *self.block(pc + 1, end - 1 if loop else end, depth + 1)]
                pc = end
                continue
            elif kind is CHOICE:  # the first alternative with a value, else ``bare``
                _, _, default, _, end, alts, bare, _ = op
                stops = dict(zip([s for _, s in alts], [s - 1 for _, s in alts[1:]] + [end]))
                arms, t = [(reads, s) for reads, s in alts if reads], f"t{pc}"
                # flat ifs on a flag, not an elif chain, which the compiler nests one deeper each
                out += [f"{pad}{t} = 1"] * bool(arms)
                for reads, s in arms:
                    out += [f"{pad}if {t} and ({self.avail(reads)}):", f"{pad}    {t} = 0",
                            *self.block(s, stops[s], depth + 1)]
                tail = self.block(bare, stops[bare], depth + bool(arms)) if bare != end else [
                    f"{pad}{'    ' * bool(arms)}problems.append((obj, 'gr-unset-mandatory', "
                    f"'no renderable alternative in group'))"] if default is None else []
                out += [f"{pad}if {t}:"] * bool(arms and tail) + tail
                pc = end
                continue
            else:
                out += [pad + s for s in self.assign(op)]
            pc += 1
        return out or [pad + "pass"]


def _misplaced(obj: ModelObject, name: str, value, opened: set, problems: list):
    """The problem with ``value``, in slot ``name`` of ``obj``, that no rule renders."""
    if not isinstance(value, ModelObject):
        problems.append((obj, "model-kind",
                         f"{obj.cls.name}.{name}: expected an object, found {value!r}"))
    elif value in opened:
        problems.append((obj, "model-containment",
                         f"object of class {value.cls.name} is contained more than once"))
    else:
        problems.append((value, "gr-no-rule", f"no concrete rule for class {value.cls.name!r}"))


def _leftover(obj: ModelObject, proc: _Proc, used: dict, problems: list):
    """Report each slot of ``obj`` with values rule ``proc`` left, but flags and cross slots."""
    for name, v in obj.slots.items():
        if v is None or name in proc.flags:
            continue
        # looked up by name only for a slot that no assignment of the rule reads
        f = proc.feats.get(name) or obj.cls.find_feature(name)
        if f is not None and (used.get(f, 0) >= (len(v) if f.many else 1)
                              or not f.is_attribute and not f.containment):
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
    if diags:
        raise DiagnosticError(diags)

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
    """A random valid model that render_ast can always emit. Runs the
    compiled code from the entry rule as parse_text does, in one loop on an
    explicit stack, and decides wherever the parser would read a token: an
    optional part or a loop pass is taken with even odds, at most 4 passes,
    and a '+' loop makes its first pass; a choice and an abstract rule take
    a random alternative; a flag is set with even odds. ``max_depth``
    counts rule calls: past it, optional parts are skipped, a '+' loop makes
    one pass, and a choice or an abstract rule takes the alternative of
    least height, so the model ends. A pass is taken only if the values it
    adds still fit every finite upper bound (see _room); while a feature it
    assigns has fewer values than its lower bound, it is taken, past
    ``max_depth`` too (see _short), and so is a choice's first alternative
    that assigns such a feature, before any draw."""
    if stuck := _unproductive(g, _reachable_rules(g)):
        raise DiagnosticError(stuck)
    a = g.analysis()
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
        while p.code is None:
            alts = g.by_name[p.name].alternatives
            p = a.procs[min(alts, key=a.height.get) if depth > max_depth else rng.choice(alts)]
        return p

    terminal = {"ID": rand_id, "STRING": rand_string, "INT": lambda: rng.randint(0, 20)}
    # past max_depth a rule runs alike at every depth: a longer chain of passes
    # forced by lower bounds repeats without end, as no finite model meets them
    forced_depth = max_depth + len(a.procs)
    stack = []  # below the top frame: (code, pc, obj, passes, op, proc), op the CALL it fills
    proc = enter(a.procs[g.entry], 0)
    code, pc, obj, passes = proc.code, 0, ModelObject(proc.cls), {}  # passes: loop head -> count
    while True:
        op = code[pc]
        pc += 1
        kind = op[0]
        if kind is TERM:
            value = terminal[op[4]]()
        elif kind is CALL:
            stack.append((code, pc, obj, passes, op, proc))
            proc = enter(op[4], len(stack))
            code, pc, obj, passes = proc.code, 0, ModelObject(proc.cls), {}
            continue
        elif kind is TEST:
            if op[4]:  # a '+' loop: its first pass is taken, past its head TEST
                passes[pc] = 1
                pc += 1
            elif ((len(stack) <= forced_depth and passes.get(pc - 1, 0) < _short(op[3], obj)
                   and _room(code, op, obj))
                  or (len(stack) <= max_depth and passes.get(pc - 1, 0) < 4
                      and rng.random() < 0.5 and _room(code, op, obj))):
                if code[op[2] - 1] == (JUMP, pc - 1):  # a loop's head: count the pass
                    passes[pc - 1] = passes.get(pc - 1, 0) + 1
            else:
                passes.pop(pc - 1, None)
                pc = op[2]
            continue
        elif kind is CHOICE:  # an alternative's start is never 0
            short = len(stack) <= forced_depth and next(
                (start for reads, start in op[5] if _short(reads, obj)), None)
            pc = short or (op[7] if len(stack) > max_depth else rng.choice(op[5])[1])
            continue
        elif kind is JUMP:
            pc = op[1]
            continue
        elif kind is not RET:  # a keyword, or a flag: set with even odds
            if kind is FLAG and rng.random() < 0.5:
                obj.slots[op[2]] = True
            continue
        else:  # RET: finish the object, then fill the slot of the CALL that opened it
            for f in proc.flags:
                obj.slots.setdefault(f, False)
            if not stack:
                return Model(obj, g.ast)
            value = obj
            code, pc, obj, passes, op, proc = stack.pop()
        if op[5]:
            obj.slots.setdefault(op[2], []).append(value)
        else:
            obj.slots.setdefault(op[2], value)  # a second '=' keeps the first value


def _short(reads: tuple, obj: ModelObject) -> int:
    """If a feature that the assignment ops ``reads`` assign has fewer
    values in ``obj`` than its lower bound, the sum of those bounds, else 0.
    A loop makes at most that many forced passes, as a pass may assign
    nothing: enough to fill each of them from no values."""
    feats = {o[1] for o in reads if o[1].lower}
    short = any(len(obj.values_of(f)) < f.lower for f in feats)
    return sum([f.lower for f in feats]) if short else 0


def _room(code: tuple, op: tuple, obj: ModelObject) -> bool:
    """Whether ``obj`` has room for one more pass of the part that TEST
    ``op`` guards: for each feature with a finite upper bound, its values,
    the '+=' assignments in ``op``'s reads and those from the part's end
    on, each op counted once, stay within the bound."""
    adds = Counter([o[1] for o in op[3] if o[5] and o[1].upper is not UNBOUNDED])
    if adds:
        adds.update([o[1] for o in code[op[2]:] if (o[0] is TERM or o[0] is CALL) and o[5]
                     and o[1] in adds])
    return all(len(obj.values_of(f)) + k <= f.upper for f, k in adds.items())
