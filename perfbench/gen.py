"""Seeded input generators for the benchmark workloads.

Every generator returns the text it produced together with its own ground
truth, built while generating and never read back from mmdsl, so the
oracles in ``workloads.py`` stay independent of the code under test. The
same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


def stratified_sizes(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n sizes drawn log-uniformly over [lo, hi], one per equal-width stratum
    of log-size, then shuffled. The size mix is then almost the same for
    every seed, which keeps medians and percentiles comparable across seeds."""
    span = math.log(hi / lo)
    sizes = [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _escape(value: str) -> str:
    table = {"\n": "\\n", "\t": "\\t", '"': '\\"', "\\": "\\\\"}
    return '"' + "".join(table.get(c, c) for c in value) + '"'


# ---------------------------------------------------------------------------
# CSS rule files


@dataclass
class CssDoc:
    text: str
    rules: list[tuple[str, list[tuple[str, str]]]]  # selector, (property, value)*

    def expected_selectors(self) -> list[tuple[str, list[tuple[str, str]]]]:
        """Selectors in first-appearance order, each with the declarations
        of all its rules in source order: what the merging transform owes."""
        merged: dict[str, list[tuple[str, str]]] = {}
        for sel, decls in self.rules:
            merged.setdefault(sel, []).extend(decls)
        return list(merged.items())


_CSS_PROPS = ["color", "margin", "padding", "border", "fontSize", "fontWeight",
              "lineHeight", "display", "position", "zIndex", "opacity", "width",
              "height", "background", "textAlign", "overflow"]
_CSS_VALUE_CHARS = "abcdefxyz0123456789 #%.-(),"


def css_doc(rng: random.Random, size_bytes: float) -> CssDoc:
    """Rules until the text reaches size_bytes. Selectors come from a
    Zipf-skewed pool (weight 1/rank), so popular selectors recur and merge."""
    pool = max(4, int(size_bytes / 120))
    weights = [1.0 / (k + 1) for k in range(pool)]
    names = [f"s{k}" for k in range(pool)]
    rules: list[tuple[str, list[tuple[str, str]]]] = []
    lines: list[str] = []
    length = 0
    while length < size_bytes:
        sel = rng.choices(names, weights)[0]
        decls = []
        for _ in range(rng.randint(1, 6)):
            prop = rng.choice(_CSS_PROPS) + str(rng.randrange(4))
            value = "".join(rng.choice(_CSS_VALUE_CHARS) for _ in range(rng.randint(1, 12)))
            if rng.random() < 0.05:
                value += rng.choice(['"', "\\", "\t"])
            decls.append((prop, value))
        rules.append((sel, decls))
        block = [f".{sel} {{"] + [f"    {p} : {_escape(v)} ;" for p, v in decls] + ["}"]
        lines.extend(block)
        length += sum(len(x) + 1 for x in block)
    return CssDoc("\n".join(lines) + "\n", rules)


# ---------------------------------------------------------------------------
# Transformation scripts in the self-hosted .xf language


@dataclass
class XfFeature:
    kind: str  # Attribute | Reference
    name: str
    type: str  # written name
    lower: int | None
    upper: int | None
    containment: bool = False


@dataclass
class XfAction:
    cls: str  # CreateClass | TranslateReferences | ChangeInheritance | SkipClass
    name: str | None = None
    abstract: bool = False
    include_descendants: bool = False
    refs: dict[str, list[str]] = field(default_factory=dict)  # feature -> written names
    features: list[XfFeature] = field(default_factory=list)


@dataclass
class XfDoc:
    text: str
    actions: list[XfAction]
    planted: list[tuple[str, str]]  # (code, written name) of every unresolvable reference


@dataclass(frozen=True)
class XfNames:
    """Classifier names a reference may use: every one resolves through the
    selfhost namespace config (ecore, target and AST classifiers)."""
    classes: tuple[str, ...]  # resolve to EClass stand-ins
    datatypes: tuple[str, ...]  # resolve to EDataType stand-ins
    ecore: frozenset[str]  # names that may also be written ecore::Name


def _bare(name: str) -> str:
    return name.rsplit("::", 1)[-1]


class XfGenerator:
    """Scripts mixing create, refer, skip and make statements. With
    ``unresolved`` > 0 that share of references names classifiers that do
    not exist, and each such name is planted as one expected
    ``resolve-unresolved`` diagnostic."""

    def __init__(self, rng: random.Random, names: XfNames, unresolved: float = 0.0):
        self.rng = rng
        self.names = names
        self.unresolved = unresolved
        self.planted: list[tuple[str, str]] = []
        self.counter = 0

    def _fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _written(self, pool: tuple[str, ...]) -> str:
        if self.unresolved and self.rng.random() < self.unresolved:
            name = self._fresh("Undefined")
            form = self.rng.random()
            if form < 0.3:
                name = "ecore::" + name
            elif form < 0.4:
                name = self._fresh("nowhere") + "::" + name
            self.planted.append(("resolve-unresolved", name))
            return name
        name = self.rng.choice(pool)
        if name in self.names.ecore and self.rng.random() < 0.5:
            return "ecore::" + name
        return name

    def _cls(self) -> str:
        return self._written(self.names.classes)

    def _classifier(self) -> str:
        return self._written(self.names.classes + self.names.datatypes)

    def _bounds(self) -> tuple[int | None, int | None]:
        if self.rng.random() < 0.5:
            return None, None
        lo = self.rng.randint(0, 3)
        return lo, lo + self.rng.randint(1, 6)

    def action(self) -> tuple[XfAction, str]:
        rng = self.rng
        kind = rng.random()
        if kind < 0.4:
            a = XfAction("CreateClass", name=self._fresh("New"), abstract=rng.random() < 0.3)
            head = "create " + ("abstract " if a.abstract else "") + f"class {a.name}"
            if rng.random() < 0.5:
                supers = [self._cls() for _ in range(rng.randint(1, 3))]
                a.refs["superclasses"] = supers
                head += " extends " + ", ".join(supers)
            body = []
            for _ in range(rng.randint(0, 5)):
                lo, hi = self._bounds()
                bounds = "" if lo is None else f" [{lo} .. {hi}]"
                fname = self._fresh("f")
                if rng.random() < 0.5:
                    t = self._written(self.names.datatypes)
                    a.features.append(XfFeature("Attribute", fname, t, lo, hi))
                    body.append(f"    attr {t}{bounds} {fname};")
                else:
                    t = self._cls()
                    val = rng.random() < 0.5
                    a.features.append(XfFeature("Reference", fname, t, lo, hi, val))
                    body.append(f"    {'val' if val else 'ref'} {t}{bounds} {fname};")
            return a, "\n".join([head + " {"] + body + ["}"])
        if kind < 0.6:
            a = XfAction("TranslateReferences", include_descendants=rng.random() < 0.5)
            proto, textual = self._cls(), self._classifier()
            a.refs = {"modelReferenceType": [proto], "textualReferenceType": [textual]}
            plus = "+" if a.include_descendants else ""
            return a, f"refer img({proto}){plus} as {textual};"
        if kind < 0.8:
            a = XfAction("SkipClass", include_descendants=rng.random() < 0.5)
            target = self._cls()
            a.refs = {"target": [target]}
            return a, f"skip {target}{'+' if a.include_descendants else ''};"
        a = XfAction("ChangeInheritance")
        target = self._cls()
        a.refs = {"target": [target]}
        if rng.random() < 0.3:
            return a, f"make img({target}) extend nothing;"
        supers = [self._cls() for _ in range(rng.randint(1, 3))]
        a.refs["superclasses"] = supers
        return a, f"make img({target}) extend {', '.join(supers)};"

    def doc(self, size_bytes: float, deep_segments: int = 0) -> XfDoc:
        """Statements until the text reaches size_bytes. A positive
        deep_segments adds one skip of an unresolvable qualified name with
        that many segments."""
        self.planted = []
        actions, parts, length = [], [], 0
        while length < size_bytes or (self.unresolved and not self.planted):
            a, text = self.action()
            actions.append(a)
            parts.append(text)
            length += len(text) + 1
        if deep_segments:
            deep = "::".join(self._fresh("d") for _ in range(deep_segments))
            a = XfAction("SkipClass", refs={"target": [deep]})
            pos = self.rng.randrange(len(actions) + 1)
            actions.insert(pos, a)
            parts.insert(pos, f"skip {deep};")
            self.planted.append(("resolve-unresolved", deep))
        return XfDoc("\n".join(parts) + "\n", actions, sorted(self.planted))


def expected_action_view(a: XfAction) -> tuple:
    """What the forward transform owes for one action whose references all
    resolve: its class, name, flags, the classifier name behind every
    reference and its features, with the grammar's default bounds 0..1."""
    refs = tuple(sorted((f, tuple(_bare(n) for n in names))
                        for f, names in a.refs.items() if names))
    feats = tuple((f.kind, f.name, _bare(f.type), 0 if f.lower is None else f.lower,
                   1 if f.upper is None else f.upper, f.containment) for f in a.features)
    return a.cls, a.name, a.abstract, a.include_descendants, refs, feats


# ---------------------------------------------------------------------------
# Generated languages for the set-up workload


@dataclass
class LangDoc:
    mm_text: str
    xf_text: str
    expected_ast_classes: list[str]


LANG_XF = ("create class QN {\n    attr String name;\n    val QN subQN;\n}\n"
           "refer img(C0)+ as QN;\n")


def lang_doc(rng: random.Random, n_classes: int) -> LangDoc:
    """A target metamodel of n_classes classes, all rooted at abstract C0.
    Class k extends class (k-1)//2, a balanced inheritance tree, and
    declares the same three features: an attribute, a containment and a
    cross reference, their types random classes. The seed moves the type
    edges, not the size of the metamodel or its grammar.
    The script makes every cross reference a textual QN, so the AST
    metamodel needs no further translation and the grammar skeleton
    applies."""
    lines = ["abstract class C0 {", "    attr String name;", "}"]
    for k in range(1, n_classes):
        pick = lambda: f"C{rng.randrange(n_classes)}"  # noqa: E731
        lines += [f"class C{k} extends C{(k - 1) // 2} {{",
                  f"    attr int a{k};", f"    val {pick()}[*] kids{k};",
                  f"    ref {pick()} link{k};", "}"]
    expected = [f"C{k}AS" for k in range(n_classes)] + ["QN"]
    return LangDoc("\n".join(lines) + "\n", LANG_XF, expected)
