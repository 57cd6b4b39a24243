"""Uniform problem reporting for every phase of the toolkit.

A Diagnostic carries either a source location (file:line:col) or a model
object path (slash-separated containment steps); never both. Codes come
from the CODES registry below so tooling can rely on a stable vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

SEVERITIES = ("error", "warning")
PHASES = ("metamodel", "transformation", "grammar", "parse", "resolve", "validate")

# code -> short description. Every diagnostic produced anywhere in the
# toolkit must use one of these.
CODES = {
    "syntax": "malformed input text",
    "lexical": "unrecognized or malformed token",
    "name-unresolved": "a referenced name does not resolve",
    "name-duplicate": "a name is defined more than once in one scope",
    "mm-identifier": "classifier or feature name is not a valid identifier",
    "mm-duplicate-classifier": "two classifiers share a name",
    "mm-duplicate-feature": "two features of one class share a name",
    "mm-inheritance-cycle": "a class is its own transitive supertype",
    "mm-bad-supertype": "supertype does not resolve to a known class",
    "mm-bad-type": "feature type does not resolve or has the wrong kind",
    "mm-bounds": "feature bounds are inconsistent",
    "mm-bad-default": "default value does not match the attribute type",
    "model-unknown-class": "object instantiates a class the metamodel lacks",
    "model-abstract": "object instantiates an abstract class",
    "model-unknown-feature": "slot names a feature the class lacks",
    "model-kind": "slot value kind does not match the feature kind",
    "model-multiplicity": "slot value count violates the feature bounds",
    "model-dangling": "cross reference targets an object outside the model",
    "model-containment": "containment edges do not form a tree",
    "xf-name-collision": "class name collision while deriving the AST metamodel",
    "xf-translate-conflict": "two translations disagree on one feature",
    "xf-dangling-type": "a surviving AST class references a removed image",
    "xf-removed-supertype": "a removed image is a supertype of a surviving class",
    "xf-bad-action": "action arguments are invalid",
    "gr-unknown-rule": "rule reference does not resolve",
    "gr-unknown-class": "rule name does not match an AST class",
    "gr-unknown-feature": "assignment names a feature the class lacks",
    "gr-operator": "assignment operator does not fit the feature multiplicity",
    "gr-type": "assignment callee does not fit the feature type",
    "gr-left-recursion": "rule is left-recursive",
    "gr-unproductive": "rule derives no finite text",
    "gr-ambiguous": "alternatives or optional parts share their first tokens",
    "gr-cross-reference": "AST metamodel still has cross references",
    "gr-no-rule": "no grammar rule for an object's class",
    "gr-unset-mandatory": "mandatory assignment has no value to render",
    "plan-stale": "trace does not match the given metamodels",
    "plan-untranslated": "a cross reference was never translated",
    "resolve-unresolved": "a textual reference stayed unresolved",
    "resolve-type": "a resolved object does not conform to the feature type",
    "resolve-no-rule": "no resolver or placement covers a plan instruction",
    "resolve-root": "the target model root cannot be determined",
    "reverse-unnamed": "no unique textual reference for a target object",
    "reverse-unsupported": "model cannot be mapped back to an AST",
    "config": "configuration file is invalid",
    "io": "file cannot be read or written",
}


@dataclass(frozen=True)
class SourceLocation:
    """A place in a file; a whole file (an ``io`` problem) has no line."""
    file: str
    line: int | None = None
    column: int | None = None

    def __str__(self):
        return self.file if self.line is None else f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    phase: str
    code: str
    message: str
    location: SourceLocation | None = None
    path: str | None = None

    def __post_init__(self):
        assert self.severity in SEVERITIES, self.severity
        assert self.phase in PHASES, self.phase
        assert self.code in CODES, self.code
        assert self.message
        assert not (self.location and self.path)

    def render(self) -> str:
        if self.location is not None:
            prefix = str(self.location)
        elif self.path is not None:
            prefix = f"model:{self.path}"
        else:
            prefix = "<input>"
        return f"{prefix}: {self.severity}[{self.code}]: {self.message}"

    def to_json(self) -> str:
        data = {
            "severity": self.severity,
            "phase": self.phase,
            "code": self.code,
            "message": self.message,
        }
        if self.location is not None:
            data["file"] = self.location.file
            if self.location.line is not None:
                data["line"], data["column"] = self.location.line, self.location.column
        if self.path is not None:
            data["path"] = self.path
        return json.dumps(data, sort_keys=True)


def error(phase, code, message, location=None, path=None) -> Diagnostic:
    return Diagnostic("error", phase, code, message, location=location, path=path)


def warning(phase, code, message, location=None, path=None) -> Diagnostic:
    return Diagnostic("warning", phase, code, message, location=location, path=path)


def sort_diagnostics(diags) -> list[Diagnostic]:
    """Stable order: source-located first (file, line, column, code), then
    model-path diagnostics (path, code)."""

    def key(d: Diagnostic):
        if d.location is not None:
            loc = d.location
            return (0, loc.file, loc.line or 0, loc.column or 0, d.code, d.message)
        return (1, d.path or "", 0, 0, d.code, d.message)

    return sorted(diags, key=key)


class DiagnosticError(Exception):
    """Raised by operations whose contract is "result or diagnostics"."""

    def __init__(self, diagnostics):
        self.diagnostics = sort_diagnostics(list(diagnostics))
        summary = "; ".join(d.render() for d in self.diagnostics[:3])
        if len(self.diagnostics) > 3:
            summary += f"; ... ({len(self.diagnostics)} total)"
        super().__init__(summary)


def raise_any(diags) -> None:
    """Raise ``diags`` as a DiagnosticError, if there are any."""
    if diags:
        raise DiagnosticError(diags) from None


def has_errors(diags) -> bool:
    return any(d.severity == "error" for d in diags)
