"""Metamodel-first textual DSL workbench kernel.

Design a target metamodel, derive its AST metamodel with a small
transformation script, generate a parser from a grammar to read DSL text
into AST models, and run the trace-driven AST-to-model transformation with
pluggable name resolution; the reverse path renders models back to text.
"""

from .diagnostics import Diagnostic, DiagnosticError, SourceLocation, sort_diagnostics
from .emfatic import parse_metamodel, print_metamodel
from .grammar import (
    Grammar, check_grammar, generate_grammar_skeleton, generate_random_model,
    parse_grammar, parse_text, render_ast,
)
from .meta import (
    UNBOUNDED, MetaAttribute, MetaClass, MetaDataType, Metamodel,
    MetaReference, Model, ModelObject, builtin_ecore, classifier_object,
    is_subtype, model_equals, validate_metamodel, validate_model,
)
from .modeltext import dump_model, load_model
from .transform import (
    DEFER, Namespace, ResolutionContext, ResolverRegistry, TransformPlan,
    build_plan, namespace_registry, parse_config, transform_ast_to_model,
    transform_model_to_ast,
)
from .xf import (
    Trace, Transformation, default_mapping, derive_ast_metamodel, format_trace,
    parse_trace, parse_transformation, transformation_to_model,
)

__all__ = [
    "DEFER", "Diagnostic", "DiagnosticError", "Grammar", "MetaAttribute",
    "MetaClass", "MetaDataType", "MetaReference", "Metamodel", "Model",
    "ModelObject", "Namespace", "ResolutionContext", "ResolverRegistry",
    "SourceLocation", "Trace", "TransformPlan", "Transformation", "UNBOUNDED",
    "build_plan", "builtin_ecore", "check_grammar", "classifier_object",
    "default_mapping", "derive_ast_metamodel",
    "dump_model", "format_trace", "generate_grammar_skeleton",
    "generate_random_model", "is_subtype", "load_model", "model_equals",
    "namespace_registry", "parse_config", "parse_grammar", "parse_metamodel",
    "parse_text", "parse_trace", "parse_transformation", "print_metamodel",
    "render_ast", "sort_diagnostics", "transform_ast_to_model",
    "transform_model_to_ast", "transformation_to_model", "validate_metamodel",
    "validate_model",
]
