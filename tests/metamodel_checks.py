"""Metamodel comparisons that only the tests use: structural equality of
two metamodels, with or without classifier order, and the check that every
order of a script's actions derives an isomorphic AST metamodel."""

import itertools
import math
import random

from mmdsl.meta import Classifier, Metamodel
from mmdsl.xf import Transformation, derive_ast_metamodel


def metamodel_equals(a: Metamodel, b: Metamodel) -> bool:
    """Structural equality, order-sensitive (classifier and feature order)."""
    if len(a.classifiers) != len(b.classifiers):
        return False
    return all(_classifier_eq(x, y) for x, y in zip(a.classifiers, b.classifiers))


def metamodel_isomorphic(a: Metamodel, b: Metamodel) -> bool:
    """Structural equality up to classifier ordering (names must match)."""
    an = {c.name: c for c in a.classifiers}
    bn = {c.name: c for c in b.classifiers}
    if set(an) != set(bn):
        return False
    return all(_classifier_eq(an[k], bn[k]) for k in an)


def _classifier_eq(x: Classifier, y: Classifier) -> bool:
    if x.name != y.name or x.is_class != y.is_class:
        return False
    if not x.is_class:
        return x.kind == y.kind
    if x.abstract != y.abstract:
        return False
    if [s.name for s in x.supertypes] != [s.name for s in y.supertypes]:
        return False
    if len(x.features) != len(y.features):
        return False
    for f, g in zip(x.features, y.features):
        if (f.name, f.lower, str(f.upper), f.is_attribute) != (g.name, g.lower, str(g.upper), g.is_attribute):
            return False
        if f.type.name != g.type.name:
            return False
        if f.is_attribute:
            if f.default != g.default:
                return False
        elif f.containment != g.containment:
            return False
    return True


def action_permutation_check(target: Metamodel, t: Transformation,
                             max_permutations: int = 24, rng: random.Random | None = None) -> bool:
    """True iff derivation over (sampled) permutations of the action list is
    isomorphic to the canonical derivation."""
    base, _ = derive_ast_metamodel(target, t)
    n = len(t.actions)
    if math.factorial(n) <= max_permutations:
        perms = itertools.permutations(t.actions)
    else:
        rng = rng or random.Random(0)
        perms = [rng.sample(t.actions, n) for _ in range(max_permutations)]
    for perm in perms:
        ast, _ = derive_ast_metamodel(target, Transformation(list(perm)))
        if not metamodel_isomorphic(base, ast):
            return False
    return True
