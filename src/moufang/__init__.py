"""Equational reasoning toolkit for nonassociative, noncoassociative bialgebras.

Subpackages cover string-diagram terms and their canonical forms, a text
DSL with renderers, a bounded bidirectional rewrite prover, a catalog of
axiom systems and goals, exact finite bialgebra models (Moufang loop and
function algebras, truncated binomial algebra), generalized octonion and
Malcev algebra construction, and truncated-deformation linear algebra.
"""

from .diagram import (
    Diagram,
    canonicalize,
    compose,
    flip,
    generator,
    identity,
    tensor,
)
from .dsl import parse, print_diagram, render
from .models import (
    FiniteBialgebraModel,
    MoufangLoop,
    evaluate,
    function_bialgebra,
    holds_identity,
    loop_bialgebra,
    truncated_binomial_bialgebra,
)
from .rewrite import ProofTrace, RewriteRule, SearchBudget, prove_equal
from .theories import Theory, builtin_theory, goal_suite, named_theory

__version__ = "0.1.0"

__all__ = [
    "Diagram", "canonicalize", "compose", "flip", "generator", "identity",
    "tensor", "parse", "print_diagram", "render",
    "FiniteBialgebraModel", "MoufangLoop", "evaluate", "function_bialgebra",
    "holds_identity", "loop_bialgebra", "truncated_binomial_bialgebra",
    "ProofTrace", "RewriteRule", "SearchBudget", "prove_equal",
    "Theory", "builtin_theory", "goal_suite", "named_theory",
]
