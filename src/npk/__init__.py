"""npk: near-point kit.

Computable Weil-algebra calculus: monomial-quotient Weil algebras,
near points of chart models, nilpotent Taylor lifts of smooth
expressions, vector fields on the near-point manifold with their A-Lie
algebra, A-valued differential forms with an exterior-type operator,
and desk-scale cohomology checks (Poincare homotopy on boxes, Fourier
classes on the circle).
"""

from .expr import DifferentialForm, Expr, VectorField, diff, evaluate, parse, unparse
from .fields import AVectorField, bracket, from_derivation, prolong
from .forms import AForm, palais_eval, prolong_form, wedge
from .functions import AFunction, ScalarGenerator, lifted_function
from .points import Chart, NearPoint, NearPoints, TangentVector, lift, lift_map
from .weil import (
    AElement,
    Derivation,
    LinearEndo,
    Presentation,
    WeilAlgebra,
    build_algebra,
    derivation_basis,
    dual_coefficient,
    is_derivation,
    parse_presentation,
)

__version__ = "0.1.0"

__all__ = [
    "AElement",
    "AForm",
    "AFunction",
    "AVectorField",
    "Chart",
    "Derivation",
    "DifferentialForm",
    "Expr",
    "LinearEndo",
    "NearPoint",
    "NearPoints",
    "Presentation",
    "ScalarGenerator",
    "TangentVector",
    "VectorField",
    "WeilAlgebra",
    "bracket",
    "build_algebra",
    "derivation_basis",
    "diff",
    "dual_coefficient",
    "evaluate",
    "from_derivation",
    "is_derivation",
    "lift",
    "lift_map",
    "lifted_function",
    "palais_eval",
    "parse",
    "parse_presentation",
    "prolong",
    "prolong_form",
    "unparse",
    "wedge",
]
