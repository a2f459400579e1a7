"""Exact symbolic identity suites for quantum principal bundle calculi.

Finitely presented noncommutative graded differential algebras over an
exact rational-function coefficient field, with Hopf-Galois maps, complete
calculi, vertical/horizontal/base decompositions, connections, and the
extended braiding, verified at configurable truncation on built-in bundles.
"""

from .scalars import Parameter, Scalar, q_binomial
from .ncalg import (
    AlgebraPresentation,
    GeneratorSymbol,
    NCPoly,
    RewriteRule,
)
from .tensors import TensorPoly
from .hopf import HopfPresentation
from .comodule import (
    BalancedTensor,
    ComoduleAlgebra,
    TranslationData,
    chi,
    chi_inv,
    sigma,
    tau,
    tau_identity_suite,
)
from .calculus import (
    DiffCalculus,
    Element,
    GradedTensor,
    cartan_maurer,
    cartan_maurer_equation_check,
    max_prolongation_degree2,
)
from .qpb import CompleteCalculus
from .braidext import (
    GradedBalancedTensor,
    chi_bullet,
    chi_bullet_inv,
    graded_identity_suite,
    sigma_bullet,
    tau_bullet,
)
from .report import CheckReport
from .examples import (
    EXAMPLE_NAMES,
    CrossedProductData,
    ExampleBundle,
    build_example,
    crossed_product,
    oracle_crosscheck,
)
from .fileformat import parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AlgebraPresentation", "BalancedTensor", "CheckReport",
    "ComoduleAlgebra", "CompleteCalculus", "CrossedProductData",
    "DiffCalculus", "EXAMPLE_NAMES", "Element", "ExampleBundle",
    "GeneratorSymbol", "GradedBalancedTensor", "GradedTensor",
    "HopfPresentation", "NCPoly", "Parameter", "RewriteRule", "Scalar",
    "TensorPoly", "TranslationData", "build_example", "cartan_maurer",
    "cartan_maurer_equation_check", "chi", "chi_bullet", "chi_bullet_inv",
    "chi_inv", "crossed_product", "graded_identity_suite",
    "max_prolongation_degree2", "oracle_crosscheck", "parse", "q_binomial",
    "serialize", "sigma", "sigma_bullet", "tau", "tau_bullet",
    "tau_identity_suite",
]
