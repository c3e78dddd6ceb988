"""hhaudit: numerical audit of extended Hermite-Hadamard-type inequalities.

Library layout:

* :mod:`hhaudit.core` - the one interval type, ``Interval``, for the base and
  the widened interval (:func:`extend`), tolerances, truncated results
  (``SeriesResult``), bound reports, convexity sampling;
* :mod:`hhaudit.exprlang` - the one-variable function grammar and
  forward-mode jet evaluation (f, f', f'', f''');
* :mod:`hhaudit.oracle` - the one adaptive refinement loop and the
  Gauss-Kronrod reference integrator;
* :mod:`hhaudit.hh_bounds` - the inequality battery (classical bound, lemma
  identities, three-point bounds, first/second-derivative constants);
* :mod:`hhaudit.means` - special means and their proposition checks;
* :mod:`hhaudit.quadrature` - composite rules, midpoint error certificates,
  adaptive certified integration;
* :mod:`hhaudit.special_fns` - modified Bessel functions, q-digamma, and
  their inequality checks;
* :mod:`hhaudit.cli` - the ``hhaudit`` command.
"""

from .core import (
    BoundReport,
    ConvergenceError,
    DEFAULT_TOL,
    DomainError,
    Interval,
    PreconditionError,
    ToleranceConfig,
    conjugate_exponent,
    extend,
    sample_convexity,
)
from .exprlang import Expr, Jet3, ParseError, eval_jet, parse

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConvergenceError",
    "DEFAULT_TOL",
    "DomainError",
    "Expr",
    "Interval",
    "Jet3",
    "ParseError",
    "PreconditionError",
    "ToleranceConfig",
    "conjugate_exponent",
    "eval_jet",
    "extend",
    "parse",
    "sample_convexity",
    "__version__",
]
