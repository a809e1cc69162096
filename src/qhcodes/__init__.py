"""Point sets in PG(r, q^2), few-weight projective codes, and secret
sharing built on their duals.

The layers, bottom up:

    gf       exp/log arithmetic for GF(p^m) with pinned moduli
    geom     canonically ordered projective spaces and linear algebra
    variety  the point-set builders and intersection spectra
    code     weight distributions and minimality criteria
    sss      dealing, recovery, access structures, development
    verify   the acceptance checks the command line aggregates
"""

import os

# The one BLAS call in qhcodes, the odd-characteristic transform's
# dgemm, multiplies a block of at most 2^16 entries by a small character
# matrix: with one thread it runs on the main thread, and OpenBLAS's
# idle workers would only compete with it for the CPU.  The pool is sized
# when numpy first loads, so this must run before any import below; a
# value already in the environment wins, and a numpy imported earlier
# keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .budget import BudgetError, DEFAULT_BUDGET, check_budget
from .gf import (CONWAY_POLYNOMIALS, FieldError, FiniteField,
                 factor_prime_power, field_for_order, make_field)
from .geom import ProjectiveSpace, pg_space, num_points
from .variety import (POINT_ORDER_VERSION, Clause, ParamsError, Predicted,
                      SpectrumReport, TwistedParams, ValidationReport,
                      Variety, build_cone, build_hermitian,
                      build_quasi_hermitian, build_twisted,
                      build_twisted_at_infinity, build_variety, cone_size,
                      default_params, hermitian_size, hyperplane_spectrum,
                      hyperplane_section_sizes, line_spectrum,
                      line_section_sizes, predicted_line_sizes,
                      predicted_spectrum, require_valid, surgery_check,
                      validate_params)
from .code import (ABReport, CodeError, CuttingReport, DivisibilityReport,
                   HigherWeightReport, LinearCode, MinimalityReport,
                   WeightDistribution, ab_condition, code_from_variety,
                   cutting_blocking_check, divisibility_report,
                   higher_weight, minimality_bruteforce, minimality_summary,
                   weights_bruteforce, weights_from_sections)
from .sss import (AccessStructure, DealReport, DemocracyReport, Fixture,
                  InconsistentSharesError, NotQualifiedError, PermGroup,
                  PerfectnessReport, SSSError, Scheme, access_structure,
                  deal, democracy_report, develop, group_closure,
                  load_fixture, parse_cycles, perfectness_check, recover,
                  verify_example)

__version__ = "0.1.0"
