"""Numerical laboratory for noncommutative martingale decompositions
(Cuculescu, Gundy, Calderon-Zygmund) and dyadic pseudo-localization of
Hilbert-space-valued singular integrals on finite matrix algebras."""

from .errors import ContractViolation, NumericError
from .opcore import (Algebra, Interval, MuFunction, Op, dense_algebra,
                     l2_inner, l2_norm, mu_function, op_norm, schatten_norm,
                     singular_values, spectral_projection, tail_trace,
                     weak_l1)
from .filtration import (AlgebraSpec, Filtration, GridFiltration,
                         TensorDyadicFiltration, build_filtration, parse_spec)
from .martingale import (CoeffMatrix, Martingale, bmo_norms, col_square,
                         function_bmo, l2_identity_check, lp_rc_norm,
                         row_square, transform_family)
from .cuculescu import (CuculescuSequence, PiFamily, cuculescu,
                        cuculescu_report, delta_split, delta_trunc,
                        ladder_top, pi_family, q_lambda)
from .gundy import (GundyParts, cross_experiment, ergodic_coeffs,
                    ergodic_row_bound, gundy, gundy_verify, thmA1_decompose,
                    weak11_experiment)
from .czkit import (CZParts, ZetaData, cz_decompose, cz_report,
                    g_off_layer_report, g_off_layers, thmB1_decompose, zeta,
                    zeta_cube_inequalities, zeta_report)
from .pseudoloc import (DiscOp, HilbertKernel, annuli_kernel, assemble,
                        commutative_pseudoloc_check, cotlar_bound,
                        estimate_norm, hilbert_kernel, ksk_check,
                        localization_check, lp_bumps_kernel,
                        nc_pseudoloc_check, normalized, paraproduct,
                        schur_bound, schur_integrals_decay, sigma_set,
                        vanish_check)
from .harness import (ExperimentConfig, random_coeffs,
                      random_positive_martingale, run)

__version__ = "0.1.0"
