"""Workloads, expected assertion outcomes and the traced layers.

Each workload is a fixed list of ``nclp.harness.run(ExperimentConfig(...))``
calls at the acceptance-suite sizes (``pseudoloc-decay`` runs depth 9
instead of the suite's depth 10).  The benchmark seed is passed only as
``ExperimentConfig.seed``.  Together the four workloads run all 18
experiments.
"""
from __future__ import annotations

LAM_CUCULESCU = list(range(-2, 5))
LAM_CZ = list(range(0, 5))
LAM_WEAK = list(range(-8, 9))

# Depth 9 runs the same code as the suite's depth 10 in about an eighth of
# the time.
DECAY = [
    ("pseudoloc-decay", dict(depth=9, s_range=(3, 8), kernel="lp-bumps",
                             trials=1)),
]

LOC_SUITE = [
    ("nc-pseudoloc", dict(algebra="grid:1,6,2", trials=6, s_range=(2, 4))),
    ("vanish", dict(trials=12, depth=7, s_range=(2, 4))),
    ("ksk", dict(trials=3, s_range=(2, 2))),
    ("paraproduct", dict(trials=16, depth=7)),
    ("localization", dict(trials=16, depth=8)),
    ("bmo-czo", dict(trials=12, depth=7)),
]

NC_GRID = [
    ("cuculescu", dict(algebra="grid:1,4,2", trials=100,
                       lambda_exps=LAM_CUCULESCU)),
    ("cz", dict(algebra="grid:1,4,2", trials=100, lambda_exps=LAM_CZ)),
    ("zeta", dict(algebra="grid:1,4,2", trials=25, lambda_exps=LAM_CZ)),
    ("thmB1", dict(algebra="grid:1,4,2", trials=8)),
]

NC_TENSOR = [
    ("cuculescu", dict(algebra="tensor:4", trials=100,
                       lambda_exps=LAM_CUCULESCU)),
    ("gundy", dict(algebra="tensor:4", trials=12, lambda_exps=[-1, 0, 1, 2])),
    ("transform-weak11", dict(algebra="tensor:4", trials=12,
                              lambda_exps=LAM_WEAK)),
    ("ergodic", dict(algebra="tensor:4", trials=8, lambda_exps=LAM_WEAK)),
    ("transform-l2", dict(algebra="tensor:4", trials=16)),
    ("bmo", dict(algebra="tensor:4", trials=12)),
    ("norms", dict(algebra="tensor:3", trials=16)),
    ("cross", dict(algebra="tensor:3", trials=8)),
]

# name -> (why, [(experiment, config fields)])
WORKLOADS = {
    "decay": (
        "Gram matrix plus norm solve and phi_s/psi_s averaging on the dense "
        "(M, N, N) stack at depth 9; no opcore or cuculescu work",
        DECAY,
    ),
    "nc-grid": (
        "16 cells of 2x2 blocks: per-block Python loops and ~180k tiny Op "
        "operations in the Cuculescu and CZ recursions; no pseudoloc work",
        NC_GRID,
    ),
    "nc-tensor": (
        "the same Cuculescu/opcore layers on one dense 16x16 block, so "
        "batching across blocks has nothing to batch",
        NC_TENSOR,
    ),
    "loc-suite": (
        "small pseudoloc operators (N = 64-512) plus ~2200 proj_join calls: "
        "fixed per-call costs dominate, so added per-call set-up shows",
        LOC_SUITE,
    ),
}


def label(experiment: str, fields: dict) -> str:
    """Span and metric name of one call.  ``cuculescu`` runs on both the
    grid and the tensor algebra, so its label adds the algebra family."""
    calls = DECAY + LOC_SUITE + NC_GRID + NC_TENSOR
    if sum(e == experiment for e, _ in calls) > 1:
        return f"{experiment}-{fields['algebra'].split(':')[0]}"
    return experiment


# Every assertion each experiment must report.  All are expected to PASS
# except those listed in EXPECTED_FAIL.
ASSERTIONS = {
    "pseudoloc-decay": ("phi_slope_upper", "phi_slope_lower",
                        "psi_slope_upper", "psi_slope_lower",
                        "pseudoloc_envelope"),
    "cuculescu": ("commutation", "compression_below_lambda",
                  "maximal_weak_l1_constant_one"),
    "cz": ("reconstruction", "diagonal_good_part_l2", "diagonal_bad_part_l1"),
    "zeta": ("excised_mass_9n", "cube_operator_inequalities",
             "off_diagonal_layer_sum", "layer_support", "layer_orthogonality",
             "layer_l2_envelope"),
    "thmB1": ("reconstruction",),
    "gundy": ("reconstruction", "parts_are_martingales", "gamma_annihilated",
              "gamma_triangular_truncation_vanishes", "alpha_envelope",
              "beta_envelope", "gamma_constant_one"),
    "transform-weak11": ("row_weak11_envelope", "col_weak11_envelope"),
    "ergodic": ("coefficient_rows_at_most_one", "row_weak11_envelope",
                "col_weak11_envelope", "weighted_identity"),
    "transform-l2": ("isometry_unit_rows", "weighted_identity"),
    "bmo": ("contractive_transform_bmo",),
    "norms": ("holder", "l1_equals_mu_integral", "weak_l1_equals_sup_t_mu",
              "l2_inner"),
    "cross": ("cross_term_envelope",),
    "nc-pseudoloc": ("compressed_norm_envelope", "restriction_identity",
                     "scalar_reduction"),
    "vanish": ("paraproduct_term_vanishes_outside", "restriction_identity"),
    "ksk": ("two_bump_kernel_identity", "kernel_size_envelope"),
    "paraproduct": ("paraproduct_bmo_bound",),
    "localization": ("ball_pairing_log_envelope",),
    "bmo-czo": ("annuli_square_function_identity", "linf_to_bmo_envelope"),
}

# Criterion 11's documented FAIL: the Psi_s slope is about -1.18 at depth 9,
# outside the [-0.65, -0.35] window, which stays as it is.
EXPECTED_FAIL = {("pseudoloc-decay", "psi_slope_lower")}

# module -> (traced functions, the end-to-end metric each should move).
# A name is a module-level function, ``Class.method``, ``Op.matmul`` /
# ``Op.add`` / ``Op.sub`` for the operators, or ``Martingale`` for
# construction.
LAYERS = {
    "opcore": (
        ("Op.matmul", "Op.add", "Op.sub", "Op.hermitize",
         "spectral_projection", "proj_meet", "proj_join", "singular_values",
         "positive_part_floor", "schatten_norm"),
        "wall_s on nc-grid and nc-tensor; on loc-suite through proj_join"),
    "filtration": (
        ("GridFiltration.expect", "TensorDyadicFiltration.expect",
         "GridFiltration.concentric_mask"),
        "wall_s on nc-grid and nc-tensor"),
    "martingale": (
        ("Martingale", "Martingale.is_positive", "transform_family",
         "row_square", "col_square", "bmo_norms", "function_bmo"),
        "wall_s on nc-tensor; is_positive.calls is what hoisting the "
        "positivity check cuts"),
    "cuculescu": (
        ("cuculescu", "cuculescu_report", "pi_family", "delta_split",
         "delta_trunc"),
        "wall_s on nc-grid most, on nc-tensor less"),
    "gundy": (
        ("gundy", "gundy_verify", "thmA1_decompose", "weak11_experiment",
         "cross_experiment"),
        "wall_s on nc-tensor"),
    "czkit": (
        ("cz_decompose", "cz_report", "zeta", "zeta_cube_inequalities",
         "g_off_layers", "g_off_layer_report", "thmB1_decompose"),
        "wall_s on nc-grid"),
    "pseudoloc": (
        ("assemble", "normalized", "family_gram", "power_iteration", "phi_s",
         "psi_s", "paraproduct_correction", "commutative_pseudoloc_check",
         "vanish_check", "ksk_check", "nc_pseudoloc_check", "zeta_fs",
         "e_level"),
        "wall_s on decay (large) and loc-suite (small) through "
        "family_gram, power_iteration, phi_s and psi_s; peak_rss_mb on "
        "decay through mats_mb; no change on nc-grid or nc-tensor"),
}

# Metric names whose attribute differs from the name.
ATTRIBUTE = {"Op.matmul": "Op.__matmul__", "Op.add": "Op.__add__",
             "Op.sub": "Op.__sub__", "Martingale": "Martingale.__init__"}


def expected_outcome(experiment: str) -> dict[str, bool]:
    """Assertion name -> expected PASS for one experiment."""
    return {name: (experiment, name) not in EXPECTED_FAIL
            for name in ASSERTIONS[experiment]}
