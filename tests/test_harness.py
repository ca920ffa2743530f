import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nclp
from nclp.errors import ContractViolation
from nclp.filtration import GridFiltration, TensorDyadicFiltration
from nclp import pseudoloc as pl
from nclp.harness import (EXPERIMENTS, TRIAL_CHUNK, ExperimentConfig, Suite,
                          _localized_scalar, all_pass, digest, random_coeffs,
                          random_positive_martingale, report_csv, report_json,
                          run, trial_rng)


def test_config_rejects_unknown_experiment():
    with pytest.raises(ContractViolation):
        ExperimentConfig("nonsense").resolved()


@pytest.mark.parametrize("experiment", ["norms", "pseudoloc-decay"])
def test_config_rejects_zero_trials(experiment):
    # pseudoloc-decay runs one trial per shift, but a bad count is still bad
    with pytest.raises(ContractViolation, match="trials >= 1"):
        ExperimentConfig(experiment, trials=0).resolved()


@pytest.mark.parametrize("experiment", ["vanish", "nc-pseudoloc"])
def test_shift_at_the_depth_is_a_contract_violation(experiment):
    # Phi_s and Psi_s need 1 <= s < K; both experiments build them in setup
    fields = dict(algebra="grid:1,4,2") if experiment == "nc-pseudoloc" \
        else dict(depth=4)
    with pytest.raises(ContractViolation, match="shift s = 4"):
        run(ExperimentConfig(experiment, trials=1, s_range=(2, 4), **fields))


@pytest.mark.parametrize("field,value", [
    ("lambda_exps", []), ("s_range", (4, 1)), ("s_range", (1, 2, 3))])
def test_config_rejects_empty_or_malformed_ranges(field, value):
    with pytest.raises(ContractViolation):
        ExperimentConfig("cuculescu", **{field: value}).resolved()


def _single_rule_suite(trial_metrics):
    suite = Suite(ExperimentConfig("norms").resolved(),
                  rules=[("check", "residual", 1e-8)])
    for m in trial_metrics:
        suite.add_trial("x", m)
    (assertion,) = suite.report()["assertions"]
    return assertion


def test_rule_with_metric_missing_from_every_trial_fails():
    a = _single_rule_suite([{"other": 0.0}, {"other": 1.0}])
    assert a["pass"] is False
    assert np.isnan(a["measured"])


def test_rule_with_minus_inf_aggregate_fails():
    a = _single_rule_suite([{"residual": -np.inf}, {"residual": -np.inf}])
    assert a["pass"] is False


def test_nan_trial_value_is_not_dropped_from_the_aggregate():
    # max() keeps its first argument when a later one is NaN
    a = _single_rule_suite([{"residual": 0.0}, {"residual": np.nan}])
    assert np.isnan(a["measured"])
    assert a["pass"] is False


def _refuse_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")


def test_report_json_is_strict_for_a_missing_metric():
    suite = Suite(ExperimentConfig("norms").resolved(),
                  rules=[("check", "residual", 1e-8)])
    suite.add_trial("x", {"other": 0.0, "low": -np.inf, "high": np.inf})
    rep = suite.report()
    parsed = json.loads(report_json(rep), parse_constant=_refuse_constant)
    (assertion,) = parsed["assertions"]
    assert assertion["measured"] == "NaN" and assertion["pass"] is False
    assert parsed["trials"][0]["metrics"]["low"] == "-Infinity"
    assert parsed["trials"][0]["metrics"]["high"] == "Infinity"
    # the in-memory report keeps its floats
    assert np.isnan(rep["assertions"][0]["measured"])
    assert rep["trials"][0]["metrics"]["low"] == -np.inf


def test_slope_from_one_nonzero_point_is_nan_and_fails():
    # a single shift leaves one point to fit: no slope, not a 0.0 that
    # passes phi_slope_lower
    rep = run(ExperimentConfig("pseudoloc-decay", depth=6, s_range=(3, 3)))
    assert rep["trials"][0]["metrics"]["phi_norm"] > 0.0
    result = {a["name"]: a for a in rep["assertions"]}
    for name in ("phi_slope_upper", "phi_slope_lower", "psi_slope_upper",
                 "psi_slope_lower"):
        assert np.isnan(result[name]["measured"])
        assert result[name]["pass"] is False
    json.loads(report_json(rep), parse_constant=_refuse_constant)


def test_nan_vanish_check_on_one_shift_fails(monkeypatch):
    # the running max over shifts must keep the NaN: max(0.0, nan) is 0.0
    import nclp.pseudoloc as pl
    check = pl.vanish_check
    monkeypatch.setattr(pl, "vanish_check", lambda T, f, s: float("nan")
                        if s == 3 else check(T, f, s))
    rep = run(ExperimentConfig("vanish", trials=2, depth=7, s_range=(2, 4)))
    parsed = json.loads(report_json(rep), parse_constant=_refuse_constant)
    result = {a["name"]: a for a in parsed["assertions"]}
    assert result["paraproduct_term_vanishes_outside"]["measured"] == "NaN"
    assert result["paraproduct_term_vanishes_outside"]["pass"] is False
    assert result["restriction_identity"]["pass"] is True


def test_norms_rule_l2_inner_runs_l2_inner(monkeypatch):
    # the metric compares l2_inner(a, a) with the Frobenius-sum l2_norm(a)^2
    import nclp.harness as harness
    calls, real = [], harness.l2_inner

    def recorded(a, b):
        calls.append(a is b)
        return real(a, b)

    monkeypatch.setattr(harness, "l2_inner", recorded)
    rep = run(ExperimentConfig("norms", algebra="tensor:2", trials=3))
    assert calls == [True] * 3
    assert {a["name"]: a["pass"] for a in rep["assertions"]}["l2_inner"]


def test_trial_rng_reproducible_and_independent():
    a = trial_rng(5, 0).standard_normal(4)
    b = trial_rng(5, 0).standard_normal(4)
    c = trial_rng(5, 1).standard_normal(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_random_positive_martingale_invariants():
    for filt in (TensorDyadicFiltration(3), GridFiltration(1, 3, 2)):
        f = random_positive_martingale(filt, trial_rng(6, 0))
        assert f.is_positive()
        assert f.top.trace().real == pytest.approx(1.0, abs=1e-10)


def test_random_coeffs_normalizations():
    rng = trial_rng(7, 0)
    eq = random_coeffs(5, 4, rng, "row-eq-one")
    assert np.allclose(eq.row_sums(), 1.0)
    le = random_coeffs(5, 4, trial_rng(7, 1), "row-le-one")
    assert le.row_bound <= 1.0 + 1e-12


def test_digest_stable_and_sensitive():
    x = np.arange(4.0)
    assert digest(x) == digest(x.copy())
    assert digest(x) != digest(x + 1.0)
    assert len(digest(x)) == 16


def test_report_structure_and_determinism():
    cfg = ExperimentConfig("norms", trials=3, seed=1)
    rep1 = run(cfg)
    rep2 = run(ExperimentConfig("norms", trials=3, seed=1))
    for rep in (rep1, rep2):
        assert set(rep) == {"experiment", "config", "trials", "aggregate",
                            "summary", "assertions", "timestamp", "timing",
                            "env"}
        assert len(rep["trials"]) == 3
        for t in rep["trials"]:
            assert set(t) == {"id", "inputs_digest", "metrics", "pass"}
        assert set(rep["timing"]) == {"setup_s", "trials_s", "summary_s",
                                      "wall_s"}
        phases = sum(rep["timing"][k]
                     for k in ("setup_s", "trials_s", "summary_s"))
        # judging the rules and building the report take far less than 1 s
        assert phases <= rep["timing"]["wall_s"] <= phases + 1.0
        assert rep["timing"]["trials_s"] > 0.0
        assert set(rep["env"]) == {"python", "numpy", "blas", "blas_version"}
    strip = lambda r: {k: v for k, v in r.items()
                       if k not in ("timestamp", "timing")}
    assert json.dumps(strip(rep1), sort_keys=True) == \
        json.dumps(strip(rep2), sort_keys=True)


def test_report_json_round_trips():
    rep = run(ExperimentConfig("norms", trials=2, seed=2))
    parsed = json.loads(report_json(rep))
    assert parsed["experiment"] == "norms"
    assert "timestamp" in parsed


def test_report_csv_header_and_rows():
    rep = run(ExperimentConfig("norms", trials=2, seed=3))
    lines = report_csv(rep).strip().splitlines()
    assert lines[0].startswith("id,inputs_digest,pass")
    assert len(lines) == 3


# name -> (tiny config, trial digests at seed 0, assertion names).  The
# digests were recorded before the experiments became registry records, so
# a remapping of generators to trials changes them.
TINY = {
    "norms": (dict(algebra="tensor:2", trials=2),
              ["e18c585ff6390f4d", "1dedc89541f45b41"],
              ["holder", "l1_equals_mu_integral", "weak_l1_equals_sup_t_mu",
               "l2_inner"]),
    "cuculescu": (dict(algebra="tensor:2", trials=2, lambda_exps=[0, 1]),
                  ["19344ecd20fe08f3", "e7405d04e47d02ea"],
                  ["commutation", "compression_below_lambda",
                   "maximal_weak_l1_constant_one"]),
    "gundy": (dict(algebra="tensor:2", trials=2, lambda_exps=[0, 1]),
              ["19344ecd20fe08f3", "e7405d04e47d02ea"],
              ["reconstruction", "parts_are_martingales", "gamma_annihilated",
               "gamma_triangular_truncation_vanishes", "alpha_envelope",
               "beta_envelope", "gamma_constant_one"]),
    "transform-weak11": (dict(algebra="tensor:2", trials=2,
                              lambda_exps=[-1, 0, 1]),
                         ["96190b37adb3ae72", "7c79aa54066ed62e"],
                         ["row_weak11_envelope", "col_weak11_envelope"]),
    "transform-l2": (dict(algebra="tensor:2", trials=2),
                     ["c5f60cd9a501ad72", "51d4facdfcdaff73"],
                     ["isometry_unit_rows", "weighted_identity"]),
    "bmo": (dict(algebra="tensor:2", trials=2),
            ["4246126c026a18f6", "b5fccb59b57a12e7"],
            ["contractive_transform_bmo"]),
    "ergodic": (dict(algebra="tensor:2", trials=2, lambda_exps=[0, 1]),
                ["baa1ec6d386f93c5", "1f4298d254a3b0e2"],
                ["coefficient_rows_at_most_one", "row_weak11_envelope",
                 "col_weak11_envelope", "weighted_identity"]),
    "cross": (dict(algebra="tensor:2", trials=2),
              ["ca68eefd59040563", "cc26d42f2646aed8"],
              ["cross_term_envelope"]),
    "cz": (dict(algebra="grid:1,3,2", trials=2, lambda_exps=[0, 1]),
           ["405087ebfa1f01d7", "f97108ab20f9719a"],
           ["reconstruction", "diagonal_good_part_l2",
            "diagonal_bad_part_l1"]),
    "zeta": (dict(algebra="grid:1,3,2", trials=2, lambda_exps=[0, 1]),
             ["405087ebfa1f01d7", "f97108ab20f9719a"],
             ["excised_mass_9n", "cube_operator_inequalities",
              "off_diagonal_layer_sum", "layer_support",
              "layer_orthogonality", "layer_l2_envelope"]),
    "thmB1": (dict(algebra="grid:1,3,2", trials=2),
              ["7a4f758005c35e57", "910358bbd344550e"],
              ["reconstruction"]),
    # one trial per shift, whatever trials asks for
    "pseudoloc-decay": (dict(depth=6, s_range=(1, 3), trials=1),
                        ["6e2bdd0a6a999392", "ce33cc84d50a73a2",
                         "b2619bfe43ad9baa"],
                        ["phi_slope_upper", "phi_slope_lower",
                         "psi_slope_upper", "psi_slope_lower",
                         "pseudoloc_envelope"]),
    "ksk": (dict(trials=3, s_range=(2, 2)),
            ["5dc94a2050fc7a68", "15fde960dde4ef0a", "a2dfcb559646eb2a"],
            ["two_bump_kernel_identity", "kernel_size_envelope"]),
    "paraproduct": (dict(trials=2, depth=5),
                    ["7772dbac1bf0d320", "feaf9e2ea00b60c0"],
                    ["paraproduct_bmo_bound"]),
    "vanish": (dict(trials=2, depth=6, s_range=(2, 3)),
               ["8c4a6cb9b6e44b1e", "6e2bdd0a6a999392"],
               ["paraproduct_term_vanishes_outside", "restriction_identity"]),
    "localization": (dict(trials=2, depth=7),
                     ["de812bc82cb214e7", "6a81fdeb53d57c7c"],
                     ["ball_pairing_log_envelope"]),
    "nc-pseudoloc": (dict(algebra="grid:1,5,2", trials=2, s_range=(2, 3)),
                     ["9f02a6e609872cb9", "d5a08191be332d7f"],
                     ["compressed_norm_envelope", "restriction_identity",
                      "scalar_reduction"]),
    "bmo-czo": (dict(trials=2, depth=5),
                ["8183bc22ef203fb2", "ea432f4917d7ebc5"],
                ["annuli_square_function_identity", "linf_to_bmo_envelope"]),
}


def test_tiny_table_covers_every_experiment():
    assert sorted(TINY) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_every_experiment_is_runnable(experiment):
    fields, digests, names = TINY[experiment]
    rep = run(ExperimentConfig(experiment, **fields))
    assert [a["name"] for a in rep["assertions"]] == names
    for a in rep["assertions"]:     # measured, in a trial or the summary
        assert np.isfinite(a["measured"]), a
    assert rep["config"]["trials"] == len(rep["trials"])
    assert [t["inputs_digest"] for t in rep["trials"]] == digests


def test_decay_shifts_draw_from_one_generator():
    # trial t is the shift s_lo + t, and every shift's f continues the
    # stream of trial 0's generator
    rep = run(ExperimentConfig("pseudoloc-decay", depth=6, s_range=(1, 3)))
    T = pl.normalized(pl.assemble(pl.lp_bumps_kernel(M=6), 6))
    rng = trial_rng(0, 0)
    for t, s in zip(rep["trials"], (1, 2, 3)):
        f = _localized_scalar(T.N, T.K, s, rng)
        assert t["metrics"]["s"] == s
        assert t["metrics"]["comm_ratio"] \
            == pl.commutative_pseudoloc_check(T, f, s)["ratio"]


def test_decay_shifts_draw_from_one_generator_across_chunks(monkeypatch):
    # more shifts than one chunk holds: the next chunk goes on drawing from
    # the same generator where the last one stopped.  The far shifts
    # measure an exact 0 whatever f is, so the drawn fs themselves are
    # compared
    import nclp.harness as harness
    seen, real = [], harness.pl.commutative_pseudoloc_check

    def recorded(T, f, s):
        seen.append((s, f))
        return real(T, f, s)

    monkeypatch.setattr(harness.pl, "commutative_pseudoloc_check", recorded)
    rep = run(ExperimentConfig("pseudoloc-decay", depth=7, s_range=(1, 6)))
    assert len(rep["trials"]) == 6 > TRIAL_CHUNK
    rng = trial_rng(0, 0)
    assert [s for s, _ in seen] == list(range(1, 7))
    for s, f in seen:
        assert np.array_equal(f, _localized_scalar(128, 7, s, rng))


# -- trial chunks --------------------------------------------------------

# the runners that solve a chunk of trials as one batch
CHUNKED = {
    "cuculescu-grid": ("cuculescu", dict(algebra="grid:1,4,2",
                                         lambda_exps=[-2, 0, 2, 4])),
    "cuculescu-tensor": ("cuculescu", dict(algebra="tensor:3",
                                           lambda_exps=[-2, 0, 2, 4])),
    "cz": ("cz", dict(algebra="grid:1,4,2", lambda_exps=[0, 2, 4])),
    "zeta": ("zeta", dict(algebra="grid:1,4,2", lambda_exps=[0, 2, 4])),
}


@pytest.mark.parametrize("trials", [1, 3, 4, 5, 9])
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_batched_runner_equals_one_trial_chunks(name, trials, monkeypatch):
    import nclp.harness as harness
    experiment, fields = CHUNKED[name]
    rep = run(ExperimentConfig(experiment, trials=trials, seed=3, **fields))
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 1)
    ref = run(ExperimentConfig(experiment, trials=trials, seed=3, **fields))
    assert [(a["name"], a["pass"]) for a in rep["assertions"]] \
        == [(a["name"], a["pass"]) for a in ref["assertions"]]
    assert [t["id"] for t in rep["trials"]] \
        == [t["id"] for t in ref["trials"]] == list(range(trials))
    assert [t["inputs_digest"] for t in rep["trials"]] \
        == [t["inputs_digest"] for t in ref["trials"]]
    # every per-entry number is summed alike whatever shares its chunk
    assert [t["metrics"] for t in rep["trials"]] \
        == [t["metrics"] for t in ref["trials"]]


@pytest.mark.parametrize("experiment,solver", [("cuculescu", "cuculescu"),
                                               ("cz", "cz_decompose"),
                                               ("zeta", "cz_decompose")])
def test_batched_runner_solves_once_per_chunk(experiment, solver,
                                              monkeypatch):
    import nclp.harness as harness
    sizes, real = [], getattr(harness, solver)

    def counted(f, lam, *args):
        sizes.append(f.batch)
        return real(f, lam, *args)

    monkeypatch.setattr(harness, solver, counted)
    assert all_pass(run(ExperimentConfig(experiment, algebra="grid:1,4,2",
                                         trials=9)))
    assert len(sizes) == -(-9 // TRIAL_CHUNK)
    assert sizes == [(min(TRIAL_CHUNK, 9 - t),)
                     for t in range(0, 9, TRIAL_CHUNK)]


# -- command line --------------------------------------------------------

def _cli(*args):
    # the child imports the same nclp as this process, installed or not
    src = os.path.dirname(os.path.dirname(nclp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nclp.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_cli_pass_exit_zero(tmp_path):
    out = tmp_path / "rep"
    r = _cli("norms", "--trials", "2", "--seed", "4",
             "--out", str(out), "--format", "both")
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "rep.json").exists()
    assert (tmp_path / "rep.csv").exists()
    assert "PASS" in r.stdout


def test_cli_prints_json_without_out():
    r = _cli("norms", "--trials", "1", "--seed", "5")
    assert r.returncode == 0
    json.loads(r.stdout)


def test_cli_usage_errors_exit_two():
    assert _cli("no-such-experiment").returncode == 2
    # contract violation inside the run: cz needs the grid algebra
    assert _cli("cz", "--algebra", "tensor:3", "--trials", "1").returncode == 2


@pytest.mark.parametrize("depth", [2, 3, 6])
def test_cli_localization_rejects_shallow_depth(depth, capsys):
    # r1 is drawn from [4/N, 0.05], an empty range below N = 80
    from nclp.cli import main
    assert main(["localization", "--depth", str(depth), "--trials", "1",
                 "--quiet"]) == 2
    assert "localization needs depth >= 7" in capsys.readouterr().err


@pytest.mark.parametrize("argv,depths", [
    (["--trials", "1"], [6]), (["--depth", "7", "--trials", "2"], [7, 8]),
    ([], [6, 7, 8])], ids=["one-trial", "depth-7", "defaults"])
def test_cli_ksk_runs_one_depth_per_trial(argv, depths, capsys):
    # trial t runs at depth --depth + t; the digest holds (K, s)
    from nclp.cli import main
    assert main(["ksk"] + argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["trials"] == len(depths)
    assert [t["inputs_digest"] for t in rep["trials"]] == [
        digest(np.array([K, 2]), pl.assemble(pl.lp_bumps_kernel(M=K),
                                             K).mats[0, 0])
        for K in depths]


def test_unknown_kernel_is_a_contract_violation(capsys):
    from nclp.cli import main
    with pytest.raises(ContractViolation, match="unknown kernel"):
        ExperimentConfig("ksk", kernel="nonsense").resolved()
    with pytest.raises(SystemExit) as exc:
        main(["ksk", "--kernel", "nonsense"])
    assert exc.value.code == 2


def test_cli_localization_smallest_depth_runs():
    from nclp.cli import main
    assert main(["localization", "--depth", "7", "--trials", "2",
                 "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    ["cuculescu", "--lambda-exp", "5..2"],
    ["cz", "--lambda-exp", "4..1"],
    ["cuculescu", "--lambda-exp", "3"],
    ["ksk", "--s", "4..1"],
    ["ksk", "--depth", "3", "--s", "5..5"],
], ids=["cuculescu-reversed", "cz-reversed", "single-number", "s-reversed",
        "ksk-depth-below-s"])
def test_cli_rejects_empty_or_malformed_range(argv, capsys):
    from nclp.cli import main
    assert main(argv + ["--trials", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nclp: config/contract error:")


@pytest.mark.parametrize("argv,bad", [
    (["cuculescu", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["transform-weak11", "--lambda-exp", "1100..1100"], "exponent 1100"),
    (["ergodic", "--lambda-exp", "1100..1100"], "exponent 1100"),
    (["gundy", "--lambda-exp", "1100..1100"], "exponent 1100"),
    (["cuculescu", "--lambda-exp=-1100..-1100"], "exponent -1100"),
], ids=["negative-seed", "weak11-overflow", "ergodic-overflow",
        "gundy-overflow", "underflow"])
def test_cli_rejects_bad_seed_lambda_exponent_and_gamma(argv, bad, capsys):
    from nclp.cli import main
    assert main(argv + ["--trials", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nclp: config/contract error:")
    assert bad in err


@pytest.mark.parametrize("value", ["0.5", "nan", "0"],
                         ids=["gamma", "gamma-nan", "gamma-zero"])
def test_cli_has_no_gamma_option(value, capsys):
    # the kernel declares its own exponent; a flag that only overwrote the
    # declared constant is a usage error
    from nclp.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["pseudoloc-decay", "--gamma", value, "--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma" in capsys.readouterr().err


def test_cli_rejects_the_corner_algebra(capsys):
    from nclp.cli import main
    assert main(["cuculescu", "--algebra", "corner:3", "--trials", "1",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nclp: config/contract error:")
    assert "unsupported algebra spec 'corner:3'" in err


def test_cli_out_of_memory_exits_three(monkeypatch, capsys):
    # a depth too large to allocate (e.g. localization --depth 30) raises
    # numpy's MemoryError from inside the run; no test allocates that much
    import nclp.cli as cli

    def oom(cfg):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(cli, "run", oom)
    assert cli.main(["localization", "--depth", "30", "--trials", "1",
                     "--quiet"]) == cli.EXIT_NUMERIC == 3
    assert capsys.readouterr().err == (
        "nclp: out of memory: Unable to allocate 8.00 GiB for an array\n")


@pytest.mark.parametrize("s", ["0..2", "-1..2", "2..6"])
def test_cli_nc_pseudoloc_checks_both_ends_of_the_shift_range(s, capsys):
    # a shift below 1 once reached support_cubes as a negative shift count
    from nclp.cli import main
    assert main(["nc-pseudoloc", f"--s={s}", "--trials", "1",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nclp: config/contract error:")
    assert "outside 1..5" in err


@pytest.mark.parametrize("s", ["0..3", "-2..3", "2..6"])
def test_cli_decay_checks_the_shifts_before_any_indexing(s, monkeypatch,
                                                         capsys):
    from nclp.cli import main
    import nclp.harness as harness

    def unreachable(*args):
        raise AssertionError("the setup indexed a Haar matrix")

    monkeypatch.setattr(harness.pl, "circulant_haar", unreachable)
    assert main(["pseudoloc-decay", "--depth", "6", f"--s={s}",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nclp: config/contract error:")
    assert "outside 1..5" in err


# -- suite-level numbers -----------------------------------------------------

def test_trial_missing_a_rule_metric_fails():
    suite = Suite(ExperimentConfig("norms").resolved(),
                  rules=[("check", "residual", 1e-8)])
    suite.add_trial("x", {"residual": 0.0})
    suite.add_trial("y", {"other": 0.0})
    rep = suite.report()
    assert [t["pass"] for t in rep["trials"]] == [True, False]


def test_rule_reads_summary_before_trials():
    suite = Suite(ExperimentConfig("norms").resolved(),
                  rules=[("check", "residual", 1e-8),
                         ("slope_upper", "slope", -0.35),
                         ("slope_lower", "slope", -0.6)])
    suite.add_trial("x", {"residual": 0.0})
    suite.summary["slope"] = -0.5
    rep = suite.report()
    assert rep["summary"] == {"slope": -0.5}
    result = {a["name"]: a for a in rep["assertions"]}
    assert result["slope_upper"]["measured"] == -0.5
    assert result["slope_upper"]["pass"] is True
    assert result["slope_lower"]["pass"] is False
    # a trial answers only for the trial-level rule
    assert rep["trials"][0]["pass"] is True


def test_decay_slopes_live_in_the_summary():
    rep = run(ExperimentConfig("pseudoloc-decay", depth=6, s_range=(2, 4)))
    assert {"phi_slope", "psi_slope", "phi_slope_neg", "psi_slope_neg",
            "psi_zero_count"} <= rep["summary"].keys()
    assert all("phi_slope" not in t["metrics"] for t in rep["trials"])
    result = {a["name"]: a for a in rep["assertions"]}
    assert result["phi_slope_upper"]["measured"] == rep["summary"]["phi_slope"]


@pytest.mark.parametrize("lam_exp,exps",
                         [("5..5", [5]), ("1..6", range(1, 7))])
def test_cli_gundy_measures_the_truncation_at_every_lambda(
        lam_exp, exps, monkeypatch, capsys):
    # thresholds above the default pi range once exited 2 ("empty
    # ell-range") or read a truncation residual of 0.0 that nothing measured
    import nclp.harness as harness
    from nclp.cli import main
    seen, real = [], harness.delta_trunc

    def spy(x, pi, ell):
        # one call truncates every threshold's d_gamma at its own ell
        seen.extend((pi.l_min, e, pi.l_max) for e in np.atleast_1d(ell))
        return real(x, pi, ell)

    monkeypatch.setattr(harness, "delta_trunc", spy)
    assert main(["gundy", "--lambda-exp", lam_exp, "--trials", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [ell for _, ell, _ in seen] == list(exps)
    assert all(lo < ell <= hi for lo, ell, hi in seen)
    assert 0.0 <= rep["trials"][0]["metrics"]["trunc_residual"] <= 1e-10
