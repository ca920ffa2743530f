"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the
repository root."""
import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, installed, nclp_modules  # noqa: E402
from speed import KERNELS, SpeedSampler  # noqa: E402
from workloads import ASSERTIONS, EXPECTED_FAIL, WORKLOADS  # noqa: E402

nclp = run.load_nclp()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    # root [0, 10]: a [1, 4] holds b [2, 3]; a again [5, 9] holds b [6, 8]
    events = [(0, "root"), (1, "a"), (2, "b"), (3, None), (4, None),
              (5, "a"), (6, "b"), (8, None), (9, None), (10, None)]
    for now, name in events:
        clock.now = float(now)
        t.enter(name) if name else t.exit()
    spans = t.by_name()
    assert spans["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert spans["a"] == {"calls": 2, "total_s": 7.0, "self_s": 4.0}
    assert spans["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert sum(s["self_s"] for s in spans.values()) == 10.0
    assert set(t.edges) == {("root", None), ("a", "root"), ("b", "a")}


def test_self_time_of_recursive_span():
    clock = FakeClock()
    t = Tracer(clock)
    for now, name in [(0, "f"), (1, "f"), (3, None), (4, None)]:
        clock.now = float(now)
        t.enter(name) if name else t.exit()
    assert t.by_name()["f"]["self_s"] == 4.0
    assert t.by_name()["f"]["calls"] == 2


def test_result_is_strict_json():
    line = run.result_line(True, 3, 0, {"wall_s": (1.5, "s")})
    assert json.loads(line) == {"correct": True, "attempted": 3, "failed": 0,
                                "metrics": {"wall_s": {"value": 1.5,
                                                       "unit": "s"}}}
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            run.result_line(True, 3, 0, {"wall_s": (bad, "s")})


def _report(experiment, **override):
    names = ASSERTIONS[experiment]
    assertions = [{"name": n, "measured": 0.5, "threshold": 1.0,
                   "pass": (experiment, n) not in EXPECTED_FAIL}
                  for n in names]
    for a in assertions:
        a.update(override.get(a["name"], {}))
    return {"assertions": assertions}


def test_gate_accepts_expected_outcomes():
    for experiment in ASSERTIONS:
        assert run.check_report(experiment, _report(experiment)) == []


def test_gate_flags_flipped_assertion():
    rep = _report("cz", reconstruction={"pass": False})
    assert run.check_report("cz", rep) == ["cz.reconstruction: pass=False"]
    # the documented criterion-11 FAIL passing is a deviation too
    rep = _report("pseudoloc-decay", psi_slope_lower={"pass": True})
    assert len(run.check_report("pseudoloc-decay", rep)) == 1


def test_gate_flags_non_finite_measured():
    for bad in (math.nan, math.inf, -math.inf, None):
        rep = _report("zeta", layer_support={"measured": bad})
        assert len(run.check_report("zeta", rep)) == 1


def test_gate_flags_empty_and_missing_assertions():
    assert len(run.check_report("cz", {"assertions": []})) == 3
    rep = _report("cz")
    del rep["assertions"][0]
    assert run.check_report("cz", rep) == ["cz.reconstruction: missing"]


def test_wrappers_are_removed_after_traced_pass():
    def snapshot():
        state = {m.__name__: dict(vars(m)) for m in nclp_modules()}
        for cls in (nclp.opcore.Op, nclp.filtration.GridFiltration,
                    nclp.filtration.TensorDyadicFiltration,
                    nclp.martingale.Martingale, nclp.harness.Suite):
            state[cls.__qualname__] = dict(vars(cls))
        return state

    before = snapshot()
    targets = run.trace_targets()
    tracer = Tracer()
    with installed(tracer, targets):
        # names imported into other modules are rebound there too
        assert nclp.czkit.proj_join is not before["nclp.opcore"]["proj_join"]
        assert nclp.czkit.proj_join is nclp.opcore.proj_join
        calls = [("cuculescu", dict(algebra="grid:1,2,2", trials=1,
                                    lambda_exps=[0]))]
        result = run.run_pass(nclp, calls, seed=0, tracer=tracer)
    after = snapshot()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, (key, attr)
    assert result["failed"] == 0 and result["mismatches"] == []
    assert result["ref_s"] is None      # no sampler time inside the spans
    spans = tracer.by_name()
    assert spans["cuculescu.cuculescu"]["calls"] == 1
    assert spans["opcore.proj_meet"]["calls"] > 0
    assert spans["harness.report"]["calls"] == 2   # Suite.report, report_json


def test_absent_target_is_reported_not_installed():
    targets = [("opcore.gone", nclp.opcore, "no_such_function"),
               ("opcore.Op.gone", nclp.opcore, "Op.no_such_method"),
               ("nomodule.f", None, "f")]
    with installed(Tracer(), targets) as absent:
        assert absent == ["opcore.gone", "opcore.Op.gone", "nomodule.f"]
    assert not hasattr(nclp.opcore, "no_such_function")


def test_untraced_run_installs_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(run, "installed", refuse)
    calls = [("norms", dict(algebra="tensor:2", trials=1))]
    passes, _, _ = run.run_passes(nclp, calls, seed=0, seconds=0, trace=False)
    assert [p["traced"] for p in passes] == [False]
    assert passes[0]["failed"] == 0 and passes[0]["mismatches"] == []
    assert passes[0]["ref_s"] > 0


def test_speed_sampler_samples_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        time.sleep(0.35)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert [len(s) >= 3 for s in sampler.samples] == [True] * len(KERNELS)
    assert 0 < sampler.busy_s < 0.35
    assert 0 < sampler.ref_s() < max(max(s) for s in sampler.samples)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
    assert len(spec["per_layer"]) <= 128
    assert {e for _, calls in WORKLOADS.values() for e, _ in calls} \
        == set(nclp.harness.EXPERIMENTS)
    for _, calls in WORKLOADS.values():   # one span per call in a pass
        labels = [run.label(e, fields) for e, fields in calls]
        assert len(set(labels)) == len(labels)
