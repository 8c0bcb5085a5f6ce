import ast
import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crnkit import (
    Polynomial,
    PolynomialSystem,
    QuadraticCandidate,
    SimConfig,
    SimulationError,
    Trajectory,
    compile_invariant,
    compile_rhs,
    drift_report,
    integrate,
)
import crnkit.sim
from crnkit.sim import MAX_FIXED_STEPS, MAX_SAMPLES
from .support import (
    SMALL_FRACTIONS,
    SMALL_POSITIVE,
    dense_invariant,
    left_to_right_rhs,
    random_polynomial,
    reference_integrate,
)

F = Fraction

SPHERE = QuadraticCandidate.diagonal((F(1), F(1)))


def test_config_validation():
    SimConfig()
    with pytest.raises(ValueError):
        SimConfig(method="euler")
    with pytest.raises(ValueError):
        SimConfig(projection="mirror")
    with pytest.raises(ValueError):
        SimConfig(step=0.0)
    with pytest.raises(ValueError):
        SimConfig(tolerance=-1e-9)
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0)
    with pytest.raises(ValueError):
        SimConfig(stride=0)
    for bad in (math.nan, math.inf):
        for name in ("step", "tolerance", "t_end"):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(method="rkf45_adaptive", **{name: bad})


def test_config_is_frozen_after_its_checks():
    config = SimConfig(step=1e-3, t_end=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.t_end = 1e9
    assert config.t_end == 1.0
    with pytest.raises(ValueError, match="more than the limit of 1e\\+07"):
        dataclasses.replace(config, t_end=1e9)


def test_fixed_step_count_is_capped():
    # a stride keeps the run at the step limit within the sample limit
    SimConfig(step=1.0, t_end=float(MAX_FIXED_STEPS), stride=MAX_FIXED_STEPS // MAX_SAMPLES)
    with pytest.raises(ValueError, match=r"takes 1e\+20 steps"):
        SimConfig(step=1e-20, t_end=1.0)
    with pytest.raises(ValueError, match="takes inf steps"):
        SimConfig(step=1e-300, t_end=1e300)
    with pytest.raises(ValueError, match="limit"):
        SimConfig(step=1.0, t_end=float(MAX_FIXED_STEPS + 1))
    # the adaptive method chooses its own steps; `step` is only its first guess
    SimConfig(method="rkf45_adaptive", step=1e-20, t_end=1.0)


def test_fixed_step_sample_count_is_capped():
    SimConfig(step=1.0, t_end=float(MAX_SAMPLES))
    with pytest.raises(ValueError, match=r"stores 1e\+07 samples, more than the limit of 1e\+06"):
        SimConfig(step=1e-6, t_end=10.0)
    with pytest.raises(ValueError, match="samples"):
        SimConfig(step=1.0, t_end=float(MAX_SAMPLES + 1))
    SimConfig(step=1e-6, t_end=10.0, stride=10)
    SimConfig(method="rkf45_adaptive", step=1e-6, t_end=10.0)


def test_rkf45_aborts_at_the_sample_limit(example_system, monkeypatch):
    config = SimConfig(method="rkf45_adaptive", tolerance=1e-10, t_end=10.0)
    stored = len(integrate(example_system, [1.0, 0.0], config).times)
    monkeypatch.setattr(crnkit.sim, "MAX_SAMPLES", stored - 1)
    assert integrate(example_system, [1.0, 0.0], config).times[-1] == 10.0
    monkeypatch.setattr(crnkit.sim, "MAX_SAMPLES", stored - 2)
    with pytest.raises(SimulationError, match=re.escape(f"more than {stored - 2:.0e} samples")):
        integrate(example_system, [1.0, 0.0], config)
    strided = SimConfig(method="rkf45_adaptive", tolerance=1e-10, t_end=10.0, stride=2)
    assert integrate(example_system, [1.0, 0.0], strided).times[-1] == 10.0

def test_compiled_rhs_matches_exact_evaluation():
    rng = random.Random(99)
    for _ in range(30):
        dim = rng.randint(1, 4)
        system = PolynomialSystem(
            tuple(f"x{i+1}" for i in range(dim)),
            tuple(random_polynomial(rng, dim) for _ in range(dim)),
        )
        rhs = compile_rhs(system)
        for _ in range(5):
            point = [F(rng.randint(-4, 4), rng.choice((1, 2, 4))) for _ in range(dim)]
            exact = [float(p.evaluate(point)) for p in system.components]
            got = rhs([float(v) for v in point])
            for e, g in zip(exact, got):
                assert abs(e - g) <= 1e-9 * max(1.0, abs(e))


def test_compiled_evaluators_are_cached_per_system():
    def build(names):
        return PolynomialSystem.from_strings(names, ["-x*y + 1/3", "x*y - 2*y"])

    rhs = compile_rhs(build(("x", "y")))
    assert compile_rhs(build(("x", "y"))) is rhs
    renamed = PolynomialSystem(("u", "v"), build(("x", "y")).components)
    assert compile_rhs(renamed) is not rhs
    assert compile_rhs(renamed)([2.0, 3.0]) == rhs([2.0, 3.0])
    invariant = compile_invariant(QuadraticCandidate.diagonal((F(1), F(2))))
    built = QuadraticCandidate(((F(1), F(0)), (F(0), F(2))), (F(0), F(0)), F(0))
    assert compile_invariant(built) is invariant
    assert compile_invariant(QuadraticCandidate.diagonal((F(2), F(1)))) is not invariant


def test_compiled_rhs_takes_a_state_of_its_dimension(oscillator_system):
    rhs = compile_rhs(oscillator_system)
    for state in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError):
            rhs(state)


def test_compiled_invariant_matches_polynomial():
    cand = QuadraticCandidate(
        ((F(2), F(-1)), (F(-1), F(3))), (F(1), F(0)), F(5)
    )
    v = compile_invariant(cand)
    poly = cand.as_polynomial()
    for point in ([0.5, 1.5], [2.0, 0.0], [1.0, 1.0]):
        exact = float(poly.evaluate([F(p) for p in point]))
        assert abs(v(point) - exact) < 1e-12


def test_compiled_invariant_is_the_dense_loop():
    """Left-out zero entries change nothing at finite states, -0.0 included."""
    candidates = [
        SPHERE,
        QuadraticCandidate(((F(0), F(0)), (F(0), F(0))), (F(1), F(0)), F(0)),
        QuadraticCandidate(((F(2), F(-1)), (F(-1), F(0))), (F(0), F(3)), F(-5)),
        QuadraticCandidate(((F(0), F(0)), (F(0), F(0))), (F(0), F(0)), F(-1, 10**400)),
        QuadraticCandidate(((F(0), F(0)), (F(0), F(1))), (F(-1), F(0)), F(-1, 10**400)),
        QuadraticCandidate((), (), F(7)),
    ]
    points = [(0.5, 1.5), (0.0, -0.0), (-0.0, -0.0), (-1.0, 0.0), (1e200, 1e200)]
    for cand in candidates:
        fast, slow = compile_invariant(cand), dense_invariant(cand)
        for point in points if cand.dim else [()]:
            assert repr(fast(point)) == repr(slow(point)), (cand, point)


def test_rk4_circle_drift(example_system):
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=10.0)
    traj = integrate(example_system, [1.0, 0.0], config, SPHERE)
    report = drift_report(traj)
    assert report["max_abs_drift"] < 1e-9
    assert report["positivity_events"] == 0
    assert traj.times[-1] == pytest.approx(10.0, abs=1e-9)
    assert len(traj.times) == 10001
    # trajectory stays on the unit circle inside the closed orthant
    assert all(x >= 0 and y >= 0 for x, y in traj.states)


def test_rk4_conserved_quadratic_drift(example_system):
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=10.0)
    traj = integrate(example_system, [1.0, 0.0], config, SPHERE)
    assert drift_report(traj)["max_abs_drift"] < 1e-9


def test_rk4_convergence_order(example_system):
    def max_drift(step):
        config = SimConfig(method="rk4_fixed", step=step, t_end=2.0)
        traj = integrate(example_system, [1.0, 0.25], config, SPHERE)
        return drift_report(traj)["max_abs_drift"]

    coarse = max_drift(2e-2)
    fine = max_drift(1e-2)
    assert coarse > 0 and fine > 0
    assert 8.0 < coarse / fine < 32.0


def test_rk4_preserves_linear_invariants_exactly(cascade_system):
    rho = (1, 1, 2, 1, 1, 2, 2, 2, 1)
    linear = QuadraticCandidate(
        tuple(tuple(F(0) for _ in rho) for _ in rho),
        tuple(F(v) for v in rho),
        F(0),
    )
    config = SimConfig(method="rk4_fixed", step=1e-2, t_end=2.0)
    x0 = [0.3, 0.4, 0.1, 0.2, 0.3, 0.1, 0.2, 0.1, 0.5]
    traj = integrate(cascade_system, x0, config, linear)
    assert drift_report(traj)["max_abs_drift"] < 1e-12


def test_rkf45_adapts_and_hits_t_end():
    decay = PolynomialSystem.from_strings(("x",), ["-x"])
    config = SimConfig(method="rkf45_adaptive", tolerance=1e-10, t_end=1.0)
    traj = integrate(decay, [1.0], config)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-9)
    assert abs(traj.states[-1][0] - math.exp(-1.0)) < 1e-7
    assert 10 < len(traj.times) < 2000


def test_step_statistics():
    system = PolynomialSystem.from_strings(("x", "y"), ["-x*y", "x*y - 3*y"])
    tight = SimConfig(method="rkf45_adaptive", step=0.5, tolerance=1e-13, t_end=1.0)
    traj = integrate(system, [1.0, 2.0], tight)
    assert traj.rejected_steps > 0
    assert "rejected_steps" not in repr(traj)
    fixed = integrate(system, [1.0, 2.0], SimConfig(step=0.5, t_end=1.0))
    assert fixed.rejected_steps == 0


def test_forced_accept_aborts():
    """At the step-size floor a step above tolerance is kept, and the shrunken
    next step size is below the floor, so the run stops there."""
    ramp = PolynomialSystem.from_strings(("x",), ["1 + x^2"])
    config = SimConfig(method="rkf45_adaptive", step=1e-13, tolerance=1e-300, t_end=1.0)
    with pytest.raises(SimulationError, match="step size underflow") as info:
        integrate(ramp, [0.0], config)
    assert info.value.last_time == 1e-13


def test_rkf45_drift(example_system):
    config = SimConfig(method="rkf45_adaptive", tolerance=1e-10, t_end=10.0)
    traj = integrate(example_system, [1.0, 0.0], config, SPHERE)
    assert drift_report(traj)["max_abs_drift"] < 1e-6


def test_level_set_projection(example_system):
    config = SimConfig(
        method="rk4_fixed", step=1e-3, t_end=10.0, projection="level_set"
    )
    traj = integrate(example_system, [1.0, 0.0], config, SPHERE)
    assert drift_report(traj)["max_abs_drift"] < 1e-13


def test_projection_requires_definite_invariant(oscillator_system):
    config = SimConfig(method="rk4_fixed", projection="level_set")
    with pytest.raises(ValueError):
        integrate(oscillator_system, [1.0, 0.0], config)
    indefinite = QuadraticCandidate.binary_form(F(1), F(0), F(-1))
    with pytest.raises(ValueError):
        integrate(oscillator_system, [1.0, 0.0], config, indefinite)


def test_initial_state_validation(oscillator_system):
    config = SimConfig()
    with pytest.raises(ValueError):
        integrate(oscillator_system, [1.0], config)
    with pytest.raises(ValueError):
        integrate(oscillator_system, [-0.1, 1.0], config)
    with pytest.raises(ValueError):
        integrate(oscillator_system, [1.0, 0.0], config, QuadraticCandidate.diagonal((F(1),)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            integrate(oscillator_system, [bad, 1.0], config)
    with pytest.raises(ValueError, match="initial value of y is too large for a float"):
        integrate(oscillator_system, [F(1), F(10) ** 400], config)


def test_coefficient_too_large_for_a_float():
    huge = F(10) ** 400
    system = PolynomialSystem(
        ("x", "y"), (Polynomial(2, {(1, 0): F(1)}), Polynomial(2, {(1, 1): -huge}))
    )
    # a refusal is not cached: every call raises again
    for _ in range(2):
        with pytest.raises(ValueError, match=r"coefficient of x\*y in dy/dt is too large"):
            compile_rhs(system)
        with pytest.raises(ValueError, match="constant term of the invariant"):
            compile_invariant(QuadraticCandidate(((F(1),),), (F(0),), huge))
        with pytest.raises(ValueError, match="linear coefficient 1 of the invariant"):
            compile_invariant(QuadraticCandidate(SPHERE.q, (F(0), huge)))
        with pytest.raises(ValueError, match=r"q\[0\]\[1\] of the invariant"):
            compile_invariant(QuadraticCandidate.binary_form(F(1), -huge, F(1)))


def test_tiny_negative_overshoot_is_clamped():
    drain = PolynomialSystem.from_strings(("x",), ["-1"])
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=1e-3)
    traj = integrate(drain, [1e-3 - 5e-13], config)
    assert traj.states[-1][0] == 0.0
    assert len(traj.positivity_events) == 1
    t_event, index, value = traj.positivity_events[0]
    assert index == 0 and -1e-12 < value < 0


def test_larger_negative_aborts():
    drain = PolynomialSystem.from_strings(("x",), ["-1"])
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=1.0)
    with pytest.raises(SimulationError) as info:
        integrate(drain, [0.5e-3], config)
    assert info.value.last_time == pytest.approx(0.0, abs=1e-9)


def test_blow_up_aborts_with_last_time():
    explosive = PolynomialSystem.from_strings(("x",), ["x^2"])
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=1.0)
    with pytest.raises(SimulationError) as info:
        integrate(explosive, [2.0], config)
    # solution escapes at t = 1/2
    assert 0.4 < info.value.last_time <= 0.51


def test_stride_thins_output(example_system):
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=0.01, stride=4)
    traj = integrate(example_system, [1.0, 0.0], config)
    assert traj.times == pytest.approx([0.0, 0.004, 0.008, 0.01])


def test_zero_system_is_constant():
    zero = PolynomialSystem.from_strings(("x", "y"), ["0", "0"])
    config = SimConfig(method="rk4_fixed", step=1e-2, t_end=0.1)
    traj = integrate(zero, [0.25, 0.75], config, SPHERE)
    assert all(s == [0.25, 0.75] for s in traj.states)
    assert drift_report(traj)["max_abs_drift"] == 0.0


def test_zero_dimensional_system():
    empty = PolynomialSystem((), ())
    constant = QuadraticCandidate((), (), F(3))
    for method in ("rk4_fixed", "rkf45_adaptive"):
        traj = integrate(empty, [], SimConfig(method=method, step=0.3, t_end=1.0), constant)
        assert traj.times[-1] == 1.0
        assert all(s == [] for s in traj.states) and set(traj.invariant_values) == {3.0}


def test_zero_dimensional_projected_system():
    empty = PolynomialSystem((), ())
    constant = QuadraticCandidate((), (), F(3))
    config = SimConfig(step=0.3, t_end=1.0, projection="level_set")
    traj = integrate(empty, [], config, constant)
    assert traj.times[-1] == 1.0 and set(traj.invariant_values) == {3.0}


@pytest.mark.parametrize("t_end", [1e-3, 3e-3])
def test_projection_to_a_nonfinite_state_aborts(t_end):
    """V(1e160, 1e160) = 2e320 overflows to inf, and the projection scales by
    sqrt(inf / inf) = nan: the first step aborts, where its start was valid."""
    zero = PolynomialSystem.from_strings(("x", "y"), ["0", "0"])
    config = SimConfig(step=1e-3, t_end=t_end, projection="level_set")
    with pytest.raises(SimulationError) as info:
        integrate(zero, [1e160, 1e160], config, SPHERE)
    assert str(info.value) == "state became nonfinite (blow-up) (last valid time t=0)"


def test_cli_projection_to_a_nonfinite_state_exits_1(tmp_path, capsys):
    from crnkit.cli import main

    path = tmp_path / "zero.txt"
    path.write_text("vars x y\n0\n0\n")
    args = ["simulate", str(path), "--x0", "1e160,1e160", "--t-end", "1e-3"]
    assert main(args + ["--invariant", "x^2 + y^2", "--project"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("simulation aborted: state became nonfinite (blow-up)")


def test_csv_output(example_system):
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=2e-3)
    traj = integrate(example_system, [1.0, 0.0], config, SPHERE)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x,y,V"
    assert len(lines) == 1 + len(traj.times)
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "1.0" and first[2] == "0.0"
    # repr round trip keeps full precision
    parsed = [float(v) for v in lines[-1].split(",")]
    assert parsed[0] == traj.times[-1]
    assert parsed[1:3] == traj.states[-1]


def test_csv_without_invariant(example_system):
    config = SimConfig(method="rk4_fixed", step=1e-3, t_end=1e-3)
    traj = integrate(example_system, [1.0, 0.0], config)
    assert traj.to_csv().splitlines()[0] == "t,x,y"
    with pytest.raises(ValueError):
        drift_report(traj)


def _outcome(run, system, x0, config, invariant):
    try:
        traj = run(system, x0, config, invariant)
    except SimulationError as exc:
        return "aborted", str(exc), repr(exc.last_time)
    return (
        repr(traj.times),
        repr(traj.states),
        repr(traj.invariant_values),
        repr(traj.positivity_events),
        traj.rejected_steps,
    )


@st.composite
def simulations(draw):
    dim = draw(st.integers(1, 6))
    exponents = st.tuples(*[st.integers(0, 2)] * dim).filter(lambda e: sum(e) <= 3)
    component = st.dictionaries(exponents, st.sampled_from(SMALL_FRACTIONS), max_size=4)
    system = PolynomialSystem(
        tuple(f"x{i}" for i in range(dim)),
        tuple(Polynomial(dim, draw(component)) for _ in range(dim)),
    )
    value = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    x0 = draw(st.lists(value, min_size=dim, max_size=dim))
    entry = st.sampled_from([F(0)] * 3 + SMALL_FRACTIONS)
    projection = draw(st.booleans())
    shape = "diagonal" if projection else draw(st.sampled_from(["none", "zero", "full"]))
    invariant = None
    if shape != "none":
        q = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            if shape == "diagonal":
                q[i][i] = draw(st.sampled_from(SMALL_POSITIVE))
            for j in range(i, dim):
                if shape == "full":
                    q[i][j] = q[j][i] = draw(entry)
        # level-set projection needs Q positive diagonal and no linear part
        linear = tuple(F(0) if projection else draw(entry) for _ in range(dim))
        invariant = QuadraticCandidate(q, linear, draw(entry))
    config = SimConfig(
        method=draw(st.sampled_from(["rk4_fixed", "rkf45_adaptive"])),
        step=draw(st.sampled_from([0.01, 0.04])),
        tolerance=draw(st.sampled_from([1e-5, 1e-8, 1e-11])),
        t_end=draw(st.sampled_from([0.1, 0.37])),
        stride=draw(st.sampled_from([1, 3])),
        projection="level_set" if projection else "off",
    )
    return system, x0, config, invariant


@settings(max_examples=250, deadline=None)
@given(case=simulations())
def test_integrate_matches_reference_loops(case):
    """Generated steps and the one step loop reproduce the per-component
    steps and closures float for float, including where a run aborts."""
    assert _outcome(integrate, *case) == _outcome(reference_integrate, *case)


@pytest.mark.parametrize(
    "text, x0, config",
    [
        # clamped overshoot, then a negative abort a few steps later
        ("-1", [3e-3 - 5e-13], SimConfig(step=1e-3, t_end=0.01)),
        ("x^2", [2.0], SimConfig(step=1e-3, t_end=1.0)),
        ("x^2", [2.0], SimConfig(method="rkf45_adaptive", t_end=1.0)),
        ("1 + x^2", [-0.0], SimConfig(method="rkf45_adaptive", step=1e-13, tolerance=1e-300, t_end=1.0)),
        ("-x", [-0.0], SimConfig(step=0.3, t_end=1.0, stride=2)),
        ("x", [-0.0], SimConfig(method="rkf45_adaptive", step=0.3, t_end=1.0)),
        ("-x", [1.0], SimConfig(method="rkf45_adaptive", step=0.3, t_end=1.0, stride=4)),
        # 1e300 * x overflows to inf by multiplication, which raises no OverflowError
        pytest.param(
            "1" + "0" * 300 + "*x", [1e10], SimConfig(step=1e-3, t_end=1.0), id="inf-by-product"
        ),
        pytest.param(
            "-1",
            [1e-3 - 5e-13],
            SimConfig(method="rkf45_adaptive", step=1e-3, t_end=1e-3),
            id="rkf45-clamp",
        ),
    ],
)
def test_integrate_matches_reference_on_edges(text, x0, config):
    system = PolynomialSystem.from_strings(("x",), [text])
    for invariant in (None, QuadraticCandidate(((F(1),),), (F(-1),), F(1, 2))):
        case = (system, x0, config, invariant)
        assert _outcome(integrate, *case) == _outcome(reference_integrate, *case)


@st.composite
def guarded_runs(draw):
    """Random simulations, and one-variable edges: clamps, negative aborts,
    blow-ups, and initial states whose V overflows."""
    if draw(st.booleans()):
        return draw(simulations())
    system = PolynomialSystem.from_strings(
        ("x",), [draw(st.sampled_from(["-1", "-x", "x^2", "0", "1" + "0" * 300 + "*x"]))]
    )
    x0 = [draw(st.sampled_from([0.0, 3e-3 - 5e-13, 0.5, 2.0, 1e10, 1e160, 1e200]))]
    projection = draw(st.booleans())
    square = QuadraticCandidate(((F(1),),), (F(0),), F(0))
    shifted = QuadraticCandidate(((F(1),),), (F(-1),), F(1, 2))
    config = SimConfig(
        method=draw(st.sampled_from(["rk4_fixed", "rkf45_adaptive"])),
        step=draw(st.sampled_from([1e-3, 0.01])),
        t_end=draw(st.sampled_from([3e-3, 0.1, 1.0])),
        projection="level_set" if projection else "off",
    )
    return system, x0, config, square if projection else draw(st.sampled_from([square, shifted]))


@settings(max_examples=200, deadline=None)
@given(case=guarded_runs())
def test_integrate_evaluates_the_invariant_at_finite_states_only(case):
    """Every state `integrate` hands its compiled invariant is finite, also
    where a run is clamped, blows up or is projected to a nonfinite state."""
    evaluated = []

    def guarded(candidate):
        value = compile_invariant(candidate)

        def checked(state):
            assert all(map(math.isfinite, state)), state
            evaluated.append(state)
            return value(state)

        return checked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crnkit.sim, "compile_invariant", guarded)
        try:
            integrate(*case)
        except SimulationError:
            pass
    assert evaluated or case[3] is None


# A stage of 1e300*x from x0 = 1e10 overflows to inf, so the RKF45 error
# estimate is inf - inf = nan; the step must shrink until it underflows.
NAN_ERROR_SYSTEM = "1" + "0" * 300 + "*x"
NAN_ERROR_SCRIPT = f"""
from crnkit import PolynomialSystem, SimConfig, SimulationError, integrate
from tests.support import reference_integrate
system = PolynomialSystem.from_strings(("x",), ["{NAN_ERROR_SYSTEM}"])
config = SimConfig(method="rkf45_adaptive", step=1e-3, t_end=1.0)
for run in (integrate, reference_integrate):
    try:
        run(system, [1e10], config)
    except SimulationError as exc:
        print(exc)
"""


def _run_bounded(args, **kwargs):
    """Run a Python subprocess that sees this crnkit and tests, killed after 10 s."""
    src = Path(crnkit.sim.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(root)))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=10, env=env, **kwargs
    )


def test_rkf45_ends_when_its_error_estimate_is_nan():
    result = _run_bounded(["-c", NAN_ERROR_SCRIPT])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["step size underflow (last valid time t=0)"] * 2


def test_cli_rkf45_ends_when_its_error_estimate_is_nan(tmp_path):
    path = tmp_path / "blowup.txt"
    path.write_text(f"vars x\n{NAN_ERROR_SYSTEM}\n")
    result = _run_bounded(
        ["-m", "crnkit", "simulate", str(path), "--x0", "1e10", "--method", "rkf45", "--t-end", "1"]
    )
    assert result.returncode == 1
    assert result.stderr.startswith("simulation aborted: step size underflow")


# -- long sums ---------------------------------------------------------------------

def _long_system(count: int) -> PolynomialSystem:
    """dx/dt with `count` distinct terms in x, y, z (graded, degree up to 48
    for 20,000), dy/dt = -y, dz/dt = 0."""

    def exponents():
        degree = 0
        while True:
            for a in range(degree, -1, -1):
                for b in range(degree - a, -1, -1):
                    yield a, b, degree - a - b
            degree += 1

    terms = {e: F(k % 7 + 1, k % 5 + 1) for k, e in zip(range(count), exponents())}
    return PolynomialSystem(
        ("x", "y", "z"),
        (Polynomial(3, terms), Polynomial(3, {(0, 1, 0): F(-1)}), Polynomial(3, {})),
    )


@pytest.mark.parametrize("count", [3_000, 20_000])
def test_long_sums_compile_and_match_the_reference(count):
    """A `+` chain of about 3,000 terms exceeds the compiler's recursion limit;
    the generated sum comes in chunks with the same additions in the same order."""
    system = _long_system(count)
    rhs = compile_rhs(system)
    for state in ([0.5, 0.5, 0.5], [0.9, 0.1, 0.3], [0.0, 1.0, -0.0]):
        assert repr(rhs(state)) == repr(left_to_right_rhs(system, state))
    methods = ["rk4_fixed", "rkf45_adaptive"] if count < 10_000 else ["rk4_fixed"]
    for method in methods:
        case = (system, [0.5, 0.5, 0.5], SimConfig(method=method, step=1e-3, t_end=0.005), None)
        assert _outcome(integrate, *case) == _outcome(reference_integrate, *case)


def test_cli_simulates_a_component_of_3000_written_out_terms(tmp_path, capsys):
    from crnkit.cli import main

    system = _long_system(3_000)
    path = tmp_path / "long.txt"
    path.write_text("vars x y z\n" + "\n".join(c.render(system.variables) for c in system.components))
    code = main(["simulate", str(path), "--x0", "0.5,0.5,0.5", "--t-end", "0.01", "--json"])
    assert code == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["samples"] == 11


def test_sums_up_to_the_chunk_size_stay_one_chain(monkeypatch):
    sources = []
    compile_lines = crnkit.sim._compile
    monkeypatch.setattr(
        crnkit.sim, "_compile", lambda sig, lines, **ns: sources.append(lines) or compile_lines(sig, lines, **ns)
    )
    chunk = crnkit.sim.SUM_CHUNK
    for count in (chunk, chunk + 1):
        compile_rhs.__wrapped__(_long_system(count))
    one_chain, chunked = sources

    def joins(line):
        return line.count(" + ") + line.count(" - ")

    assert len(one_chain) == 2 and joins(one_chain[1]) == chunk - 1
    assert chunked[1].startswith("s0 = ") and joins(chunked[1]) == chunk - 1
    assert chunked[2].startswith("s0 = s0 + ") and joins(chunked[2]) == 1
    assert chunked[3] == "return [s0, -x1, 0.0]"


@st.composite
def chunked_cases(draw):
    dim = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    # signed, so that a chunk can start with a subtraction
    coefficient = st.builds(
        lambda c, negative: -c if negative else c, st.sampled_from(SMALL_FRACTIONS), st.booleans()
    )
    component = st.dictionaries(exponents, coefficient, max_size=8)
    system = PolynomialSystem(
        tuple(f"x{i}" for i in range(dim)),
        tuple(Polynomial(dim, draw(component)) for _ in range(dim)),
    )
    value = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
    points = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=4))
    return system, points, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(case=chunked_cases())
def test_chunked_sums_keep_every_float_addition(case):
    """With chunks of 1-3 terms, the generated right-hand side gives the same
    floats as the single chains, nonfinite states included."""
    system, points, chunk = case
    whole_rhs = compile_rhs.__wrapped__(system)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crnkit.sim, "SUM_CHUNK", chunk)
        chunked_rhs = compile_rhs.__wrapped__(system)
    for point in points:
        assert repr(chunked_rhs(point)) == repr(whole_rhs(point))


# -- generated code ----------------------------------------------------------------

# +-1, +-2, +-1/3, +-7/5, +-10^-400 (a float +-0.0) and +-10^300
SIGNED_COEFFICIENTS = [
    sign * value
    for value in (F(1), F(2), F(1, 3), F(7, 5), F(1, 10**400), F(10**300))
    for sign in (1, -1)
]
FINITE_SAMPLES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 0.75, -2.5, 1e200, -1e200, 1.7976931348623157e308
]


def _evaluated(function, state) -> str:
    try:
        return repr(function(state))
    except OverflowError:
        return "OverflowError"


@st.composite
def signed_rhs_cases(draw):
    dim = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    component = st.dictionaries(exponents, st.sampled_from(SIGNED_COEFFICIENTS), max_size=6)
    system = PolynomialSystem(
        tuple(f"x{i}" for i in range(dim)),
        tuple(Polynomial(dim, draw(component)) for _ in range(dim)),
    )
    value = st.one_of(
        st.sampled_from(FINITE_SAMPLES + [math.inf, -math.inf, math.nan]), st.floats(-4.0, 4.0)
    )
    return system, draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(case=signed_rhs_cases())
def test_compiled_rhs_is_the_left_to_right_loop_for_every_sign(case):
    """Terms of coefficient +-1 without the factor 1.0 and signs written into
    the join give the loop's floats: signed zeros, nonfinite states and
    coefficients that round to -0.0 included; both overflow alike."""
    system, points = case
    rhs = compile_rhs(system)
    for point in points:
        assert _evaluated(rhs, point) == _evaluated(lambda s: left_to_right_rhs(system, s), point)


@st.composite
def signed_invariant_cases(draw):
    dim = draw(st.integers(0, 4))
    entry = st.sampled_from(SIGNED_COEFFICIENTS + [F(0)])
    q = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            q[i][j] = q[j][i] = draw(entry)
    candidate = QuadraticCandidate(
        tuple(map(tuple, q)), tuple(draw(entry) for _ in range(dim)), draw(entry)
    )
    value = st.one_of(st.sampled_from(FINITE_SAMPLES), st.floats(-4.0, 4.0))
    return candidate, draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(case=signed_invariant_cases())
def test_compiled_invariant_is_the_dense_loop_for_every_sign(case):
    """The one-expression invariant gives the dense loop's value at finite
    states, the only ones `integrate` evaluates it at, for +-1, negative and
    underflowing entries and a constant that rounds to -0.0."""
    candidate, points = case
    fast, slow = compile_invariant(candidate), dense_invariant(candidate)
    for point in points:
        assert repr(fast(point)) == repr(slow(point)), (candidate, point)


def test_an_invariant_of_more_than_the_chunk_size_compiles():
    """With a -0.0 constant every entry is kept: 60 * 61 terms after the
    constant, more than one chain of about 3,000 `+` compiles."""
    n = 60
    q = tuple(tuple(F((i + j) % 3 - 1) for j in range(n)) for i in range(n))
    candidate = QuadraticCandidate(q, tuple(F(1 - i % 2) for i in range(n)), F(-1, 10**400))
    fast, slow = compile_invariant(candidate), dense_invariant(candidate)
    for point in ([0.5] * n, [(-1.0) ** i * 1e-3 * i for i in range(n)], [-0.0] * n):
        assert repr(fast(point)) == repr(slow(point))


def _literal(node: ast.expr):
    """The value of a number literal, signed or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return node.value if isinstance(node, ast.Constant) else None


def test_generated_code_multiplies_by_no_int_and_no_one(monkeypatch, example_system, cascade_system):
    """No int literal is a factor (int * float misses CPython's float multiply),
    no factor is +-1.0, and a step calls `rhs` once per stage, which is what
    the benchmark's `sim.rhs_evals` counter counts."""
    sources = []
    compile_lines = crnkit.sim._compile
    monkeypatch.setattr(
        crnkit.sim, "_compile", lambda sig, lines, **ns: sources.append(lines) or compile_lines(sig, lines, **ns)
    )

    def generated(build, *args):
        build.__wrapped__(*args)
        return ast.parse("def generated():\n" + "".join(f"    {line}\n" for line in sources.pop()))

    rho = (1, 2, 4, 1, 4, 5, 2, 2, 1)
    cascade_invariant = QuadraticCandidate(tuple((F(0),) * 9 for _ in rho), tuple(map(F, rho)), F(0))
    evaluators = [
        generated(compile_rhs, cascade_system),
        generated(compile_rhs, example_system),
        generated(compile_invariant, cascade_invariant),
        generated(compile_invariant, SPHERE),
    ]
    steps = {
        (method, n): generated(crnkit.sim._step_function, method, n)
        for method in ("rk4_fixed", "rkf45_adaptive")
        for n in range(1, 5)
    }
    for tree in evaluators + list(steps.values()):
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for operand in (node.left, node.right):
                    value = _literal(operand)
                    assert type(value) is not int and value != 1.0, ast.unparse(node)
    for (method, n), tree in steps.items():
        calls = sum(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rhs" for node in ast.walk(tree)
        )
        assert calls == {"rk4_fixed": 4, "rkf45_adaptive": 6}[method], (method, n)
