"""Self-tests of the benchmark on tiny sizes.

    python3 -m pytest perfbench -q

They pin the generators' determinism and show that each check catches
the fault it exists for.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402


def _serve(templates):
    """Answers from an in-process engine, as canonical response lines."""
    from repro.serve.engine import AdmissionEngine
    from repro.serve.protocol import canonical

    engine = AdmissionEngine()
    lines = []
    for i, template in enumerate(templates):
        req = {k: v for k, v in template.items() if not k.startswith("_")}
        req["id"] = i
        lines.append(canonical(engine.handle(req)).encode())
    return lines


def _admit():
    template = gen.restart_fill(0)[0]
    return template, json.loads(_serve([template])[0])


def test_generators_are_pure_functions_of_the_seed():
    assert gen.restart_fill(3) == gen.restart_fill(3)
    assert gen.fleet_recipe(3) == gen.fleet_recipe(3)
    a, b = gen.RestartStream(3), gen.RestartStream(3)
    assert b.round(5) == a.round(5) and a.round(0) == b.round(0)
    assert [gen.body(t) for t in a.round(1)] == \
        [gen.body(t) for t in b.round(1)]
    assert gen.restart_fill(3) != gen.restart_fill(4)
    assert gen.fleet_recipe(3) != gen.fleet_recipe(4)
    assert a.round(0) != gen.RestartStream(4).round(0)
    assert a.round(0) != a.round(1)


def test_rounds_have_a_fixed_make_up():
    round_ = gen.RestartStream(1).round(7)
    assert len(round_) == gen.RESTART_ROUND == sum(gen.RESTART_MIX.values())
    assert sum(t["_kind"] == "bad" for t in round_) == 4


def test_checker_flags_a_flipped_admitted():
    template, resp = _admit()
    assert checks.check_admit(template, resp) == []
    flipped = dict(resp, admitted=not resp["admitted"])
    assert checks.check_admit(template, flipped)


def test_checker_flags_an_unsafe_vsafe():
    template, resp = _admit()
    assert checks.admit_is_safe(template, resp["v_safe"])
    v = resp["v_safe"]
    while checks.admit_is_safe(template, v):
        v -= 0.005
        assert v > 1.0, "never browned out"
    chk = checks.StreamCheck()
    chk.admit_keys["k"] = (template, dict(resp, v_safe=v))
    checks.physics_samples(chk, seed=0)
    assert any("unsafe" in p for p in chk.problems)


def test_checker_flags_a_perturbed_simulate_lane():
    template = next(t for t in gen.RestartStream(0).round(0)
                    if t["_kind"] == "sim")
    lane = json.loads(_serve([template])[0])
    ref = checks.simulate_reference(template)
    assert checks.compare_lane(lane, ref) == []
    bumped = dict(lane, v_min=lane["v_min"] + 2 * checks.V_TOL)
    assert checks.compare_lane(bumped, ref)
    drained = dict(lane, energy=lane["energy"] * 1.1)
    assert checks.compare_lane(drained, ref)


def test_checker_flags_a_completed_device_below_v_off():
    from repro.apps.programs import build_program
    from repro.env.spec import EnvSpec
    from repro.fleet import FleetSpec, run_fleet_raw

    recipe = gen.fleet_recipe(0)
    spec = FleetSpec(env=EnvSpec(**recipe["env"]),
                     **dict(recipe["spec"], devices=8))
    run = dict(recipe["run"], cycles=1)
    outcomes = run_fleet_raw(spec, **run)
    program = build_program(run["app"], cycles=1)
    tasks = len(program.tasks)
    assert checks.fleet_summary_problems(outcomes, tasks, spec.v_off) == []
    params = spec.parameters()
    assert checks.fleet_device_problems(outcomes, params, 3, program) == []
    done = int((outcomes.outcome_codes == checks.COMPLETED).argmax())
    outcomes.v_min[done] = spec.v_off - 0.01
    assert checks.fleet_summary_problems(outcomes, tasks, spec.v_off)
    assert checks.fleet_device_problems(outcomes, params, done, program)


@pytest.mark.parametrize("sent_rounds", [1, 2])
def test_known_fault_count_equals_malformed_admits_sent(sent_rounds):
    stream = gen.RestartStream(0)
    templates = []
    for r in range(sent_rounds):
        round_ = stream.round(r)
        templates += [t for t in round_ if t["_kind"] == "bad"]
        templates += [t for t in round_ if t["_kind"] == "admit"][:10]
    chk = checks.check_stream(templates, _serve(templates))
    bad = sum(t["_kind"] == "bad" for t in templates)
    assert chk.failed == bad == 4 * sent_rounds
    assert sum(chk.faults.values()) == bad
    assert chk.correct, chk.problems


def test_a_typed_refusal_is_not_a_failure():
    refusal = {"id": None, "ok": False, "error": "invalid", "message": "x"}
    internal = dict(refusal, error="internal")
    assert checks.refused(refusal)
    assert not checks.refused(internal)
    assert not checks.refused({"id": 1, "ok": True})
