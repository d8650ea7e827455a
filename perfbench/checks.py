"""Checks of the program's answers, computed apart from the program.

Arithmetic invariants are recomputed from the response's own fields; the
physics is re-run on the reference stepper
(``PowerSystemSimulator(..., fast=False, segalg=False)``), a different
integrator from the stepping fleet kernel that serves ``simulate`` and
drives the fleet runner. Nothing is compared against stored output.

Tolerances are the method tolerances DESIGN §12 documents between two
integrators of the same physics (stepping vs segment algebra): they hold
for today's default engine and for the segalg engine alike.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Voltage agreement between integrators (V): DESIGN §12 reports up to
#: ~2e-3 V under brown-out truncation and solar midpoint sampling; the
#: program's own segalg cross-check allows 5e-3 V.
V_TOL = 5e-3
#: Brown-out time agreement (s): the stepping loop's idle step, 50 ms.
T_TOL = 0.05
#: Relative energy agreement (DESIGN §12: ~1e-2 on jittered fleets).
E_REL_TOL = 2e-2
E_ABS_TOL = 1e-6

#: Plant defaults of ``capybara_power_system`` that a request may
#: override, and the simulate-only harvest field.
_PLANT_KEYS = ("datasheet_capacitance", "capacitance_tolerance", "dc_esr",
               "c_decoupling", "leakage_current", "redist_fraction",
               "v_high", "v_off", "v_out")
V_HIGH_DEFAULT = 2.56
V_OFF_DEFAULT = 1.6
BATCH_HARVEST_DEFAULT = 4e-3


def rails(template: dict) -> Tuple[float, float]:
    system = template.get("system") or {}
    return (float(system.get("v_high", V_HIGH_DEFAULT)),
            float(system.get("v_off", V_OFF_DEFAULT)))


# -- per-response checks -------------------------------------------------

def check_admit(template: dict, resp: dict) -> List[str]:
    """Problems with one successful admit answer (empty = correct)."""
    v_high, v_off = rails(template)
    out = []
    v_safe = resp.get("v_safe")
    derate = resp.get("derate")
    gate = resp.get("gate")
    if not all(isinstance(x, (int, float)) for x in (v_safe, derate, gate)):
        return [f"admit answer lacks numbers: {resp}"]
    if gate != min(v_high, v_safe + derate):
        out.append(f"gate {gate!r} != min(v_high, v_safe + derate)")
    if resp.get("admitted") is not (template["v_bank"] >= gate):
        out.append(f"admitted {resp.get('admitted')!r} with v_bank "
                   f"{template['v_bank']} and gate {gate}")
    if not v_off <= v_safe <= v_high:
        out.append(f"v_safe {v_safe} outside [v_off, v_high]")
    if derate < 0:
        out.append(f"negative derate {derate}")
    return out


def check_report(template: dict, resp: dict) -> List[str]:
    derate = resp.get("derate")
    if not isinstance(derate, (int, float)) or derate < 0:
        return [f"report answer derate {derate!r} is not >= 0"]
    if resp.get("device") != template["device"]:
        return [f"report answered for {resp.get('device')!r}"]
    return []


def refused(resp: Optional[dict]) -> bool:
    """A malformed request's correct answer: a typed refusal."""
    return (resp is not None and resp.get("ok") is False
            and resp.get("error") not in (None, "internal"))


# -- reference physics ---------------------------------------------------

def _reference_system(system: dict, harvest_power: Optional[float]):
    from repro.power.harvester import ConstantPowerHarvester
    from repro.power.system import capybara_power_system

    kwargs = {k: float(system[k]) for k in _PLANT_KEYS if k in system}
    if harvest_power is not None:
        kwargs["harvester"] = ConstantPowerHarvester(harvest_power)
    return capybara_power_system(**kwargs)


def _reference_sim(system):
    from repro.sim.engine import PowerSystemSimulator

    return PowerSystemSimulator(system, fast=False, segalg=False)


def task_trace(app: str, task: str):
    from repro.apps.programs import build_program

    for t in build_program(app):
        if t.name == task:
            return t.trace
    raise KeyError(f"{app} has no task {task}")


def admit_is_safe(template: dict, v_safe: float) -> bool:
    """The paper's safety claim for one answer: the task, started from a
    rested buffer at the answered V_safe with no harvest, completes on
    the reference stepper without crossing V_off."""
    system = _reference_system(template.get("system") or {}, None)
    system.rest_at(v_safe)
    result = _reference_sim(system).run_trace(
        task_trace(template["app"], template["task"]), harvesting=False)
    return result.completed and not result.browned_out


def simulate_reference(template: dict) -> dict:
    """A ``simulate`` request re-run on the reference stepper."""
    from repro.loads.trace import CurrentTrace

    system_fields = template.get("system") or {}
    harvest = (float(system_fields.get("harvest_power",
                                       BATCH_HARVEST_DEFAULT))
               if template.get("harvesting") else None)
    system = _reference_system(system_fields, harvest)
    system.rest_at(float(template["v_start"]))
    sim = _reference_sim(system)
    result = sim.run_trace(CurrentTrace(template["trace"]),
                           harvesting=bool(template.get("harvesting")),
                           stop_on_brownout=bool(template.get("stop", True)))
    return {"v_end": result.v_final, "v_min": result.v_min,
            "time": sim.time, "energy": result.energy_from_buffer,
            "brownout": result.brown_out_time}


def _energy_close(a: float, b: float) -> bool:
    return abs(a - b) <= E_ABS_TOL + E_REL_TOL * max(abs(a), abs(b))


def compare_lane(lane: dict, ref: dict) -> List[str]:
    """A served simulate lane against the reference re-run."""
    out = []
    if (lane.get("brownout") is None) != (ref["brownout"] is None):
        return [f"brownout {lane.get('brownout')!r} vs reference "
                f"{ref['brownout']!r}"]
    if ref["brownout"] is not None \
            and abs(lane["brownout"] - ref["brownout"]) > T_TOL:
        out.append(f"brownout time {lane['brownout']} vs {ref['brownout']}")
    for name in ("v_end", "v_min"):
        if abs(lane[name] - ref[name]) > V_TOL:
            out.append(f"{name} {lane[name]} vs reference {ref[name]}")
    if abs(lane["time"] - ref["time"]) > T_TOL:
        out.append(f"time {lane['time']} vs reference {ref['time']}")
    if not _energy_close(lane["energy"], ref["energy"]):
        out.append(f"energy {lane['energy']} vs reference {ref['energy']}")
    return out


# -- serve-stream checking ----------------------------------------------

class StreamCheck:
    """Outcome of checking one timed phase's responses."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.faults: Dict[str, int] = {}
        #: First answer per distinct (plant, task) admit key.
        self.admit_keys: Dict[str, Tuple[dict, dict]] = {}
        self.sims: List[Tuple[dict, dict]] = []

    @property
    def correct(self) -> bool:
        return not self.problems


def check_stream(templates: Sequence[dict],
                 lines: Sequence[Optional[bytes]]) -> StreamCheck:
    """Check every response of a timed phase against its template."""
    chk = StreamCheck()
    keyed = set()           # templates repeat across rounds: key once
    for template, line in zip(templates, lines):
        chk.attempted += 1
        kind = template["_kind"]
        resp = json.loads(line) if line is not None else None
        if kind == "bad":
            if not refused(resp):
                chk.failed += 1
                fault = template["_fault"]
                chk.faults[fault] = chk.faults.get(fault, 0) + 1
            continue
        if resp is None or resp.get("ok") is not True:
            chk.failed += 1
            continue
        if kind == "admit":
            problems = check_admit(template, resp)
            if id(template) not in keyed:
                keyed.add(id(template))
                key = json.dumps([template.get("system"), template["app"],
                                  template["task"]], sort_keys=True)
                chk.admit_keys.setdefault(key, (template, resp))
        elif kind == "report":
            problems = check_report(template, resp)
        else:
            problems = [] if all(k in resp for k in (
                "v_end", "v_min", "time", "energy", "brownout")) \
                else [f"simulate answer lacks lane fields: {resp}"]
            chk.sims.append((template, resp))
        chk.problems.extend(problems[:1])
    return chk


def physics_samples(chk: StreamCheck, seed: int, admits: int = 6,
                    sims: int = 3) -> None:
    """Reference-stepper checks on a seeded sample of distinct admit keys
    and of simulate lanes (appends to ``chk.problems``)."""
    rng = random.Random(f"checks/{seed}")
    keys = sorted(chk.admit_keys)
    for key in rng.sample(keys, min(admits, len(keys))):
        template, resp = chk.admit_keys[key]
        if not admit_is_safe(template, resp["v_safe"]):
            chk.problems.append(
                f"unsafe V_safe {resp['v_safe']} for {key}: the reference "
                f"run browns out")
    picks = rng.sample(range(len(chk.sims)), min(sims, len(chk.sims)))
    for k in sorted(picks):
        template, resp = chk.sims[k]
        for problem in compare_lane(resp, simulate_reference(template)):
            chk.problems.append(f"simulate lane: {problem}")


# -- fleet checks --------------------------------------------------------

#: Outcome codes of ``FleetOutcomes.outcome_codes`` (the chaos campaign's
#: four-way classification, in its order).
COMPLETED, DEGRADED, BROWN_OUT, LIVELOCK = range(4)


def fleet_summary_problems(outcomes, tasks_per_device: int,
                           v_off: float) -> List[str]:
    """Whole-fleet invariants of one ``run_fleet_raw`` result."""
    import numpy as np

    codes = np.asarray(outcomes.outcome_codes)
    n = outcomes.spec.devices
    out = []
    counts = np.bincount(codes, minlength=4)
    if len(counts) != 4 or int(counts.sum()) != n:
        out.append(f"outcome counts {counts.tolist()} do not sum to {n}")
    done = codes == COMPLETED
    if np.any(np.asarray(outcomes.tasks_committed)[done]
              != tasks_per_device):
        out.append("a completed device did not commit every task")
    if np.any(np.asarray(outcomes.v_min)[done] < v_off):
        out.append("a completed device has v_min below V_off")
    return out


def reference_device(params, index: int, program, gates: Dict[str, float],
                     horizon: float) -> dict:
    """Walk one fleet device through the fleet runner's protocol (charge
    in 0.25 s chunks to each task's gate, then run the task with
    brown-out at V_off) on the reference stepper. Returns its outcome,
    ``v_min``, delivered energy and the smallest voltage margin seen at
    any gate or V_off decision."""
    from repro.loads.trace import CurrentTrace

    spec = params.spec
    system = params.device_system(index)
    sim = _reference_sim(system)
    chunk = CurrentTrace([(0.0, 0.25)])
    buffer = system.buffer
    v_min = buffer.terminal_voltage
    energy = 0.0
    margin = float("inf")
    committed = 0
    outcome = COMPLETED
    for task in program.tasks:
        gate = min(spec.v_high, gates[task.name])
        while buffer.terminal_voltage < gate:
            if sim.time >= horizon - 1e-12:
                break
            res = sim.run_trace(chunk, harvesting=True,
                                stop_on_brownout=False)
            v_min = min(v_min, res.v_min)
        margin = min(margin, abs(buffer.terminal_voltage - gate))
        if not (sim.time < horizon - 1e-12
                and buffer.terminal_voltage >= gate):
            outcome = DEGRADED
            break
        res = sim.run_trace(task.trace, harvesting=True)
        v_min = min(v_min, res.v_min)
        energy += res.energy_from_buffer
        margin = min(margin, abs(res.v_min - spec.v_off))
        if res.browned_out:
            outcome = BROWN_OUT
            break
        committed += 1
    return {"outcome": outcome, "committed": committed, "v_min": v_min,
            "energy": energy, "margin": margin}


def fleet_device_problems(outcomes, params, index: int, program) -> List[str]:
    """One sampled fleet device against its reference walk. An outcome
    that differs where the reference margin to a gate or to V_off is
    within V_TOL is ambiguous between two correct integrators and is not
    counted."""
    ref = reference_device(params, index, program, outcomes.gates,
                           outcomes.horizon)
    out = []
    code = int(outcomes.outcome_codes[index])
    if code != ref["outcome"] \
            or int(outcomes.tasks_committed[index]) != ref["committed"]:
        if ref["margin"] <= V_TOL:
            return []
        return [f"device {index}: outcome {code} / "
                f"{int(outcomes.tasks_committed[index])} tasks vs reference "
                f"{ref['outcome']} / {ref['committed']}"]
    v_min = float(outcomes.v_min[index])
    if abs(v_min - ref["v_min"]) > V_TOL:
        out.append(f"device {index}: v_min {v_min} vs {ref['v_min']}")
    energy = float(outcomes.energy[index])
    if not _energy_close(energy, ref["energy"]):
        out.append(f"device {index}: energy {energy} vs {ref['energy']}")
    return out
