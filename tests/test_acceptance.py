"""Acceptance gate: every release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each
criterion is a single test so the suite's own pass/fail mirrors the gate.
"""
from __future__ import annotations

import dataclasses
import itertools
from math import comb

import numpy as np

from oracles import haar_state, oracle_pit_cheat, raster_escape
from stq import engine, qsim, schemes
from stq.engine import pit_cheat_chi_probability, simulate
from stq.feasibility import check_task
from stq.geometry import Region, escape_exists
from stq.model import TaskSpec, embed_access_structure
from test_geometry import box_diamond, random_escape_instance


def _gate(name: str, failures: list[str]) -> None:
    print(("FAIL " if failures else "PASS ") + name)
    assert not failures, f"{name}: " + "; ".join(failures[:8])


# --------------------------------------------------------------------


def test_criterion_1_verdict_goldens(task_of):
    failures: list[str] = []
    expected = {
        "fig1": (True, []),
        "fig7a": (False, ["I_A"]),
        "fig7b": (False, ["I_B"]),
        "fig7c": (False, ["II"]),
        "fig7d": (False, ["III"]),
        "fig10": (True, []),
        "fig11": (False, ["II"]),
        "fig12": (True, []),
        "fig13": (True, []),
        "fig14": (True, []),
    }
    for name, (feasible, conditions) in expected.items():
        verdict = check_task(task_of(name))
        if verdict.feasible is not feasible:
            failures.append(f"{name} feasible={verdict.feasible}")
        got = [v.condition for v in verdict.violations]
        if conditions and got != conditions:
            failures.append(f"{name} conditions {got}")

    flipped = dataclasses.replace(task_of("fig14"), variant="unrestricted")
    verdict = check_task(flipped)
    if verdict.feasible:
        failures.append("fig14 unrestricted came out feasible")
    witnesses = [(v.condition, v.subject) for v in verdict.violations]
    if ("B1", ("D0", "D1", "D2")) not in witnesses:
        failures.append(f"fig14 unrestricted witnesses {witnesses}")
    _gate("criterion 1: fixture verdict goldens", failures)


def test_criterion_2_pair_decodable_code():
    failures: list[str] = []
    tol = 1e-9
    eye3 = np.eye(3) / 3.0
    chi = schemes.chi_state()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        psi = haar_state(qsim.Register([("s", 3)]), rng)
        enc = schemes.code23_encode(psi, "s", ["s0", "s1", "s2"])
        for i in range(3):
            td = qsim.trace_distance(qsim.partial_trace(enc, [f"s{i}"]), eye3)
            if td > tol:
                failures.append(f"seed {seed}: share {i} TD {td:.2e}")
        for a, b in ((0, 1), (0, 2), (1, 2)):
            dec = schemes.code23_decode(enc, (a, b), f"s{a}", f"s{b}")
            fid = qsim.fidelity(qsim.partial_trace(dec, [f"s{a}"]), psi.vec)
            if fid < 1.0 - tol:
                failures.append(f"seed {seed}: pair ({a},{b}) fid {fid}")
            other = 3 - a - b
            on_rest = qsim.fidelity(
                qsim.partial_trace(dec, [f"s{b}", f"s{other}"]), chi)
            if on_rest < 1.0 - tol:
                failures.append(
                    f"seed {seed}: pair ({a},{b}) residual {on_rest}")
    _gate("criterion 2: 2-of-3 qutrit code round trips", failures)


def test_criterion_3_pad_hides_entangled_halves():
    failures: list[str] = []
    base = qsim.maximally_entangled(3, ("a", "b"))
    acc = np.zeros((9, 9), dtype=np.complex128)
    for ka in range(3):
        for kb in range(3):
            vec = schemes.qotp_encrypt(base, "b", (ka, kb)).vec
            acc += np.outer(vec, vec.conj())
    acc /= 9.0
    td = qsim.trace_distance(acc, np.eye(9) / 9.0)
    if td > 1e-9:
        failures.append(f"key average TD {td:.2e}")
    _gate("criterion 3: qudit pad erases an entangled half", failures)


def test_criterion_4_localization_end_to_end(report_of):
    failures: list[str] = []
    for name in ("fig1", "fig10"):
        report = report_of(name)
        if report.min_fidelity is None or report.min_fidelity < 1.0 - 1e-9:
            failures.append(f"{name} fidelity {report.min_fidelity}")
        if report.max_leak is None or report.max_leak > 1e-9:
            failures.append(f"{name} leak {report.max_leak}")
        if not report.passed:
            failures.append(f"{name} report failed")
    _gate("criterion 4: localize-exclude delivery and exclusion", failures)


def test_criterion_5_assembly_call_patterns(task_of, plan_of):
    failures: list[str] = []
    tol = 1e-9
    task = task_of("fig13")
    plan = plan_of("fig13")
    zero = {ev["name"]: (0, 0) for ev in plan.events if ev["op"] == "key"}
    names = sorted(task.diamonds)
    subsets = [tuple(c) for r in range(1, 5)
               for c in itertools.combinations(names, r)]

    def reconstructing(trace, group):
        region = Region("+".join(group),
                        tuple(task.diamonds[n] for n in group))
        view = engine._collect(trace, region, geometric=False)
        fid, found = engine._reconstruct(trace, view, zero, 3)
        return found and fid >= 1.0 - tol

    authorized = {frozenset(s) for s in task.authorized}
    for r in range(5):
        for pattern in itertools.combinations(names, r):
            trace = engine._run(plan, frozenset(pattern), zero)
            hits = [frozenset(g) for g in subsets
                    if reconstructing(trace, g)]
            label = "{" + ",".join(pattern) + "}"
            if frozenset(pattern) in authorized:
                if frozenset(pattern) not in hits:
                    failures.append(f"{label}: authorized pair left out")
            if len(pattern) >= 3:
                if hits:
                    failures.append(f"{label}: over-calling reconstructs")
                region = Region("S", tuple(task.diamonds[n]
                                           for n in pattern))
                view = engine._collect(trace, region, geometric=False)
                leak = engine._twirl_leak(trace, view, 3)
                if leak > tol:
                    failures.append(f"{label}: view leaks {leak:.2e}")
            for ga, gb in itertools.combinations(hits, 2):
                if not ga & gb:
                    failures.append(f"{label}: disjoint readers {ga} {gb}")
    _gate("criterion 5: assembly over all sixteen call patterns", failures)


def test_criterion_6_summoning_single_calls(report_of):
    failures: list[str] = []
    for name, count in (("fig12", 2), ("fig14", 3)):
        report = report_of(name)
        if len(report.scenarios) != count:
            failures.append(f"{name}: {len(report.scenarios)} scenarios")
        for sc in report.scenarios:
            for c in sc.collectors:
                if c.fidelity is None or c.fidelity < 1.0 - 1e-9:
                    failures.append(
                        f"{name} calls {sc.calls}: fidelity {c.fidelity}")
    _gate("criterion 6: summoning answers every single call", failures)


def test_criterion_7_transfer_honest_and_cheating(plan_of):
    failures: list[str] = []
    report = simulate(plan_of("fig15"))
    if report.min_fidelity is None or report.min_fidelity < 1.0 - 1e-9:
        failures.append(f"fidelity {report.min_fidelity}")
    if report.min_chi is None or abs(report.min_chi - 1.0) > 1e-9:
        failures.append(f"check prob {report.min_chi}")
    # the best decoy's pass probability bounds every sampled decoy's
    bound = pit_cheat_chi_probability()
    if abs(bound - 1.0 / 9.0) > 1e-9:
        failures.append(f"cheat bound {bound} != 1/9")
    for seed in range(10):
        want = oracle_pit_cheat(seed)
        if abs(bound - want) > 1e-12:
            failures.append(f"cheat seed {seed}: bound {bound} vs "
                            f"oracle {want}")
    _gate("criterion 7: transfer certification honest and cheating",
          failures)


def test_criterion_8_cost_scaling():
    failures: list[str] = []
    for n in range(2, 7):
        for m in range(5):
            for bits in (1, 8, 16):
                rep = schemes.scheme_cost(n, m, key_bits=bits)
                if rep.quantum_qubits != 2 * comb(n, 2):
                    failures.append(f"n={n}: qubits {rep.quantum_qubits}")
                if rep.classical_bits != 3 * m * comb(n, 2) * bits:
                    failures.append(
                        f"n={n} m={m} L={bits}: bits {rep.classical_bits}")
    _gate("criterion 8: resource counts scale exactly", failures)


def test_criterion_9_escape_against_raster_oracle():
    failures: list[str] = []
    for seed in range(500):
        target, boxes = random_escape_instance(seed)
        exact = escape_exists(Region("T", (box_diamond(*target),)),
                              [box_diamond(*b) for b in boxes])
        coarse = raster_escape([target], boxes)
        if exact != coarse:
            failures.append(f"seed {seed}: exact {exact} raster {coarse}")
    _gate("criterion 9: escape decision matches the raster oracle",
          failures)


def test_criterion_10_structures_match_their_embeddings():
    failures: list[str] = []
    rng = np.random.default_rng(2026)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        parties = tuple("ABCDE"[:n])

        def draw(count):
            out: list[tuple[str, ...]] = []
            while len(out) < min(count, 2 ** n - 1):
                mask = int(rng.integers(1, 2 ** n))
                s = tuple(p for i, p in enumerate(parties)
                          if mask >> i & 1)
                if s not in out:
                    out.append(s)
            return tuple(out)

        s = TaskSpec(kind="access_structure", parties=parties,
                     authorized=draw(int(rng.integers(1, 7))),
                     unauthorized=draw(int(rng.integers(0, 9))))
        abstract = check_task(s)
        embedded = check_task(embed_access_structure(s))
        if abstract.feasible != embedded.feasible:
            failures.append(f"trial {trial}: verdicts split on {s}")
        elif ([(v.condition, v.subject) for v in abstract.violations]
              != [(v.condition, v.subject) for v in embedded.violations]):
            failures.append(f"trial {trial}: witnesses split on {s}")
    _gate("criterion 10: abstract structures match their embeddings",
          failures)
