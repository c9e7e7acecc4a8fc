"""Seeded task generators and the pipeline outcome classifier.

Every workload is a list of *rounds*; a round is a list of ``(name, text)``
tasks whose mix is the same in every round, so a run that stops between
rounds always measures the workload's intended mix.  stq sees only the task
text.  Generators draw from ``random.Random(seed)`` alone, so a seed fixes
every input.

* ``fixtures`` -- the packaged fixtures, one round = every fixture once.
* ``escape``   -- 1+1 localize-exclude tasks: two connected authorized
  boxes beyond a field of N excluded boxes, one task per N in 6..24 in each
  round.  The checker and planner spend their time in escape searches.
* ``random``   -- random state-assembly tasks (2-3 diamonds, dims 1 and 2)
  mixed with single-call summoning over 2-4 diamonds.  Nothing is filtered,
  so tasks that break the checker/planner promise stay in.
"""

from __future__ import annotations

import importlib.resources
import random

# Expected pipeline outcome of each packaged fixture.  Any fixture not
# listed must simulate to PASS.
FIXTURE_EXPECTED = {
    "fig7a": "infeasible:I_A",
    "fig7b": "infeasible:I_B",
    "fig7c": "infeasible:II",
    "fig7d": "infeasible:III",
    "fig11": "infeasible:II",
    "embed3": "refused",
}

ESCAPE_SIZES = range(6, 25)      # excluded boxes per task, one task each
ESCAPE_ROUNDS = 16
RANDOM_ROUND = 30                # tasks per round of the random workload
RANDOM_ROUNDS = 200


def fixture_rounds(seed: int) -> list[list[tuple[str, str]]]:
    """One round: every packaged fixture, in name order.  The seed is
    unused; fixtures are fixed inputs."""
    import stq
    root = importlib.resources.files("stq").joinpath("fixtures")
    return [[(n, root.joinpath(f"{n}.stq").read_text())
             for n in stq.fixture_names()]]


def escape_task(rng: random.Random, n_boxes: int) -> str:
    """Localize-exclude task in (u, v) box form: start at the origin, an
    excluded region of `n_boxes` random boxes in the start's future, and
    two authorized boxes beyond that field that overlap in u, so each can
    signal the other.  Corners are integers: decimal ones such as 12.34
    trip the float-exactness defect (extract_escape_path rejects its own
    witness), and this workload is meant to time the escape search."""
    field = 34
    lines = ["task localize_exclude", "dim 1", "secret_dim 3",
             "start (0, 0)"]
    a_u = 40 + rng.randint(0, 4)
    a_v = 40 + rng.randint(0, 8)
    b_u = a_u + rng.randint(0, 2)
    b_v = a_v + 6 + rng.randint(0, 4)
    lines += ["region A1 {", f"    box u=[{a_u}, {a_u + 3}] v=[{a_v}, {a_v + 3}]",
              "}", "region A2 {",
              f"    box u=[{b_u}, {b_u + 3}] v=[{b_v}, {b_v + 3}]", "}",
              "region U1 {"]
    for _ in range(n_boxes):
        u = rng.randint(1, field)
        v = rng.randint(1, field)
        lines.append(f"    box u=[{u}, {u + rng.randint(1, 3)}] "
                     f"v=[{v}, {v + rng.randint(1, 3)}]")
    lines += ["}", "authorized A1", "authorized A2", "unauthorized U1"]
    return "\n".join(lines) + "\n"


def escape_rounds(seed: int) -> list[list[tuple[str, str]]]:
    rng = random.Random(seed)
    return [[(f"escape-n{n}", escape_task(rng, n)) for n in ESCAPE_SIZES]
            for _ in range(ESCAPE_ROUNDS)]


def _diamond_line(rng: random.Random, name: str, dim: int) -> str:
    t = rng.randint(0, 5)
    xs = [rng.randint(-4, 4) for _ in range(dim)]
    dur = rng.randint(0, 6)
    c = ", ".join(str(v) for v in (t, *xs))
    r = ", ".join(str(v) for v in (t + dur, *xs))
    return f"diamond {name} c=({c}) r=({r})"


def _header(kind: str, dim: int) -> list[str]:
    start = ", ".join(["-1"] + ["0"] * dim)
    return [f"task {kind}", f"dim {dim}", "secret_dim 3", f"start ({start})"]


def assembly_task(rng: random.Random, dim: int) -> str:
    """Random state assembly: 2-3 diamonds, 1-2 authorized sets of size
    1-2, one unauthorized set."""
    names = [f"D{i + 1}" for i in range(rng.randint(2, 3))]
    lines = _header("state_assembly", dim)
    lines += [_diamond_line(rng, n, dim) for n in names]
    for _ in range(rng.randint(1, 2)):
        lines.append("authorized " + " ".join(
            sorted(rng.sample(names, rng.randint(1, 2)))))
    lines.append("unauthorized " + " ".join(
        sorted(rng.sample(names, rng.randint(1, len(names))))))
    return "\n".join(lines) + "\n"


def summoning_task(rng: random.Random, dim: int) -> str:
    """Random single-call summoning over 2-4 diamonds."""
    names = [f"D{i + 1}" for i in range(rng.randint(2, 4))]
    lines = _header("summoning:single_call_single_return", dim)
    lines += [_diamond_line(rng, n, dim) for n in names]
    return "\n".join(lines) + "\n"


def random_rounds(seed: int) -> list[list[tuple[str, str]]]:
    """Each round: two assembly tasks to one summoning task, half in each
    dimension."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(RANDOM_ROUNDS):
        rnd = []
        for i in range(RANDOM_ROUND):
            dim = 1 + (i // 3) % 2
            if i % 3 == 2:
                rnd.append((f"summon-d{dim}", summoning_task(rng, dim)))
            else:
                rnd.append((f"assembly-d{dim}", assembly_task(rng, dim)))
        rounds.append(rnd)
    return rounds


WORKLOADS = {
    "fixtures": fixture_rounds,
    "escape": escape_rounds,
    "random": random_rounds,
}


def build(name: str, seed: int) -> list[list[tuple[str, str]]]:
    return WORKLOADS[name](seed)


# --------------------------------------------------------------------
# one pass through the public pipeline
# --------------------------------------------------------------------

# Outcomes that break stq's promise: feasible => PASS or a named refusal,
# infeasible => refusal.
BROKEN = frozenset({"fail", "infeasible_planned", "error"})


def run_task(stq, text: str) -> tuple:
    """parse -> check -> plan -> simulate.  Returns an outcome tuple whose
    first item is the status: invalid, pass, fail, refused, infeasible,
    infeasible_planned or error.  The rest pins down the result so two
    runs can be compared exactly."""
    try:
        task = stq.parse_task(text)
    except stq.TaskError as exc:
        return ("invalid", str(exc))
    try:
        verdict = stq.check_task(task)
        conds = tuple(sorted({v.condition for v in verdict.violations}))
        try:
            plan = stq.plan_task(task)
        except stq.PlanningError as exc:
            status = "refused" if verdict.feasible else "infeasible"
            return (status, conds, str(exc))
        report = stq.simulate(plan)
    except Exception as exc:  # any other failure breaks the promise
        return ("error", f"{type(exc).__name__}: {exc}")
    if not verdict.feasible:
        status = "infeasible_planned"
    else:
        status = "pass" if report.passed else "fail"
    return (status, conds, len(plan.events), len(report.scenarios),
            report.min_fidelity, report.max_leak, report.min_chi)


def fixture_label(outcome: tuple) -> str:
    """Outcome in the vocabulary of FIXTURE_EXPECTED."""
    status = outcome[0]
    if status == "infeasible":
        return "infeasible:" + "+".join(outcome[1])
    return "PASS" if status == "pass" else status


def fixture_mismatch(name: str, outcome: tuple) -> str | None:
    """Why a fixture's outcome deviates from its expected verdict, if it
    does."""
    want = FIXTURE_EXPECTED.get(name, "PASS")
    got = fixture_label(outcome)
    return None if got == want else f"{name}: expected {want}, got {got}"
