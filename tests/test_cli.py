from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from click.testing import CliRunner

from stq.cli import cli, render_svg
from stq.model import fixture, parse_task, serialize_task
from stq.planner import plan_task
from stq.schemes import scheme_cost

FEASIBLE = ["fig1", "fig10", "fig12", "fig13", "fig14", "fig15", "triangle"]
INFEASIBLE = ["fig7a", "fig7b", "fig7c", "fig7d", "fig11"]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def task_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.stq"
        path.write_text(serialize_task(fixture(name)))
        return str(path)
    return write


@pytest.mark.parametrize("name", FEASIBLE)
def test_check_feasible(runner, task_file, name):
    res = runner.invoke(cli, ["check", task_file(name)])
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "feasible"
    assert json.loads(res.output.splitlines()[-1])["feasible"] is True


@pytest.mark.parametrize("name", INFEASIBLE)
def test_check_infeasible(runner, task_file, name):
    res = runner.invoke(cli, ["check", task_file(name)])
    assert res.exit_code == 2
    assert res.output.splitlines()[0] == "infeasible"
    tail = json.loads(res.output.splitlines()[-1])
    assert tail["feasible"] is False and tail["violations"]


def test_check_embeddable_structure(runner, task_file):
    res = runner.invoke(cli, ["check", task_file("embed3")])
    assert res.exit_code == 0


def test_variant_override_flips_the_verdict(runner, task_file):
    path = task_file("fig14")
    assert runner.invoke(cli, ["check", path]).exit_code == 0
    res = runner.invoke(cli, ["check", path, "--variant", "unrestricted"])
    assert res.exit_code == 2
    assert "B1" in res.output


def test_plan_emits_json(runner, task_file):
    res = runner.invoke(cli, ["plan", task_file("fig12")])
    assert res.exit_code == 0
    body = json.loads(res.output)
    assert body["kind"] == "summoning"
    assert body["events"][0]["op"] == "source"


def test_plan_refuses_infeasible_tasks(runner, task_file):
    res = runner.invoke(cli, ["plan", task_file("fig11")])
    assert res.exit_code == 2
    assert res.output.startswith("infeasible:")


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_unsupported_tasks_have_their_own_exit_code(runner, task_file,
                                                    command):
    # embed3 passes check, but the planner wants embedded diamonds
    res = runner.invoke(cli, [command, task_file("embed3")])
    assert res.exit_code == 3
    assert res.output.startswith("unsupported:")
    res = runner.invoke(cli, [command, task_file("fig11")])
    assert res.exit_code == 2
    assert res.output.startswith("infeasible:")


def test_plan_writes_output_file(runner, task_file, tmp_path):
    out = tmp_path / "schedule.json"
    res = runner.invoke(cli, ["plan", task_file("fig12"), "-o", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["kind"] == "summoning"


@pytest.mark.parametrize("name", ["fig1", "fig12", "fig15"])
def test_simulate_passes(runner, task_file, name):
    res = runner.invoke(cli, ["simulate", task_file(name)])
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "PASS"


def test_simulate_single_call_pattern(runner, task_file):
    res = runner.invoke(cli, ["simulate", task_file("fig13"),
                              "--calls", "Da1,Db1"])
    assert res.exit_code == 0
    assert "calls {Da1, Db1}" in res.output or "Da1" in res.output


@pytest.mark.parametrize("name, calls", [
    ("fig12", "D1,D2"), ("fig12", ""), ("fig13", "Da1")])
def test_simulate_refuses_a_pattern_that_scores_nothing(runner, task_file,
                                                        name, calls):
    res = runner.invoke(cli, ["simulate", task_file(name), "--calls", calls])
    assert res.exit_code == 1
    assert "Error: " in res.output and "scores no collection" in res.output
    assert "audit failure" not in res.output and "PASS" not in res.output


def test_simulate_single_collection(runner, task_file):
    res = runner.invoke(cli, ["simulate", task_file("fig1"),
                              "--access", "U1"])
    assert res.exit_code == 0
    assert "exclude U1" in res.output
    assert "deliver" not in res.output


def test_simulate_rejects_unknown_collection(runner, task_file):
    res = runner.invoke(cli, ["simulate", task_file("fig1"),
                              "--access", "Z9"])
    assert res.exit_code == 1
    assert "Error: no authorized or excluded collection labeled 'Z9'" \
        in res.output
    assert "audit failure" not in res.output


def test_simulate_rejects_unknown_call_diamonds(runner, task_file):
    res = runner.invoke(cli, ["simulate", task_file("fig12"),
                              "--calls", "D9"])
    assert res.exit_code == 1
    assert "Error: unknown call diamonds ['D9']" in res.output


def test_simulate_reports_a_plan_the_audit_rejects(runner, task_file,
                                                   monkeypatch):
    def bad_plan(task):
        plan = plan_task(task)
        plan.events.append({"op": "teleport"})
        return plan
    monkeypatch.setattr("stq.cli.plan_task", bad_plan)
    res = runner.invoke(cli, ["simulate", task_file("fig12")])
    assert res.exit_code == 2
    assert res.output.startswith("audit failure: ")
    assert "unknown op" in res.output


def test_embed_round_trips_through_check(runner, task_file):
    res = runner.invoke(cli, ["embed", task_file("embed3")])
    assert res.exit_code == 0
    embedded = parse_task(res.output)
    assert embedded.kind == "localize_exclude"
    assert embedded.authorized == fixture("embed3").authorized


def test_embed_rejects_concrete_tasks(runner, task_file):
    res = runner.invoke(cli, ["embed", task_file("fig12")])
    assert res.exit_code == 1
    assert "not an access structure" in res.output


def test_cost_table(runner, task_file):
    task = fixture("triangle")
    res = runner.invoke(cli, ["cost", task_file("triangle")])
    assert res.exit_code == 0
    want = scheme_cost(len(task.authorized), len(task.unauthorized)).lines()
    assert res.output.splitlines() == want

    wide = runner.invoke(cli, ["cost", task_file("triangle"),
                               "--key-bits", "16"])
    want16 = scheme_cost(len(task.authorized), len(task.unauthorized),
                         key_bits=16).lines()
    assert wide.output.splitlines() == want16


@pytest.mark.parametrize("name", ["fig12", "fig15", "fig7a"])
def test_cost_needs_two_collections(runner, task_file, name):
    res = runner.invoke(cli, ["cost", task_file(name)])
    assert res.exit_code == 1
    assert "at least two authorized" in res.output


def test_render_is_deterministic(runner, task_file):
    path = task_file("fig1")
    first = runner.invoke(cli, ["render", path])
    second = runner.invoke(cli, ["render", path])
    assert first.exit_code == 0
    assert first.output == second.output


def test_render_shows_regions_and_routes(runner, task_file):
    res = runner.invoke(cli, ["render", task_file("fig1")])
    svg = res.output
    assert svg.count('class="region authorized"') == 2
    assert svg.count('class="region unauthorized"') == 1
    assert svg.count('class="start"') == 1
    assert 'class="worldline quantum"' in svg
    assert 'class="worldline classical"' in svg
    assert svg.rstrip().endswith("</svg>")


def test_render_survives_infeasible_tasks(runner, task_file):
    res = runner.invoke(cli, ["render", task_file("fig7a")])
    assert res.exit_code == 0
    assert "worldline" not in res.output
    assert 'class="region' in res.output


def test_render_needs_geometry(runner, task_file):
    res = runner.invoke(cli, ["render", task_file("embed3")])
    assert res.exit_code == 1
    assert "nothing to draw" in res.output


def test_render_writes_output_file(runner, task_file, tmp_path):
    out = tmp_path / "diagram.svg"
    res = runner.invoke(cli, ["render", task_file("fig12"), "-o", str(out)])
    assert res.exit_code == 0
    assert out.read_text().startswith("<svg")


def test_missing_file_is_a_usage_error(runner):
    res = runner.invoke(cli, ["check", "no-such-task.stq"])
    assert res.exit_code == 1


def test_malformed_file_is_a_usage_error(runner, tmp_path):
    bad = tmp_path / "bad.stq"
    bad.write_text("task localize_exclude\nstart what\n")
    res = runner.invoke(cli, ["check", str(bad)])
    assert res.exit_code == 1
    assert "line 2" in res.output


def test_render_svg_flattens_higher_dimensions():
    svg = render_svg(fixture("fig13"))
    assert svg.startswith("<svg")


def test_console_script_is_installed():
    # Checks the `stq` script that pyproject.toml declares and runs it the
    # way an installer's wrapper does, so no installed `stq` on PATH is needed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    import stq.cli

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "stq" in scripts
    entry = EntryPoint(name="stq", value=scripts["stq"], group="console_scripts")
    assert entry.load() is stq.cli.main

    wrapper = (f"import sys; from {entry.module} import {entry.attr}; "
               f"sys.argv[0] = 'stq'; sys.exit({entry.attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
