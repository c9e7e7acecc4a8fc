"""Command-line front end and static SVG diagrams.

Subcommands: `check` (feasibility verdict), `plan` (event schedule as
JSON), `simulate` (scenario battery with metrics), `embed` (turn an
access-structure task into causal diamonds), `cost` (resource table),
and `render` (spacetime diagram).  Exit status is 0 for feasible/passing,
2 for infeasible/failing, 3 when `plan` or `simulate` meets a task the
planner does not support, and 1 for usage errors.

Diagrams put x across and t up.  Authorized regions are dashed blue,
excluded ones dashed red, the start point is a yellow dot; when the task
is plannable the protocol's routes are overlaid — single strokes for
quantum tokens, doubled strokes for classical key parts.  Output is
deterministic: identical input gives byte-identical SVG.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import NoReturn

import click

from .engine import EngineError, simulate
from .feasibility import check_task
from .geometry import Diamond, Point
from .model import (TaskError, TaskSpec, embed_access_structure, load_task,
                    serialize_task)
from .planner import Plan, PlanningError, Unsupported, plan_task
from .schemes import scheme_cost

# exit code 2 is reserved for "infeasible / failed" and 3 for
# "unsupported"; usage errors are 1
click.UsageError.exit_code = 1


def _refuse(exc: PlanningError) -> NoReturn:
    if isinstance(exc, Unsupported):
        click.echo(f"unsupported: {exc}")
        sys.exit(3)
    click.echo(f"infeasible: {exc}")
    sys.exit(2)


def _load(task_file: str, variant: str | None) -> TaskSpec:
    try:
        task = load_task(task_file)
        if variant is not None:
            task = dataclasses.replace(task, variant=variant)
        return task
    except (TaskError, OSError) as exc:
        raise click.UsageError(str(exc))
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise click.UsageError(f"{task_file} is not UTF-8 text: "
                               f"byte {byte:#04x} at offset {exc.start}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


@click.group()
def cli() -> None:
    """Feasibility, planning, and simulation of spacetime quantum tasks."""


@cli.command()
@click.argument("task_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", default=None, help="override the task variant")
def check(task_file: str, variant: str | None) -> None:
    """Decide whether TASK_FILE admits a protocol."""
    task = _load(task_file, variant)
    verdict = check_task(task)
    for line in verdict.lines():
        click.echo(line)
    click.echo(json.dumps({
        "feasible": verdict.feasible,
        "violations": [str(v) for v in verdict.violations],
    }))
    sys.exit(0 if verdict.feasible else 2)


@cli.command()
@click.argument("task_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--variant", default=None, help="override the task variant")
@click.option("-o", "out", type=click.Path(dir_okay=False), default=None,
              help="write the schedule here instead of stdout")
def plan(task_file: str, variant: str | None, out: str | None) -> None:
    """Emit an event schedule for TASK_FILE."""
    task = _load(task_file, variant)
    try:
        p = plan_task(task)
    except PlanningError as exc:
        _refuse(exc)
    _emit(p.to_json(), out)
    sys.exit(0)


@cli.command("simulate")
@click.argument("task_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--access", default=None,
              help="score only the named collection")
@click.option("--calls", default=None,
              help="comma-separated diamonds for a single call pattern")
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--variant", default=None, help="override the task variant")
def simulate_cmd(task_file: str, access: str | None, calls: str | None,
                 tol: float, variant: str | None) -> None:
    """Plan TASK_FILE and certify the protocol numerically."""
    task = _load(task_file, variant)
    call_set = ([c for c in calls.split(",") if c]
                if calls is not None else None)
    try:
        p = plan_task(task)
    except PlanningError as exc:
        _refuse(exc)
    try:
        report = simulate(p, tol=tol, access=access, calls=call_set)
    except EngineError as exc:
        click.echo(f"audit failure: {exc}")
        sys.exit(2)
    except ValueError as exc:  # a bad --access or --calls choice
        raise click.UsageError(str(exc))
    for line in report.lines():
        click.echo(line)
    sys.exit(0 if report.passed else 2)


@cli.command()
@click.argument("task_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "out", type=click.Path(dir_okay=False), default=None,
              help="write the embedded task here instead of stdout")
def embed(task_file: str, out: str | None) -> None:
    """Embed an access-structure task into concrete causal diamonds."""
    task = _load(task_file, None)
    if task.kind != "access_structure":
        raise click.UsageError(
            f"{task_file} is a {task.kind} task, not an access structure")
    _emit(serialize_task(embed_access_structure(task)), out)
    sys.exit(0)


@cli.command()
@click.argument("task_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--key-bits", default=8, show_default=True,
              help="classical one-time-pad width per share")
def cost(task_file: str, key_bits: int) -> None:
    """Resource table for TASK_FILE's collection structure."""
    task = _load(task_file, None)
    if len(task.authorized) < 2:
        raise click.UsageError(
            "the cost table needs a task with at least two authorized "
            "collections")
    report = scheme_cost(len(task.authorized), len(task.unauthorized),
                         key_bits=key_bits)
    for line in report.lines():
        click.echo(line)
    sys.exit(0)


@cli.command()
@click.argument("task_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "out", type=click.Path(dir_okay=False), default=None,
              help="write the SVG here instead of stdout")
@click.option("--variant", default=None, help="override the task variant")
def render(task_file: str, out: str | None, variant: str | None) -> None:
    """Draw TASK_FILE as a spacetime diagram."""
    task = _load(task_file, variant)
    if task.start is None and not task.regions and not task.diamonds:
        raise click.UsageError(
            "nothing to draw; embed the access structure first")
    try:
        p = plan_task(task)
    except PlanningError:
        p = None
    _emit(render_svg(task, p), out)
    sys.exit(0)


def main() -> None:
    cli()


# --------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------

_BLUE = "#2563c9"
_RED = "#c93131"
_YELLOW = "#f2c200"
_INK = "#333333"
_PALE = "#888888"


def _flat(p: Point) -> tuple[float, float]:
    """(x, t) drawing coordinates; higher-dimensional points project
    onto their first spatial axis."""
    return (p.x[0], p.t)


def _diamond_outline(d: Diamond) -> list[tuple[float, float]]:
    (xc, tc), (xr, tr) = _flat(d.c), _flat(d.r)
    uc, vc = tc - xc, tc + xc
    ur, vr = tr - xr, tr + xr
    side = lambda u, v: ((v - u) / 2.0, (u + v) / 2.0)
    return [(xc, tc), side(ur, vc), (xr, tr), side(uc, vr)]


def _task_groups(task: TaskSpec):
    """(name, class, diamonds) per drawable group, in stable order."""
    blue, red = sorted(task.diamonds), []
    if task.kind == "localize_exclude":
        blue = sorted({nm for s in task.authorized for nm in s})
        red = sorted({nm for s in task.unauthorized for nm in s} -
                     set(blue))
    for cls, names in (("authorized", blue), ("unauthorized", red)):
        for nm in names:
            yield nm, cls, task.collection((nm,))[1]


def render_svg(task: TaskSpec, plan: Plan | None = None) -> str:
    pts: list[tuple[float, float]] = []
    groups = list(_task_groups(task))
    for _, _, diamonds in groups:
        for d in diamonds:
            pts.extend(_diamond_outline(d))
    routes: list[tuple[str, list[tuple[float, float]]]] = []
    if plan is not None:
        classical = {part for ev in plan.events if ev["op"] == "split"
                     for part in ev["parts"]}
        for ev in plan.events:
            if ev["op"] == "move" and len(ev["path"]) > 1:
                flavor = ("classical" if ev["token"] in classical
                          else "quantum")
                routes.append((flavor, [_flat(q) for q in ev["path"]]))
        for _, path in routes:
            pts.extend(path)
    if task.start is not None:
        pts.append(_flat(task.start))

    xs = [p[0] for p in pts]
    ts = [p[1] for p in pts]
    x0, x1 = min(xs) - 0.8, max(xs) + 0.8
    t0, t1 = min(ts) - 0.8, max(ts) + 0.8
    scale = 560.0 / max(x1 - x0, t1 - t0)
    pad = 30.0
    width = (x1 - x0) * scale + 2 * pad
    height = (t1 - t0) * scale + 2 * pad
    sx = lambda x: pad + (x - x0) * scale
    sy = lambda t: pad + (t1 - t) * scale
    fmt = lambda val: f"{val:.2f}"

    def poly(points: list[tuple[float, float]]) -> str:
        return " ".join(f"{fmt(sx(x))},{fmt(sy(t))}" for x, t in points)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'<rect width="{fmt(width)}" height="{fmt(height)}" fill="white"/>',
        # axes in the lower-left corner
        f'<g class="axes" stroke="{_PALE}" stroke-width="1">'
        f'<line x1="{fmt(pad)}" y1="{fmt(height - pad)}" '
        f'x2="{fmt(pad)}" y2="{fmt(height - pad - 40)}"/>'
        f'<line x1="{fmt(pad)}" y1="{fmt(height - pad)}" '
        f'x2="{fmt(pad + 40)}" y2="{fmt(height - pad)}"/></g>',
        f'<text x="{fmt(pad - 4)}" y="{fmt(height - pad - 46)}" '
        f'font-size="13" fill="{_PALE}">t</text>',
        f'<text x="{fmt(pad + 46)}" y="{fmt(height - pad + 4)}" '
        f'font-size="13" fill="{_PALE}">x</text>',
    ]
    for name, cls, diamonds in groups:
        color = _BLUE if cls == "authorized" else _RED
        lines.append(f'<g class="region {cls}" id="{name}">')
        for d in diamonds:
            lines.append(
                f'<polygon points="{poly(_diamond_outline(d))}" '
                f'fill="{color}" fill-opacity="0.07" stroke="{color}" '
                'stroke-width="1.5" stroke-dasharray="6 4"/>')
        label_at = _flat(diamonds[0].r)
        lines.append(
            f'<text x="{fmt(sx(label_at[0]) + 4)}" '
            f'y="{fmt(sy(label_at[1]) - 4)}" font-size="12" '
            f'fill="{color}">{name}</text>')
        lines.append('</g>')
    for flavor, path in routes:
        if flavor == "quantum":
            lines.append(
                f'<polyline class="worldline quantum" points="{poly(path)}" '
                f'fill="none" stroke="{_INK}" stroke-width="1.6"/>')
        else:
            # doubled stroke: two thin parallel lines per segment
            lines.append('<g class="worldline classical">')
            for (xa, ta), (xb, tb) in zip(path, path[1:]):
                ax, ay = sx(xa), sy(ta)
                bx, by = sx(xb), sy(tb)
                dx, dy = bx - ax, by - ay
                norm = (dx * dx + dy * dy) ** 0.5 or 1.0
                ox, oy = -dy / norm * 1.4, dx / norm * 1.4
                for sgn in (1.0, -1.0):
                    lines.append(
                        f'<line x1="{fmt(ax + sgn * ox)}" '
                        f'y1="{fmt(ay + sgn * oy)}" '
                        f'x2="{fmt(bx + sgn * ox)}" '
                        f'y2="{fmt(by + sgn * oy)}" '
                        f'stroke="{_INK}" stroke-width="0.9"/>')
            lines.append('</g>')
    if task.start is not None:
        x, t = _flat(task.start)
        lines.append(
            f'<circle class="start" cx="{fmt(sx(x))}" cy="{fmt(sy(t))}" '
            f'r="5" fill="{_YELLOW}" stroke="{_INK}" stroke-width="1"/>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
