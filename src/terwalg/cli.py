"""Command-line front end.

Subcommands: verify (full check suite over a diameter range), report
(parameter tables for one diameter), graph (external edge-list input),
poly (polynomial identities only).  Exit codes: 0 all checks pass, 1 a
check failed or the input data is invalid, 2 usage error.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .graphs import parse_graph_file
from .poly_identities import Families
from .verify import MAX_D, build_graph_report, build_parameter_report, run_verification


def _emit(text: str, out_path: str | None):
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@click.group()
@click.version_option(version=__version__, prog_name="terwalg")
def main():
    """Exact verifier for subconstituent algebras of hypercubes."""


@main.command()
@click.option("--max-d", type=click.IntRange(1, MAX_D), default=6, show_default=True)
@click.option("--vertex", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def verify(max_d: int, vertex: int, fmt: str, out: str | None):
    """Run every check for d = 1..MAX_D plus the range-wide suites."""
    report = run_verification(max_d, vertex=vertex)
    text = report.to_json() if fmt == "json" else report.to_text()
    _emit(text, out)
    sys.exit(0 if report.overall == "pass" else 1)


@main.command()
@click.option("--d", "d", type=click.IntRange(1, MAX_D), required=True)
@click.option("--vertex", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def report(d: int, vertex: int, fmt: str, out: str | None):
    """Emit parameter tables, dimension, and block data for one cube."""
    if vertex >= 1 << d:
        raise click.UsageError(f"vertex {vertex} out of range for {1 << d} vertices")
    data = build_parameter_report(d, vertex)
    if fmt == "json":
        _emit(_dump_json(data), out)
    else:
        _emit(_parameter_text(data), out)
    sys.exit(0)


def _parameter_text(data: dict) -> str:
    lines = [
        f"hypercube d={data['d']} ({data['num_vertices']} vertices), "
        f"base vertex {data['vertex']}",
        f"eigenvalues: {data['eigenvalues']}",
        f"valencies: {data['valencies']}",
        f"dual valencies: {data['dual_valencies']}",
        f"dim T = {data['dim_T']} (expected {data['expected_dim']})",
        f"triple span dim = {data['triple_span_dim']}",
        f"u0_is_identity = {str(data['u0_is_identity']).lower()}",
        "u0: " + json.dumps(data["u0"], sort_keys=True),
        f"blocks = {data['blocks']}",
        f"permissible triples: {len(data['permissible_set'])}",
    ]
    lines.append("p-table (p[h][i][j]):")
    for h, layer in enumerate(data["p_table"]):
        lines.append(f"  h={h}: {layer}")
    lines.append("krein table (q[h][i][j]):")
    for h, layer in enumerate(data["krein_table"]):
        lines.append(f"  h={h}: {layer}")
    lines.append(f"P = {data['P']}")
    lines.append(f"Q = {data['Q']}")
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--file", "path", type=click.Path(dir_okay=False), required=True)
@click.option("--vertex", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
def graph(path: str, vertex: int, fmt: str):
    """Check an edge-list graph and report its algebra if it qualifies."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        click.echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(1)
    try:
        g = parse_graph_file(text)
    except ValueError as exc:
        click.echo(f"invalid graph file: {exc}", err=True)
        sys.exit(1)
    if vertex >= g.n:
        raise click.UsageError(f"vertex {vertex} out of range for {g.n} vertices")
    try:
        data, all_ok = build_graph_report(g, vertex)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    if fmt == "json":
        click.echo(_dump_json(data), nl=False)
    else:
        lines = [
            f"graph: {data['num_vertices']} vertices, diameter {data['diameter']}",
            "distance-regular: true",
            f"eigenvalues: {data['eigenvalues']}",
            f"valencies: {data['valencies']}",
            f"dim T = {data['dim_T']} (base vertex {data['vertex']})",
            f"triple span dim = {data['triple_span_dim']}",
        ]
        for c in data["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            lines.append(f"  {mark} {c['name']}")
        click.echo("\n".join(lines))
    sys.exit(0 if all_ok else 1)


@main.command()
@click.option("--max-d", type=click.IntRange(1, 64), default=32, show_default=True)
def poly(max_d: int):
    """Check the polynomial identities up to MAX_D."""
    families = Families.build(max_d)
    ok = families.factorial_holds(max_d)
    click.echo(f"{'PASS' if ok else 'FAIL'} spectrum_polynomial_factorial_identity")
    rep = families.descent_failure(max_d)
    if rep is None:
        click.echo("PASS krawtchouk_descent_identities")
    else:
        click.echo(
            f"FAIL krawtchouk_descent_identities d={rep.d} "
            f"indices {rep.failing_indices()}"
        )
    sys.exit(0 if ok and rep is None else 1)


if __name__ == "__main__":
    main()
