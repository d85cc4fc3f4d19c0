"""Command line front end: check, convert, query, verify.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 oracle
mismatch (verify only).
"""

from __future__ import annotations

import sys
from fractions import Fraction

import click

from . import convert as conv
from . import credal, docio, pbox, possibility, randomset
from .errors import ImpboxError
from .space import Permutation, enumerate_events


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load(path: str) -> docio.Document:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _fail(str(exc))
    try:
        return docio.parse(text)
    except ImpboxError as exc:
        _fail(str(exc))


def _fmt(q: Fraction) -> str:
    return f"{q} = {float(q)!r}"


@click.group()
def main():
    """Exact tools for finite imprecise-probability documents."""


@main.command()
@click.argument("file", type=click.Path())
def check(file):
    """Validate a document and report its classification."""
    doc = _load(file)
    click.echo(f"kind: {doc.kind}")
    click.echo(f"space: {len(doc.space.labels)} elements")
    click.echo("valid: yes")
    for name, value in docio.KINDS[doc.kind].facts(doc.obj).items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        click.echo(f"{name}: {value}")


def _convert(doc: docio.Document, target: str, sigma: str | None):
    obj = doc.obj
    source = docio.document_for(obj).kind
    arrows = {
        ("gen_pbox", "mass"): lambda: pbox.to_random_set(obj),
        ("gen_pbox", "interval"): lambda: conv.pbox_to_interval(obj),
        ("gen_pbox", "gen_pbox"): lambda: obj,
        ("interval", "gen_pbox"): lambda: conv.interval_to_sigma_pbox(
            obj,
            Permutation.from_labels(doc.space, sigma.split(","))
            if sigma
            else Permutation.identity(doc.space.size),
        ),
        ("possibility", "mass"): lambda: possibility.to_random_set(obj),
        ("mass", "interval"): lambda: randomset.to_interval(obj),
    }
    key = (source, target)
    if key not in arrows:
        supported = ", ".join(f"{s}->{t}" for s, t in sorted(arrows) if s != t)
        raise click.UsageError(
            f"unsupported conversion {source}->{target}; supported: {supported}"
        )
    return arrows[key]()


@main.command()
@click.argument("file", type=click.Path())
@click.option("--to", "target", required=True, type=click.Choice(docio.KINDS))
@click.option(
    "--sigma",
    default=None,
    help="comma-separated element order for interval->gen_pbox",
)
def convert(file, target, sigma):
    """Convert a document to another kind; canonical output on stdout."""
    doc = _load(file)
    try:
        result = _convert(doc, target, sigma)
    except ImpboxError as exc:
        _fail(str(exc))
    click.echo(docio.serialize(docio.document_for(result)), nl=False)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--event", "event_spec", required=True, help="comma-separated labels")
@click.option("--bound", required=True, type=click.Choice(["lower", "upper"]))
def query(file, event_spec, bound):
    """Print the exact lower or upper probability of an event."""
    doc = _load(file)
    try:
        a = doc.space.event(lab for lab in event_spec.split(",") if lab)
        lower, upper = docio.KINDS[doc.kind].bounds(doc.obj, a)
    except ImpboxError as exc:
        _fail(str(exc))
    click.echo(_fmt(lower if bound == "lower" else upper))


@main.command()
@click.argument("file", type=click.Path())
def verify(file):
    """Cross-check every event bound against the exact polytope oracle."""
    doc = _load(file)
    kind = docio.KINDS[doc.kind]
    if kind.polytope is None:
        raise click.UsageError(
            f"verify does not support {doc.kind} documents; supported kinds: "
            "gen_pbox, nested_bounds, mass, possibility, interval, probability"
        )
    try:
        poly = kind.polytope(doc.obj)
        total = 0
        for event in enumerate_events(doc.space):
            lo, hi = kind.bounds(doc.obj, event)
            oracle_lo = credal.lower_envelope(poly, event).value
            oracle_hi = credal.upper_envelope(poly, event).value
            if (lo, hi) != (oracle_lo, oracle_hi):
                click.echo(
                    f"mismatch on {event!r}: formula [{lo}, {hi}] vs "
                    f"oracle [{oracle_lo}, {oracle_hi}]",
                    err=True,
                )
                sys.exit(3)
            total += 1
    except ImpboxError as exc:
        _fail(str(exc))
    click.echo(f"{total}/{total} events agree")


if __name__ == "__main__":
    main()
