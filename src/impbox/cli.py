"""Command line front end: check, convert, query, verify.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 oracle
mismatch (verify only, also when the mismatch's numbers are too long to
print).
"""

from __future__ import annotations

import sys

import click

from . import docio
from ._exact import too_long_message, unprintable
from .errors import ImpboxError


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # Name the stream: click caches the stream it finds in sys.stdout or
    # sys.stderr in a weak-keyed dict whose value is that same stream, so
    # each in-process run on fresh streams would stay alive for good.
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _fail(message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(1)


def _load(path: str) -> docio.Document:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _fail(str(exc))
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    try:
        doc = docio.parse(text)
    except ImpboxError as exc:
        _fail(str(exc))
    for message in docio.KINDS[doc.kind].warnings(doc.obj):
        _echo(f"warning: {message}", err=True)
    return doc


@click.group()
def main():
    """Exact tools for finite imprecise-probability documents."""


@main.command()
@click.argument("file", type=click.Path())
def check(file):
    """Validate a document and report its classification."""
    doc = _load(file)
    _echo(f"kind: {doc.kind}")
    _echo(f"space: {len(doc.space.labels)} elements")
    _echo("valid: yes")
    for name, value in docio.KINDS[doc.kind].facts(doc.obj).items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        _echo(f"{name}: {value}")


@main.command()
@click.argument("file", type=click.Path())
@click.option("--to", "target", required=True, type=click.Choice(docio.KINDS))
@click.option(
    "--sigma",
    default=None,
    help="comma-separated element order for conversions from interval",
)
def convert(file, target, sigma):
    """Convert a document to another kind; canonical output on stdout."""
    doc = _load(file)
    arrows = docio.KINDS[doc.kind].to
    if target not in arrows:
        pairs = sorted((s, t) for s, k in docio.KINDS.items() for t in k.to if s != t)
        supported = ", ".join(f"{s}->{t}" for s, t in pairs)
        raise click.UsageError(
            f"unsupported conversion {doc.kind}->{target}; supported: {supported}"
        )
    if sigma is not None and not docio.KINDS[doc.kind].sigma:
        readers = ", ".join(k for k, e in docio.KINDS.items() if e.sigma)
        raise click.UsageError(f"--sigma applies only to conversions from {readers}")
    try:
        result = arrows[target](doc.obj, sigma)
        text = docio.serialize(docio.Document(target, doc.space, result))
    except ImpboxError as exc:
        _fail(str(exc))
    _echo(text, nl=False)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--event", "event_spec", required=True, help="comma-separated labels")
@click.option("--bound", required=True, type=click.Choice(["lower", "upper"]))
def query(file, event_spec, bound):
    """Print the exact lower or upper probability of an event."""
    doc = _load(file)
    try:
        a = docio._event(doc.space, event_spec, "--event")
        lower = docio.KINDS[doc.kind].lower
        q = lower(doc.obj, a) if bound == "lower" else 1 - lower(doc.obj, a.complement())
    except ImpboxError as exc:
        _fail(str(exc))
    if unprintable(q):
        _fail(too_long_message())
    _echo(f"{q} = {float(q)!r}")


@main.command()
@click.argument("file", type=click.Path())
def verify(file):
    """Cross-check every event bound against the exact polytope oracle."""
    doc = _load(file)
    if docio.KINDS[doc.kind].polytope is None:
        supported = ", ".join(k for k, e in docio.KINDS.items() if e.polytope)
        raise click.UsageError(
            f"verify does not support {doc.kind} documents; "
            f"supported kinds: {supported}"
        )
    try:
        mismatch = docio.verify(doc)
    except ImpboxError as exc:
        _fail(str(exc))
    if mismatch is not None:
        event, side, (lo, hi), (oracle_lo, oracle_hi), point = mismatch
        if unprintable(lo, hi, oracle_lo, oracle_hi, *point.p):
            _echo(f"mismatch on {event!r}: {too_long_message()}", err=True)
            sys.exit(3)
        _echo(
            f"mismatch on {event!r}: formula [{lo}, {hi}] vs "
            f"oracle [{oracle_lo}, {oracle_hi}]",
            err=True,
        )
        values = zip(doc.space.labels, point.p)
        witness = ", ".join(f"{lab}={v}" for lab, v in values)
        _echo(f"oracle {side} witness: {witness}", err=True)
        sys.exit(3)
    n_events = 2**doc.space.size
    _echo(f"{n_events}/{n_events} events agree")


if __name__ == "__main__":
    main()
