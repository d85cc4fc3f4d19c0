"""The benchmark's workloads: which documents each one sends, and how
one request is made and checked.

Every workload is a closed loop with one client: the next request is
sent only after the previous one has returned.  A request is one
document taken through one user-facing operation.  Documents are drawn
round-robin over the workload's strata (kind, n), so any prefix of the
request stream keeps the stated n mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import instances

#: Documents per stratum.  A seed picks its documents from this pool,
#: which keeps the answers of ``query_sweep`` and ``classify`` checkable
#: against ``golden.json``, recorded at the seed commit.
POOL = 32

GENERATORS = {
    "gen_pbox": lambda rng, n: instances.pbox_doc(rng, n, ties=False),
    "gen_pbox_ties": lambda rng, n: instances.pbox_doc(rng, n, ties=True),
    "mass": instances.mass_doc,
    "interval": instances.interval_doc,
    "possibility": instances.possibility_doc,
    "belief": instances.belief_capacity_doc,
    "capacity": instances.random_capacity_doc,
}

_QUERY_KINDS = ("gen_pbox", "gen_pbox_ties", "mass", "interval", "possibility")


@dataclass(frozen=True)
class Doc:
    #: "<workload>/<generator>/<n>/<index>"; also seeds the generator
    id: str
    generator: str
    n: int

    def text(self) -> str:
        return GENERATORS[self.generator](random.Random(self.id), self.n)

    @property
    def events(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class Workload:
    name: str
    #: (generator, n) pairs visited in turn; repeats weight the mix
    strata: tuple[tuple[str, int], ...]
    #: passes over ``strata`` generated per seed
    rounds: int
    #: runs one request on a document file
    request: Callable
    #: ``answer_key(doc, answer)``: the request's answer as a string
    answer_key: Callable
    #: ``expected(doc, golden)``: the correct answer key
    expected: Callable


def run_cli(args: list[str]) -> tuple[int, str]:
    """``impbox ARGS`` in-process; returns (exit code, captured stdout)."""
    from impbox import cli

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def verify_request(path: str):
    return run_cli(["verify", path])


def cli_answer(doc: Doc, answer) -> str:
    code, out = answer
    return f"exit {code}\n{out}"


def verify_expected(doc: Doc, golden) -> str:
    return f"exit 0\n{doc.events}/{doc.events} events agree\n"


def classify_request(path: str):
    return run_cli(["check", path])


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def golden_expected(doc: Doc, golden) -> str | None:
    return golden.get(doc.id)


def classify_answer(doc: Doc, answer) -> str:
    return digest([cli_answer(doc, answer)])


def query_request(path: str):
    """Parse, bound every event in closed form, convert, serialize."""
    from impbox import convert, docio, interval, pbox, possibility, randomset, space

    with open(path, encoding="utf-8") as handle:
        doc = docio.parse(handle.read())
    obj = doc.obj
    events = space.enumerate_events(doc.space)
    if doc.kind == "gen_pbox":
        bounds = [(pbox.lower_prob(obj, a), pbox.upper_prob(obj, a)) for a in events]
        results = [pbox.to_random_set(obj), convert.pbox_to_interval(obj)]
    elif doc.kind == "mass":
        bounds = [(randomset.bel(obj, a), randomset.pl(obj, a)) for a in events]
        results = [randomset.to_interval(obj)]
    elif doc.kind == "possibility":
        bounds = [
            (possibility.necessity(obj, a), possibility.possibility(obj, a))
            for a in events
        ]
        results = [possibility.to_random_set(obj)]
    elif doc.kind == "interval":
        bounds = [interval.event_bounds(obj, a) for a in events]
        identity = space.Permutation.identity(doc.space.size)
        sigmas = convert.reduced_permutation_set(doc.space)
        results = [
            convert.interval_to_sigma_pbox(obj, identity),
            convert.reconstruct_interval(obj, sigmas),
        ]
    else:
        raise ValueError(f"query_sweep does not send {doc.kind} documents")
    texts = [docio.serialize(docio.document_for(r)) for r in results]
    return bounds, texts


def query_answer(doc: Doc, answer) -> str:
    bounds, texts = answer
    return digest([f"{lo} {hi}" for lo, hi in bounds] + texts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # The oracle is the wall: credal LPs take >90% of the time.
            # gen_pbox documents give LPs of <= n rows bound by pivoting;
            # mass documents give 2^n - 2 constraints to rebuild and prune.
            # n stops at 6, and mass at 5, because the LP count of a mass
            # document varies so much that larger ones let a few documents
            # set a run's throughput.
            name="verify",
            strata=tuple(
                (kind, n)
                for n in (5, 6)
                for kind in _QUERY_KINDS
                if kind != "mass" or n == 5
            ),
            rounds=20,
            request=verify_request,
            answer_key=cli_answer,
            expected=verify_expected,
        ),
        Workload(
            # The control for every oracle change: no LP is solved.  Loads
            # the closed forms, space event enumeration and docio writes.
            name="query_sweep",
            strata=tuple(
                (kind, n) for n in (10, 11, 12) for kind in _QUERY_KINDS
            ),
            rounds=24,
            request=query_request,
            answer_key=query_answer,
            expected=golden_expected,
        ),
        Workload(
            # The only workload that exercises capacity.  Belief functions
            # are 2-monotone, so the O(4^n) pair scan runs to the end; the
            # random capacities exit it early and cost parsing and Mobius.
            name="classify",
            strata=tuple(
                (kind, n)
                for n in (7, 8, 9)
                for kind in ("belief",) * 3 + ("capacity",) * 2
            ),
            rounds=10,
            request=classify_request,
            answer_key=classify_answer,
            expected=golden_expected,
        ),
    )
}


def corpus(workload: Workload, seed: int, rounds: int | None = None) -> list[Doc]:
    """The seed's request stream: ``rounds`` passes over the strata.

    The seed shuffles the strata once and picks which pool documents
    fill each stratum.
    """
    rounds = workload.rounds if rounds is None else rounds
    rng = random.Random(seed)
    strata = list(workload.strata)
    rng.shuffle(strata)
    picks: dict[tuple[str, int], list] = {}
    for stratum in dict.fromkeys(strata):
        need = rounds * strata.count(stratum)
        picks[stratum] = rng.sample(range(POOL), need)
    docs = []
    for _ in range(rounds):
        for generator, n in strata:
            index = picks[(generator, n)].pop()
            docs.append(Doc(f"{workload.name}/{generator}/{n}/{index}", generator, n))
    return docs
