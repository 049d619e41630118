import io

import numpy as np
import pytest

from onoffpriv.cli import CSV_BLOCK_ROWS
from onoffpriv.markov import TransitionMatrix, as_index, as_number, u_index
from onoffpriv.scheme import SchemeDistribution


def random_chain(rng, n: int) -> TransitionMatrix:
    """Strictly positive chain: Dirichlet rows blended with a uniform floor."""
    rows = rng.dirichlet(np.full(n, 2.0), size=n)
    return TransitionMatrix(entries=0.9 * rows + 0.1 / n)


def entries_of(s: SchemeDistribution) -> dict:
    """The rows of a distribution as {(query members, x, u): mass}."""
    return {
        (s.queries[k], x, u): p
        for k, x, u, p in zip(
            s.q.tolist(), s.x.tolist(), s.u.tolist(), s.mass.tolist()
        )
    }


def scheme_from_entries(n: int, delta: int, form: str, entries: dict):
    """The distribution whose rows are {(query members, x, u): mass}."""
    keys = list(entries)
    queries = sorted({members for members, _, _ in keys})
    ids = {members: i for i, members in enumerate(queries)}
    return SchemeDistribution(
        n, delta, form, queries,
        [ids[k[0]] for k in keys], [k[1] for k in keys], [k[2] for k in keys],
        list(entries.values()),
    )


def json_slots(node):
    """Every (container, key) pair of a parsed JSON document, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from json_slots(child)


def section_text(s: SchemeDistribution) -> str:
    """The text SchemeDistribution.write_json writes for s."""
    buf = io.StringIO()
    s.write_json(buf)
    return buf.getvalue()


def reference_trace_csv(trace) -> str:
    """The one-string trace CSV formatter that cli.write_trace_csv
    replaced, kept as a reference: the text a trace file must hold."""
    header = ["t", "x", "f", "tau", "delta", "q_size", "bytes", "decode_ok"]
    columns = (
        np.arange(trace.horizon), trace.x, trace.flag, trace.tau, trace.delta,
        trace.q_size, trace.bytes_down, trace.decode_ok,
    )
    row_fmt = ",".join(["%d"] * len(header)) + "\n"
    parts = [",".join(header) + "\n"]
    for lo in range(0, trace.horizon, CSV_BLOCK_ROWS):
        block = np.column_stack([c[lo : lo + CSV_BLOCK_ROWS] for c in columns])
        parts.append(row_fmt * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def reference_json_obj(s: SchemeDistribution) -> dict:
    """The row-dict serializer that SchemeDistribution.write_json
    replaced, kept as a reference: the document a scheme file section must
    parse to."""
    order = np.lexsort((s.u, s.x, s.q))
    xtau, xnext = np.divmod(s.u[order], s.n)
    cols = (s.q[order], s.x[order], xtau, xnext, s.mass[order])
    rows = [
        {"q": list(s.queries[k]), "x": x, "u": [a, b], "p": p}
        for k, x, a, b, p in zip(*(c.tolist() for c in cols))
    ]
    return {"n": s.n, "delta": s.delta, "form": s.form, "entries": rows}


def reference_from_json_obj(obj) -> SchemeDistribution:
    """The per-row loader that the columnar SchemeDistribution.from_json_obj
    replaced, kept as a reference for what a scheme file may hold.

    It read a string or an object given as `entries` or as `q` as an empty
    list; the two checks marked below reject those, as the columnar loader
    does. Any other file loads here exactly when it loads there.
    """
    n = as_index(obj["n"], "n")
    delta = as_index(obj["delta"], "delta")
    if type(obj["entries"]) is not list:  # added
        raise ValueError("entries must be a list")
    ids: dict = {}
    q, xs, us, ps = [], [], [], []
    for row in obj["entries"]:
        if type(row["q"]) is not list:  # added
            raise ValueError("q must be a list")
        members = tuple(sorted(as_index(i, "query member") for i in row["q"]))
        q.append(ids.setdefault(members, len(ids)))
        xs.append(as_index(row["x"], "request"))
        if not 0 <= xs[-1] < n:
            raise ValueError(f"state out of range for n={n} in entry {row}")
        xtau, xnext = row["u"]
        us.append(u_index(as_index(xtau, "xtau"), as_index(xnext, "xnext"), n))
        ps.append(as_number(row["p"], "mass"))
    s = SchemeDistribution(n, delta, obj["form"], list(ids), q, xs, us, ps)
    if s.entry_count != len(ps):
        raise ValueError("repeated entry: rows share query, request and context")
    return s


@pytest.fixture(autouse=True)
def dict_entries_for_the_release_gate(request, monkeypatch):
    """Lend test_acceptance.py, the release gate, the dict form it was
    written against: `s.entries` and `SchemeDistribution(..., entries=...)`.
    The gate stays as written; every other test reads the columns."""
    if request.path.name != "test_acceptance.py":
        return
    columns_init = SchemeDistribution.__init__

    def init(self, n, delta, form, *columns, entries=None):
        if entries is not None:
            made = scheme_from_entries(n, delta, form, entries)
            columns = (made.queries, made.q, made.x, made.u, made.mass)
        columns_init(self, n, delta, form, *columns)

    monkeypatch.setattr(SchemeDistribution, "__init__", init)
    monkeypatch.setattr(
        SchemeDistribution, "entries", property(entries_of), raising=False
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chain_factory():
    return random_chain
