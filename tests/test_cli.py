import contextlib
import csv
import functools
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import onoffpriv
from onoffpriv import cli, sim
from onoffpriv.bounds import rate_inner, rate_outer, theta_profile
from onoffpriv.cli import main
from onoffpriv.lp import formulate_lp, solve_simplex
from onoffpriv.markov import chain_from_dict, conditional_table, symmetric_chain
from onoffpriv.scheme import (
    COLUMNS, CSV_BLOCK_ROWS, SchemeDistribution, build_scheme, collapse_to_sets,
    csv_digits,
)
from onoffpriv.sim import (
    PrivacySchedule,
    SimConfig,
    run_simulation,
    write_trace_csv,
)

from onoffpriv.verify import expected_cost

from conftest import json_slots, reference_trace_csv, schema1_json_obj, section_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.cache
def saved_scheme_text():
    """The scheme file of the symmetric 3-state chain at gap 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scheme.json"
        argv = ["scheme", "--n", "3", "--alpha", "0.6", "--delta", "1"]
        assert main([*argv, "--out", str(path)]) == 0
        return path.read_text()


def entry(section, i):
    """Entry i of a parsed scheme file section: query members, request,
    context pair and mass."""
    return (
        section["queries"][section["q"][i]], section["x"][i],
        [section["u0"][i], section["u1"][i]], section["masses"][section["p"][i]],
    )


def set_mass(section, i, mass):
    """Give entry i of a parsed scheme file section a mass of its own."""
    section["masses"].append(mass)
    section["p"][i] = len(section["masses"]) - 1


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, "empty csv"
    return rows


# the CI's non-symmetric 4-state chain
CHAIN_4 = (
    '{"rows": [[0.5, 0.2, 0.2, 0.1], [0.1, 0.6, 0.2, 0.1],'
    ' [0.3, 0.1, 0.4, 0.2], [0.25, 0.25, 0.1, 0.4]]}'
)


class TestChainLoading:
    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--delta", "1")
        assert code == 2
        assert "chain source" in err
        code, _, _ = run_cli(
            capsys, "bounds", "--chain", '{"symmetric":{"n":3,"alpha":0.6}}',
            "--n", "3", "--alpha", "0.6", "--delta", "1",
        )
        assert code == 2

    def test_inline_json_and_file_agree(self, capsys, tmp_path):
        spec = '{"n": 2, "rows": [[0.7, 0.3], [0.4, 0.6]]}'
        path = tmp_path / "chain.json"
        path.write_text(spec)
        code1, out1, _ = run_cli(capsys, "bounds", "--chain", spec, "--delta", "2")
        code2, out2, _ = run_cli(
            capsys, "bounds", "--chain", str(path), "--delta", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_json_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--chain", "{oops", "--delta", "1")
        assert code == 2
        assert "JSON" in err

    @settings(max_examples=25, deadline=None)
    @given(
        depth=hst.integers(1, 200_000),
        flags=hst.sampled_from([
            ["bounds", "--delta", "1", "--chain"],
            ["verify", "--n", "3", "--alpha", "0.6", "--delta", "1", "--scheme"],
        ]),
    )
    @example(depth=200_000, flags=["bounds", "--delta", "1", "--chain"])
    @example(
        depth=200_000,
        flags=["verify", "--n", "3", "--alpha", "0.6", "--delta", "1", "--scheme"],
    )
    def test_nested_json_is_a_config_error(self, depth, flags):
        # past the decoder's recursion limit json raises RecursionError;
        # below it the nested lists are no chain and no scheme
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "nested.json"
            path.write_text("[" * depth + "]" * depth)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                with contextlib.redirect_stderr(err):
                    code = main([*flags, str(path)])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()

    def test_bad_matrix_is_a_config_error(self, capsys):
        for rows in ("[[0.9, 0.2], [0.5, 0.5]]", "[[NaN, NaN], [0.5, 0.5]]"):
            code, _, err = run_cli(
                capsys, "bounds", "--chain", f'{{"rows": {rows}}}',
                "--delta", "1",
            )
            assert code == 2
            assert err.startswith("error: bad chain spec")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"symmetric": {"n": 3}}', "'symmetric' needs 'alpha'"),
            ('{"symmetric": {"alpha": 0.6}}', "'symmetric' needs 'n'"),
            ('{"symmetric": [3, 0.6]}', "'symmetric' must be an object"),
            ("null", "a chain spec must be a JSON object"),
            ("[[0.5, 0.5], [0.5, 0.5]]", "a chain spec must be a JSON object"),
            ("{}", "exactly one of 'rows' and 'symmetric'"),
            (
                '{"rows": [[0.5, 0.5], [0.5, 0.5]],'
                ' "symmetric": {"n": 2, "alpha": 0.5}}',
                "exactly one of 'rows' and 'symmetric'",
            ),
            ('{"rows": [0.5, 0.5]}', "'rows' must be a list of lists"),
            ('{"rows": null}', "'rows' must be a list of lists"),
        ],
    )
    def test_malformed_specs_name_the_field(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "bounds", "--chain", spec, "--delta", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad chain spec: ")
        assert message in err

    @settings(max_examples=80, deadline=None)
    @given(
        form=hst.sampled_from(["rows", "symmetric"]),
        n=hst.integers(2, 6),
        declared=hst.sampled_from(["absent", "equal"])
        | hst.integers(-1, 8) | hst.sampled_from([3.0, "3", True, None, [3]]),
    )
    def test_a_declared_n_must_count_the_states(self, form, n, declared):
        # in either form an "n" beside the chain is optional, and when given
        # it must be the chain's number of states
        spec = (
            {"rows": symmetric_chain(n, 0.6).entries.tolist()}
            if form == "rows" else {"symmetric": {"n": n, "alpha": 0.6}}
        )
        if declared != "absent":
            spec["n"] = n if declared == "equal" else declared
        valid = "n" not in spec or (type(spec["n"]) is int and spec["n"] == n)
        try:
            assert chain_from_dict(spec).n == n
            loaded = True
        except ValueError:
            loaded = False
        assert loaded == valid
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with contextlib.redirect_stderr(err):
                code = main(["bounds", "--chain", json.dumps(spec), "--delta", "1"])
        if valid:
            assert code == 0 and err.getvalue() == ""
        else:
            assert (code, out.getvalue()) == (2, "")
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: bad chain spec: ")

    @settings(max_examples=150, deadline=None)
    @given(
        form=hst.sampled_from(["rows", "symmetric"]),
        mutation=hst.sampled_from(
            ["delete", "replace", "truncate", "wrap", "whole", "both", "extend"]
        ),
        pick=hst.integers(min_value=0),
        # integers stay small, or so large that numpy refuses them at once:
        # a symmetric chain of a million states is a legal spec that would
        # allocate n^2 floats
        value=hst.recursive(
            hst.none() | hst.booleans() | hst.floats() | hst.text(max_size=4)
            | hst.integers(min_value=-2, max_value=4)
            | hst.sampled_from([2**62, 10**30, 10**400]),
            lambda inner: hst.lists(inner, max_size=3)
            | hst.dictionaries(hst.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ),
        command=hst.sampled_from(["scheme", "simulate", "lp"]),
    )
    def test_every_command_survives_a_mutated_chain_spec(
        self, form, mutation, pick, value, command
    ):
        obj = (
            {"n": 3, "rows": symmetric_chain(3, 0.6).entries.tolist()}
            if form == "rows" else {"symmetric": {"n": 3, "alpha": 0.6}}
        )
        if mutation == "wrap":
            obj = [obj]
        elif mutation == "whole":
            obj = value
        elif mutation == "both":
            obj.update(rows=[[0.5, 0.5], [0.5, 0.5]], symmetric={"n": 2, "alpha": 0.5})
        elif mutation == "extend":
            # a row grows, or the row list does
            lists = [node for node, _ in json_slots(obj) if isinstance(node, list)]
            assume(lists)
            lists[pick % len(lists)].append(value)
        elif mutation != "truncate":
            slots = [
                (node, key) for node, key in json_slots(obj)
                if mutation == "replace" or isinstance(node, dict)
            ]
            node, key = slots[pick % len(slots)]
            if mutation == "delete":
                del node[key]
            else:
                node[key] = value
        text = json.dumps(obj)
        if mutation == "truncate":
            text = text[: pick % len(text)]
        argv = {
            "scheme": ["--delta", "1"],
            "simulate": ["--schedule", "periodic:2", "--horizon", "60"],
            "lp": ["--delta", "1"],
        }[command]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "out.json")
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(err):
                    code = main([command, f"--chain={text}", *argv, "--out", out])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "delta, delta_max, gaps",
    [
        (4, None, range(4, 5)),
        (None, 3, range(0, 4)),
        (2, 6, range(2, 7)),
        (5, 2, "--delta-max 2 is below the first gap 5"),
        (None, -3, "--delta-max -3 is below the first gap 0"),
        (None, None, "provide --delta and/or --delta-max"),
    ],
)
def test_delta_range(delta, delta_max, gaps):
    args = SimpleNamespace(delta=delta, delta_max=delta_max)
    if isinstance(gaps, str):
        with pytest.raises(cli.ConfigError, match=f"^{gaps}$"):
            cli._delta_range(args)
    else:
        assert cli._delta_range(args) == gaps


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "3", "--alpha", "0.6", "--delta-max", "12"],
        ["bounds", "--chain", CHAIN_4, "--delta", "1", "--delta-max", "5"],
        ["sweep-alpha", "--n", "3"],
        ["sweep-alpha", "--n", "5", "--delta", "2"],
        ["sweep-alpha", "--n", "2"],  # skips alpha = 0
    ],
)
def test_csv_is_what_a_csv_writer_writes(capsys, argv):
    # every cell is a column name or a number, so joining the cells with
    # "," gives the bytes of a csv.writer, which would quote nothing. The
    # rows may come as a generator, so each is kept as it is written
    rows, write = [], cli._write_csv

    def kept(given, out):
        write((rows.append(row) or row for row in given), out)

    with mock.patch.object(cli, "_write_csv", kept):
        code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert all(isinstance(cell, str) for row in rows for cell in row)
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows(rows)
    assert out == reference.getvalue()
    assert len(rows) > 1 and len({len(row) for row in rows}) == 1


class TestBoundsCommand:
    def test_gap_range_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "3", "--alpha", "0.25",
            "--delta", "1", "--delta-max", "6",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["delta"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        # display columns are rounded; raw columns carry full precision
        assert rows[0]["r_outer"] == "0.777778"
        assert float(rows[0]["raw_r_outer"]) == pytest.approx(7 / 9, abs=1e-15)

    def test_negative_gap_bounds_are_config_errors(self, capsys):
        for flags in (("--delta-max", "-3"), ("--delta", "-2", "--delta-max", "1")):
            code, out, err = run_cli(
                capsys, "bounds", "--n", "3", "--alpha", "0.6", *flags
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_gap_range_takes_one_power_and_matches_each_gap(
        self, capsys, monkeypatch
    ):
        import onoffpriv.cli
        import onoffpriv.markov
        from onoffpriv.bounds import rate_inner, rate_outer, theta_profile
        from onoffpriv.markov import chain_from_dict, conditional_table

        spec = '{"rows": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]}'
        first, last = 3, 60
        P = chain_from_dict(json.loads(spec))
        reference = []
        for delta in range(first, last + 1):
            prof = theta_profile(conditional_table(P, delta))
            inv_i, inv_o = rate_inner(prof), rate_outer(prof)
            reference.append([repr(v) for v in (inv_i, inv_o, 1 / inv_i, 1 / inv_o)])
        # the range is one walk over P^delta, and every product it takes
        # goes through the counting view of the chain's entries
        walks, products, single = [], [], []

        class Counted(np.ndarray):
            def __rmatmul__(self, other):
                products.append(1)
                return other @ self.view(np.ndarray)

        walk, power = onoffpriv.markov.matrix_powers, onoffpriv.markov.matrix_power

        def counted_walk(P, start, stop):
            walks.append((start, stop))
            view = SimpleNamespace(n=P.n, entries=P.entries.view(Counted))
            return walk(view, start, stop)

        def counted_power(P, delta):
            single.append(delta)
            return power(P, delta)

        monkeypatch.setattr(onoffpriv.cli, "matrix_powers", counted_walk)
        monkeypatch.setattr(onoffpriv.markov, "matrix_power", counted_power)
        code, out, _ = run_cli(
            capsys, "bounds", "--chain", spec,
            "--delta", str(first), "--delta-max", str(last),
        )
        assert code == 0
        raw = ["raw_inv_r_inner", "raw_inv_r_outer", "raw_r_inner", "raw_r_outer"]
        assert [[r[c] for c in raw] for r in parse_csv(out)] == reference
        assert walks == [(first, last + 1)]
        assert 0 < len(products) <= last
        assert single == []

    def test_large_gaps_do_not_overflow_the_closed_forms(self, capsys):
        for n, delta in (("10", "400"), ("3", "1024")):
            code, out, err = run_cli(
                capsys, "bounds", "--n", n, "--alpha", "0.5", "--delta", delta
            )
            assert code == 0, err
            row = parse_csv(out)[0]
            assert float(row["raw_cf_r_inner"]) == pytest.approx(
                float(row["raw_r_inner"]), abs=1e-9
            )

    def test_a_huge_gap_takes_the_rates_of_the_mixed_chain(self):
        # P^delta stops changing after 43 products, so a gap of 1e12 ends
        # as fast as a gap of 1000, with the same rates
        rates = {}
        for delta in ("1000", "1000000000000"):
            code, out, err = run_fresh(
                "bounds", "--n", "3", "--alpha", "0.6", "--delta", delta
            )
            assert code == 0, err
            row = parse_csv(out)[0]
            rates[delta] = {k: v for k, v in row.items() if k != "delta"}
        assert rates["1000"] == rates["1000000000000"]

    def test_a_periodic_chain_at_a_huge_gap_ends_at_once(self):
        # the flip's powers alternate from the first product on, and every
        # gap of a periodic chain has an unreachable context
        code, out, err = run_fresh(
            "bounds", "--n", "2", "--alpha", "0", "--delta", "1000000000000",
            timeout=10,
        )
        assert code == 2 and out == ""
        assert "ZeroContextProbability" in err

    def test_closed_form_columns_for_symmetric_chains(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "3", "--alpha", "0.6", "--delta", "1"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["cf_r_inner"] == row["r_inner"]
        assert float(row["raw_cf_r_inner"]) == pytest.approx(11 / 27, abs=1e-12)

    def test_no_closed_form_columns_for_general_chains(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--chain",
            '{"rows": [[0.7, 0.3], [0.4, 0.6]]}', "--delta", "1",
        )
        assert code == 0
        assert "cf_r_inner" not in parse_csv(out)[0]

    def test_a_self_loop_rounded_past_one_is_no_symmetric_alpha(self, capsys):
        # rows may sum to 1 within 1e-9, so P[0, 0] may exceed 1, which no
        # symmetric chain takes as alpha
        code, out, err = run_cli(
            capsys, "bounds", "--chain",
            '{"rows": [[1.0000000005, 1e-10], [0.5, 0.5]]}', "--delta", "1",
        )
        assert code == 0, err
        assert "cf_r_inner" not in parse_csv(out)[0]

    def test_zero_gap_rate_is_one_over_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "4", "--alpha", "0.5", "--delta", "0"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["raw_r_inner"]) == pytest.approx(0.25, abs=1e-15)
        assert float(row["raw_r_outer"]) == pytest.approx(0.25, abs=1e-15)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "3", "--alpha", "0.6",
            "--delta", "1", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert parse_csv(path.read_text())

    def test_rows_are_written_as_they_are_made(self, capsys, tmp_path):
        # a list of the 20,001 rows takes a traced 19.3 MB, about 1 KB a
        # gap; written as they are made, they leave a small constant peak
        path = tmp_path / "bounds.csv"
        argv = ["bounds", "--n", "3", "--alpha", "0.6", "--out", str(path)]
        run_cli(capsys, *argv, "--delta-max", "50")  # any one-time set-up
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *argv, "--delta-max", "20000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert len(path.read_text().splitlines()) == 20002
        assert peak < 2 * 2**20
        # a run that fails at its first gap opens no file: the flip's
        # contexts are unreachable at every gap
        path.unlink()
        code, out, err = run_cli(
            capsys, "bounds", "--n", "2", "--alpha", "0", "--delta-max", "3",
            "--out", str(path),
        )
        assert code == 2 and out == "" and err.startswith("error:")
        assert not path.exists()


class TestSweepAlphaCommand:
    def test_grid_reference_points(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-alpha", "--n", "3", "--delta", "1")
        assert code == 0
        rows = {r["alpha"]: r for r in parse_csv(out)}
        assert rows["0.25"]["r_inner"] == "0.626016"
        assert rows["0.25"]["r_outer"] == "0.777778"
        assert float(rows["0.333333"]["raw_r_inner"]) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sweep-alpha", "--n", "3")
        _, out2, _ = run_cli(capsys, "sweep-alpha", "--n", "3")
        assert out1 == out2

    def test_requires_n(self, capsys):
        code, out, err = run_cli(capsys, "sweep-alpha")
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: --n" in err

    def test_alpha_is_not_an_option(self, capsys):
        # the sweep walks its own alpha grid
        code, out, err = run_cli(capsys, "sweep-alpha", "--n", "3", "--alpha", "0.9")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --alpha 0.9" in err


class TestSchemeAndVerifyCommands:
    def test_scheme_json_round_trips(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        code, _, _ = run_cli(
            capsys, "scheme", "--n", "3", "--alpha", "0.6",
            "--delta", "1", "--out", str(path),
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["summary"]["expected_size_set"] == pytest.approx(
            27 / 11, abs=1e-9
        )
        for form in ("multiset", "set"):
            s = SchemeDistribution.from_json_obj(obj[form])
            assert json.loads(section_text(s)) == obj[form]

    def test_a_scheme_past_the_row_limit_is_a_config_error(
        self, capsys, tmp_path, monkeypatch
    ):
        # the symmetric 4-state chain's gap-1 scheme has 116 rows
        import onoffpriv.scheme

        monkeypatch.setattr(onoffpriv.scheme, "MAX_ENTRIES", 100)
        path = tmp_path / "scheme.json"
        chain = ("--n", "4", "--alpha", "0.6")
        for argv in (
            ("scheme", *chain, "--delta", "1", "--out", str(path)),
            ("verify", *chain, "--delta", "1"),
            ("simulate", *chain, "--schedule", "periodic:2", "--horizon", "10"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: TooManyEntries: the scheme needs at least ")
            assert err.endswith(" rows, above the limit of 100\n")
            assert err.count("\n") == 1
        assert not path.exists()

    def test_verify_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--alpha", "0.25", "--delta", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_privacy_gap"] < 1e-12

    def test_verify_flags_a_tampered_artifact(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        run_cli(
            capsys, "scheme", "--n", "3", "--alpha", "0.6",
            "--delta", "1", "--out", str(path),
        )
        obj = json.loads(path.read_text())
        section = obj["multiset"]  # the form verify prefers
        entries = [entry(section, i) for i in range(len(section["q"]))]
        donor = max(range(len(entries)), key=lambda i: entries[i][3])
        target = next(
            i for i, e in enumerate(entries)
            if e[1:3] == entries[donor][1:3] and i != donor
        )
        set_mass(section, donor, entries[donor][3] - 0.05)
        set_mass(section, target, entries[target][3] + 0.05)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
            "--scheme", str(tampered),
        )
        assert code == 1
        assert json.loads(out)["max_privacy_gap"] > 0.01

    def test_verify_names_the_failing_entry(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        run_cli(
            capsys, "scheme", "--n", "3", "--alpha", "0.6",
            "--delta", "1", "--out", str(path),
        )
        obj = json.loads(path.read_text())
        section = obj["multiset"]
        i = len(section["q"]) // 2
        members, x, u, mass = entry(section, i)
        set_mass(section, i, mass + 0.1)
        bad = tmp_path / "corrupted.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
            "--scheme", str(bad),
        )
        assert code == 1
        report = json.loads(out)
        assert report["worst_marginal"] == {"x": x, "u": u}
        assert report["worst_privacy"]["q"] == members
        assert report["worst_privacy"]["u_max"] == u
        assert report["worst_privacy"]["u_min"] != u

    def test_verify_names_a_decodability_violation_as_the_file_does(
        self, capsys, tmp_path
    ):
        path = tmp_path / "scheme.json"
        run_cli(
            capsys, "scheme", "--n", "3", "--alpha", "0.6",
            "--delta", "1", "--out", str(path),
        )
        obj = json.loads(path.read_text())
        section = obj["multiset"]
        i = next(
            i for i in range(len(section["q"]))
            if entry(section, i)[:3] == ([2], 2, [1, 2])
        )
        set_mass(section, i, -0.01)
        bad = tmp_path / "negative.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run_cli(
            capsys, "verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
            "--scheme", str(bad),
        )
        assert code == 1
        report = json.loads(out)
        assert report["decodability_violations"] == [{"q": [2], "x": 2, "u": [1, 2]}]

    @settings(max_examples=30, deadline=None)
    @given(
        tol=hst.one_of(
            hst.sampled_from([math.nan, math.inf]), hst.floats(max_value=0.0)
        )
    )
    def test_verify_rejects_a_bad_tolerance(self, tol):
        # --tol=VALUE keeps argparse from reading "-inf" as an option
        code = main(["verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
                     f"--tol={tol!r}"])
        assert code == 2

    def test_malformed_scheme_files_are_config_errors(self, capsys, tmp_path):
        path = tmp_path / "scheme.json"
        run_cli(
            capsys, "scheme", "--n", "3", "--alpha", "0.6",
            "--delta", "1", "--out", str(path),
        )
        aliased = json.loads(path.read_text())
        section = aliased["multiset"]
        i = next(i for i in range(len(section["q"])) if entry(section, i)[2] == [2, 2])
        section["u0"][i], section["u1"][i] = 3, -1  # flattens as (2, 2) does
        out_of_range = json.loads(path.read_text())
        out_of_range["multiset"]["x"][0] = 7
        repeated = json.loads(path.read_text())
        for name in COLUMNS:
            repeated["multiset"][name].append(repeated["multiset"][name][0])
        non_finite = []
        for mass in (math.nan, math.inf, -math.inf):
            obj = json.loads(path.read_text())
            obj["multiset"]["masses"][0] = mass  # written as NaN, Infinity
            non_finite.append(obj)
        over_long = json.loads(path.read_text())
        assert over_long["multiset"]["queries"][:2] == [[0], [0, 1, 2]]
        over_long["multiset"]["queries"][0] = [0, 0, 1, 2]  # n = 3
        ragged = json.loads(path.read_text())
        ragged["multiset"]["u1"].pop()
        texts = [
            json.dumps(obj)
            for obj in (
                aliased, out_of_range, repeated, *non_finite, over_long, ragged
            )
        ]
        text = path.read_text()
        texts.append(text[: len(text) // 2])  # truncated
        texts.append(json.dumps([json.loads(text)]))  # a top-level list
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"bad{i}.json")
            paths[-1].write_text(text)
        paths.append(tmp_path / "missing.json")
        for bad in paths:
            code, _, err = run_cli(
                capsys, "verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
                "--scheme", str(bad),
            )
            assert code == 2
            assert err.startswith("error: bad scheme file: ")

    def test_schema_1_files_ask_to_be_regenerated(self, capsys, tmp_path):
        multiset = SchemeDistribution.from_json_obj(
            json.loads(saved_scheme_text())["multiset"]
        )
        path = tmp_path / "schema1.json"
        path.write_text(json.dumps({"multiset": schema1_json_obj(multiset)}))
        code, _, err = run_cli(
            capsys, "verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
            "--scheme", str(path),
        )
        assert code == 2
        assert err.startswith("error: bad scheme file: not a schema-2 scheme section")
        assert "regenerate the file with `onoffpriv scheme`" in err

    @settings(max_examples=60, deadline=None)
    @given(
        where=hst.sampled_from(["alpha", "rows", "p"]),
        kind=hst.sampled_from(["string", "bool", "null"]),
        pick=hst.integers(min_value=0),
    )
    def test_probabilities_must_be_json_numbers(self, where, kind, pick):
        # float() used to read "0.6" and true as probabilities
        def spoil(v):
            return {"string": repr(v), "bool": v >= 0.5, "null": None}[kind]

        argv = ["--delta", "1"]
        if where == "p":
            obj = json.loads(saved_scheme_text())
            masses = obj["multiset"]["masses"]
            masses[pick % len(masses)] = spoil(masses[pick % len(masses)])
            chain, what = {"symmetric": {"n": 3, "alpha": 0.6}}, "scheme file"
        else:
            obj = None
            chain = {"n": 3, "rows": symmetric_chain(3, 0.6).entries.tolist()}
            what = "chain spec"
            if where == "alpha":
                chain = {"symmetric": {"n": 3, "alpha": spoil(0.6)}}
            else:
                row = chain["rows"][pick % 3]
                row[pick % 3] = spoil(row[pick % 3])
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if obj is not None:
                path = Path(tmp) / "scheme.json"
                path.write_text(json.dumps(obj))
                argv += ["--scheme", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(err):
                    code = main(["verify", "--chain", json.dumps(chain), *argv])
        assert code == 2
        assert err.getvalue().startswith(f"error: bad {what}: ")

    @settings(max_examples=200, deadline=None)
    @given(
        mutation=hst.sampled_from(
            ["delete", "replace", "truncate", "wrap", "extend", "drop"]
        ),
        pick=hst.integers(min_value=0),
        value=hst.recursive(
            hst.none() | hst.booleans() | hst.integers() | hst.floats()
            | hst.text(max_size=4),
            lambda inner: hst.lists(inner, max_size=3)
            | hst.dictionaries(hst.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ),
    )
    def test_verify_survives_any_mutated_scheme_file(self, mutation, pick, value):
        text = saved_scheme_text()
        obj = json.loads(text)
        if mutation == "truncate":
            text = text[: pick % len(text)]
        elif mutation == "wrap":
            text = json.dumps([obj])
        elif mutation in ("extend", "drop"):
            # a column, the query list, a query or the palette grows or
            # shrinks by one item
            lists = [node for node, _ in json_slots(obj) if isinstance(node, list)]
            node = lists[pick % len(lists)]
            node.append(value) if mutation == "extend" else node.pop()
            text = json.dumps(obj)
        else:
            slots = [
                (node, key) for node, key in json_slots(obj)
                if mutation == "replace" or isinstance(node, dict)
            ]
            node, key = slots[pick % len(slots)]
            if mutation == "delete":
                del node[key]
            else:
                node[key] = value
            text = json.dumps(obj)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scheme.json"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main([
                        "verify", "--n", "3", "--alpha", "0.6", "--delta", "1",
                        "--scheme", str(path),
                    ])
        assert code in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        field=hst.sampled_from(
            ["member", *COLUMNS, "n", "delta", "chain n", "symmetric n"]
        ),
        bad=hst.one_of(hst.floats(), hst.booleans(), hst.text(max_size=4)),
        pick=hst.integers(min_value=0),
    )
    def test_non_integral_indices_are_config_errors(self, field, bad, pick):
        # int() used to read 1.7 as 1, and True or "2" as states; np.asarray
        # reads true as 1 too
        obj = json.loads(saved_scheme_text())
        form = obj["multiset"]
        chain = {"symmetric": {"n": 3, "alpha": 0.6}}
        if field == "member":
            members = form["queries"][pick % len(form["queries"])]
            members[pick % len(members)] = bad
        elif field in COLUMNS:
            form[field][pick % len(form[field])] = bad
        elif field in ("n", "delta"):
            form[field] = bad
        elif field == "chain n":
            chain = {"n": 3, "rows": symmetric_chain(3, 0.6).entries.tolist()}
            chain["n"] = bad
        else:
            chain["symmetric"]["n"] = bad
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scheme.json"
            path.write_text(json.dumps(obj))
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(err):
                    code = main([
                        "verify", "--chain", json.dumps(chain), "--delta", "1",
                        "--scheme", str(path),
                    ])
        assert code == 2
        what = "chain spec" if field.endswith(" n") else "scheme file"
        assert err.getvalue().startswith(f"error: bad {what}: ")


class TestLpCommand:
    def test_reports_optimum_next_to_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "lp", "--chain", '{"rows": [[0.8, 0.2], [0.3, 0.7]]}',
            "--delta", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["num_vars"] == 2 and obj["num_rows"] == 3
        assert obj["value"] == pytest.approx(obj["inv_r_outer"], abs=1e-7)
        assert obj["status"] == "optimal"

    def test_too_many_states_is_a_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "lp", "--n", "6", "--alpha", "0.5", "--delta", "1"
        )
        assert code == 2
        assert "TooLarge" in err


def reads_as(section, written, key):
    """section answers every read as the JSON object written does, each of
    whose keys key makes from its text."""
    want = {key(k): v for k, v in written.items()}
    assert len(section) == len(want)
    assert list(section) == list(want)
    assert all(k in section and section[k] == v for k, v in want.items())
    assert dict(section) == want
    assert list(section.items()) == list(want.items())
    assert section == want and want == section


class TestSimulateCommand:
    def test_stats_and_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "3", "--alpha", "0.6",
            "--schedule", "periodic:2", "--horizon", "4000",
            "--seed", "3", "--out", str(trace_path),
        )
        assert code == 0
        stats = json.loads(out)
        assert set(stats) == {
            "n", "horizon", "seed", "schedule", "msg_len", "decode_failures",
            "total_bytes", "schemes_built", "schemes_reused", "rates",
            "delta_buckets", "privacy", "pass",
        }
        assert stats["decode_failures"] == 0
        assert stats["pass"] is True
        assert (stats["schemes_built"], stats["schemes_reused"]) == (2, 0)
        rows = parse_csv(trace_path.read_text())
        assert len(rows) == 4000
        assert rows[0]["f"] == "1" and rows[0]["delta"] == "0"
        sizes = {int(r["q_size"]) for r in rows}
        assert sizes <= {1, 2, 3}

    def test_scheme_counters_cover_every_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "3", "--alpha", "0.6",
            "--schedule", "periodic:500", "--horizon", "1000",
        )
        stats = json.loads(out)
        assert code == 0
        assert stats["schemes_built"] + stats["schemes_reused"] == 500
        assert stats["schemes_built"] == 38  # the power is held from gap 37 on

    def test_statistics_are_written_as_one_dump_would(self, tmp_path):
        # an off-after-0 run of 3,000 gaps gives one bucket and one rate a
        # gap
        out = tmp_path / "stats.json"
        with mock.patch.object(cli, "_write_json", wraps=cli._write_json) as spy:
            code = main([
                "simulate", "--n", "3", "--alpha", "0.6", "--schedule",
                "off-after-0", "--horizon", "3000", "--out", str(out),
            ])
        assert code == 0
        stats = spy.call_args.args[0]
        assert len(stats["delta_buckets"]) == 3000
        text = json.dumps(stats, indent=2, sort_keys=True, default=dict) + "\n"
        assert out.read_text() == text

    @settings(max_examples=12, deadline=None)
    @given(
        kind=hst.sampled_from(["periodic", "bernoulli", "explicit", "off-after-0"]),
        p=hst.floats(min_value=0.0, max_value=1.0),
        horizon=hst.integers(min_value=1, max_value=3000),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    # a bernoulli run of a few dozen gaps, some past 10, so that the gap
    # order of the keys differs from the order of their texts
    @example(kind="bernoulli", p=0.1, horizon=3000, seed=4)
    def test_rates_and_buckets_match_the_trace(self, kind, p, horizon, seed):
        flags = np.random.default_rng(seed).random(horizon) < p
        schedule = {
            "periodic": f"periodic:{1 + int(40 * p)}",
            "bernoulli": f"bernoulli:{p}",
            "explicit": "explicit:1" + "".join(",%d" % f for f in flags[1:]),
            "off-after-0": "off-after-0",
        }[kind]
        argv = ["--schedule", schedule, "--horizon", str(horizon), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["simulate", "--n", "3", "--alpha", "0.6", *argv])
        assert code in (0, 1)
        stats = json.loads(out.getvalue())
        cfg = SimConfig(
            chain=symmetric_chain(3, 0.6), schedule=PrivacySchedule.parse(schedule),
            horizon=horizon, seed=seed,
        )
        trace = run_simulation(cfg)
        # the library's result reads as the text the command wrote
        lib = onoffpriv.simulate(cfg)
        text = json.dumps(lib, indent=2, sort_keys=True, default=dict) + "\n"
        assert text == out.getvalue()
        with pytest.raises(TypeError):
            json.dumps(lib)
        buckets, per_delta = lib["delta_buckets"], lib["rates"]["per_delta"]
        reads_as(buckets, stats["delta_buckets"], int)
        reads_as(per_delta, stats["rates"]["per_delta"], int)
        for section in (buckets, per_delta):
            for key in ("1", "01", " 1", -1, 1.5, len(section)):
                with pytest.raises(KeyError):
                    section[key]
        counts, sums = trace.gap_counts.tolist(), trace.gap_size_sums.tolist()
        assert list(stats["delta_buckets"]) == [str(d) for d in range(len(counts))]
        for d, (count, size_sum) in enumerate(zip(counts, sums)):
            assert stats["delta_buckets"][str(d)] == {
                "count": count, "mean_q_size": size_sum / count
            }
        assert stats["decode_failures"] == int((~trace.decodes()).sum())

    def test_the_statistics_text_is_never_held_whole(self, tmp_path):
        # few keys, so that the encoder's own sorted items stay small
        stats = {str(d): [d / 7] * 500 for d in range(400)}
        size = len(json.dumps(stats, indent=2, sort_keys=True))
        tracemalloc.start()
        try:
            cli._write_json(stats, str(tmp_path / "stats.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "stats.json").stat().st_size == size + 1
        assert peak < size / 4

    def test_deterministic_given_seed(self, capsys):
        args = (
            "simulate", "--n", "3", "--alpha", "0.6", "--schedule",
            "bernoulli:0.5", "--horizon", "2000", "--seed", "9",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_schedule_is_a_config_error(self, capsys):
        # the two kinds that take no argument refuse one
        for spec in ("never", "always-on:banana", "off-after-0:7"):
            code, out, _ = run_cli(
                capsys, "simulate", "--n", "3", "--alpha", "0.6",
                "--schedule", spec, "--horizon", "10",
            )
            assert (code, out) == (2, ""), spec

    def test_requires_horizon(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "3", "--alpha", "0.6")
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: --horizon" in err

    def test_a_negative_seed_is_a_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--alpha", "0.6", "--horizon", "10",
            "--seed", "-1",
        )
        assert (code, out) == (2, "")
        assert "error: ValueError: seed must be non-negative, got -1" in err

    @pytest.mark.parametrize(
        "flags",
        [
            # 3 messages of this length over 5 steps wrap an int64
            ["--n", "3", "--alpha", "0.6", "--msg-len", "4000000000000000000"],
            ["--n", "3", "--alpha", "0.6", "--schedule", "explicit:1,0,2,1,1"],
            ["--n", "3", "--alpha", "0.6", "--schedule", "explicit:1,0,-1,1,1"],
            # a valid config whose run fails: the trace file is opened only
            # once the run has succeeded
            ["--chain", '{"rows": [[1.0, 0.0], [0.5, 0.5]]}'],
        ],
    )
    def test_unrepresentable_runs_are_config_errors(self, capsys, tmp_path, flags):
        code, out, err = run_cli(
            capsys, "simulate", "--horizon", "5",
            "--out", str(tmp_path / "trace.csv"), *flags,
        )
        assert (code, out) == (2, "")
        assert "error" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_trace_file_is_the_reference_text(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "3", "--alpha", "0.6",
            "--schedule", "bernoulli:0.3", "--horizon", "20000", "--seed", "7",
            "--msg-len", "333333334", "--out", str(path),
        )
        assert code == 0
        trace = run_simulation(SimConfig(
            chain=symmetric_chain(3, 0.6),
            schedule=PrivacySchedule("bernoulli", 0.3),
            horizon=20000, msg_len=333333334, seed=7,
        ))
        assert path.read_bytes() == reference_trace_csv(trace).encode()


json_values = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=6), inner, max_size=4)
    | hst.dictionaries(hst.integers(-20, 20), inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(obj=json_values)
    def test_the_text_is_one_dump(self, tmp_path_factory, obj):
        # nan and the infinities too, and int keys, sorted as ints
        path = tmp_path_factory.mktemp("json") / "out.json"
        cli._write_json(obj, str(path))
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_a_per_gap_object_is_written_as_its_dict(self, tmp_path):
        counts, sums = np.array([3, 1, 2] * 5), np.array([7, 1, 5] * 5)
        for value in (lambda c, m: {"c": c, "m": m}, divmod):
            lazy = sim._PerGap(counts, sums, value)
            plain = {
                d: value(int(c), int(s) / int(c))
                for d, (c, s) in enumerate(zip(counts, sums))
            }
            obj = {"a": [1.5], "gaps": lazy, "z": {"gaps": lazy}}
            want = {"a": [1.5], "gaps": plain, "z": {"gaps": plain}}
            cli._write_json(obj, str(tmp_path / "out.json"))
            text = json.dumps(want, indent=2, sort_keys=True) + "\n"
            assert (tmp_path / "out.json").read_text() == text
            assert len(lazy) == 15
            assert json.dumps(obj, indent=2, sort_keys=True, default=dict) + "\n" == text

    @pytest.mark.parametrize("argv", [
        ["scheme", "--n", "3", "--alpha", "0.6", "--delta", "1"],
        ["verify", "--n", "3", "--alpha", "0.6", "--delta", "1"],
        ["lp", "--n", "3", "--alpha", "0.6", "--delta", "1"],
        [
            "simulate", "--n", "3", "--alpha", "0.6", "--schedule", "periodic:2",
            "--horizon", "2000", "--seed", "1",
        ],
    ], ids=lambda argv: argv[0])
    def test_the_out_file_is_the_stdout_text(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        assert out and err == ""
        path = tmp_path / "out.json"
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_bytes() == out.encode()


def indented(value):
    """value as a member of a top-level object in json.dumps(indent=2)."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


class TestDocumentText:
    """The whole text of the two documents made of query distributions, each
    section as SchemeDistribution.json_chunks yields it and every other
    value as in the other JSON outputs."""

    def test_scheme_document(self, tmp_path):
        n, delta = 3, 1
        cond = conditional_table(symmetric_chain(n, 0.6), delta)
        profile = theta_profile(cond)
        ms = build_scheme(profile, cond)
        setform = collapse_to_sets(ms)
        prior = np.full(cond.m, 1.0 / cond.m)
        summary = {
            "multiset_entries": ms.entry_count,
            "set_entries": setform.entry_count,
            "expected_size_multiset": expected_cost(ms, cond, prior),
            "expected_size_set": expected_cost(setform, cond, prior),
            "achievable_cost": rate_inner(profile),
        }
        out = tmp_path / "s.json"
        argv = ["scheme", "--n", "3", "--alpha", "0.6", "--delta", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == (
            '{\n  "delta": 1,\n  "multiset": ' + section_text(ms)
            + ',\n  "n": 3,\n  "set": ' + section_text(setform)
            + ',\n  "summary": ' + indented(summary)
            + ',\n  "theta": ' + indented(profile.theta.tolist()) + "\n}\n"
        )

    def test_lp_document(self, tmp_path):
        cond = conditional_table(symmetric_chain(4, 0.1), 1)
        profile = theta_profile(cond)
        sol = solve_simplex(formulate_lp(cond))
        out = tmp_path / "lp.json"
        argv = ["lp", "--n", "4", "--alpha", "0.1", "--delta", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == (
            '{\n  "delta": 1,\n  "inv_r_inner": %r,\n  "inv_r_outer": %r,'
            '\n  "iterations": %d,\n  "n": 4,\n  "num_rows": 15,'
            '\n  "num_vars": 14,\n  "optimal_rate": %r,\n  "set": %s,'
            '\n  "status": "optimal",\n  "value": %r\n}\n'
        ) % (
            rate_inner(profile), rate_outer(profile), sol.iterations,
            1.0 / sol.value, section_text(sol.scheme), sol.value,
        )


class TestTraceCsv:
    def test_digits_of_hand_picked_columns(self):
        values = [0, 9, 10, 99, 100, 2**63 - 1]
        zeros = [0] * len(values)
        text = csv_digits([np.array(values), np.array(zeros), np.array(values)])
        assert text == "".join(f"{v},0,{v}\n" for v in values).encode()
        assert csv_digits([np.zeros(3, dtype=bool)]) == b"0\n0\n0\n"
        assert csv_digits([np.array([7])]) == b"7\n"

    @settings(max_examples=40, deadline=None)
    @given(
        schedule=hst.sampled_from(
            ["periodic:3", "bernoulli:0.3", "explicit", "always-on", "off-after-0"]
        ),
        horizon=hst.sampled_from(
            [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
             3 * CSV_BLOCK_ROWS + 5]
        ),
        # byte counts q_size * msg_len just below, at and above 10**k; k = 19
        # is capped at the largest length whose run fits in an int64
        k=hst.integers(min_value=0, max_value=19),
        size=hst.integers(min_value=1, max_value=3),
        offset=hst.integers(min_value=-1, max_value=1),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_file_is_the_reference_text(
        self, schedule, horizon, k, size, offset, seed
    ):
        n = 3
        msg_len = min(max(1, 10**k // size + offset), (2**63 - 1) // (n * horizon))
        if schedule == "explicit":
            flags = np.random.default_rng(seed).random(horizon) < 0.4
            flags[0] = True
            schedule += ":" + ",".join(map(str, flags.astype(int).tolist()))
        trace = run_simulation(SimConfig(
            chain=symmetric_chain(n, 0.6),
            schedule=PrivacySchedule.parse(schedule),
            horizon=horizon, msg_len=msg_len, seed=seed,
        ))
        sizes = [len(trace.query_keys[i]) for i in trace.query_ids.tolist()]
        assert trace.total_bytes() == msg_len * sum(sizes)
        buf = io.BytesIO()
        write_trace_csv(trace, buf)
        assert buf.getvalue() == reference_trace_csv(trace).encode()


IMPORT_PROBE = '''
import json, sys
import onoffpriv, onoffpriv.cli
from onoffpriv.cli import main


def modules(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)


def loaded_now():
    return {
        "scipy": modules("scipy"),
        "onoffpriv": modules("onoffpriv"),
        "numpy.ma": "numpy.ma" in sys.modules,
        "logging": "logging" in sys.modules,
        "csv": "csv" in sys.modules,
    }


chain = ["--n", "3", "--alpha", "0.6", "--delta", "1"]
scheme, out = sys.argv[1], sys.argv[2]
# no gap bucket of this run reaches 1,000 samples, so no privacy test runs
sim = ["--schedule", "periodic:500", "--horizon", "10000"]
argvs = {
    "scheme+verify": [
        ["scheme", *chain, "--out", scheme],
        ["verify", *chain, "--scheme", scheme, "--out", out],
    ],
    "simulate": [["simulate", "--n", "3", "--alpha", "0.6", *sim, "--out", out]],
    # every step in gap 0, one bucket tested, whose one query needs no p-value
    "always-on": [
        ["simulate", "--n", "3", "--alpha", "0.6", "--schedule", "always-on",
         "--horizon", "5000", "--out", out],
    ],
    "lp": [["lp", *chain, "--out", out]],
    "bounds": [["bounds", *chain, "--out", out]],
    "sweep-alpha": [["sweep-alpha", "--n", "3", "--out", out]],
}
loaded = {"import": loaded_now()}
codes = []
for step in sys.argv[3:]:
    codes += [main(argv) for argv in argvs[step]]
    loaded[step] = loaded_now()
unresolved = [name for name in onoffpriv.__all__ if not hasattr(onoffpriv, name)]
print(json.dumps({"codes": codes, "loaded": loaded, "unresolved": unresolved}))
'''


def fresh_env(log=None):
    """The environment of a fresh interpreter that imports onoffpriv from
    this checkout, with ONOFFPRIV_LOG set to log, or removed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.pop("ONOFFPRIV_LOG", None)
    if log is not None:
        env["ONOFFPRIV_LOG"] = log
    return env


def run_fresh(*argv, log=None, timeout=120):
    """Run the CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "onoffpriv.cli", *argv],
        env=fresh_env(log), capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@functools.cache
def import_probe(*steps):
    """What the probe's fresh interpreter loaded on import and after each
    step, run in the order given: this test process has scipy, logging and
    every onoffpriv module loaded already."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE,
             str(Path(tmp) / "s.json"), str(Path(tmp) / "out.json"), *steps],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["codes"]) == {0}
    return result


TRACE_FREED_PROBE = '''
import gc, json, sys
from onoffpriv.cli import main
from onoffpriv.sim import SimTrace

alive = []


class Hook:
    """Counts the SimTrace objects alive whenever a scipy module loads."""

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            alive.append(sum(isinstance(o, SimTrace) for o in gc.get_objects()))
        return None


sys.meta_path.insert(0, Hook())
code = main(sys.argv[1:])
print(json.dumps({"code": code, "alive": alive, "special": "scipy.special" in sys.modules}))
'''


def test_the_trace_is_freed_before_scipy_loads(tmp_path):
    # gaps 0 and 1 have 2,000 samples each, and gap 1's p-value needs
    # scipy.special; by then the trace and its CSV are done with
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_FREED_PROBE, "simulate", "--n", "3",
         "--alpha", "0.6", "--schedule", "periodic:2", "--horizon", "4000",
         "--out", str(tmp_path / "trace.csv")],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["special"] and result["alive"]
    assert set(result["alive"]) == {0}
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 4001


ALL_STEPS = ("scheme+verify", "simulate", "lp")


class TestImportCost:
    def test_only_the_commands_that_need_scipy_load_it(self):
        loaded = import_probe(*ALL_STEPS)["loaded"]
        assert loaded["import"]["scipy"] == []
        assert loaded["scheme+verify"]["scipy"] == []
        assert loaded["simulate"]["scipy"] == []
        assert loaded["lp"]["scipy"] == []

    def test_a_command_loads_only_the_modules_it_runs(self):
        loaded = import_probe(*ALL_STEPS)["loaded"]
        at_import = loaded["import"]["onoffpriv"]
        assert "onoffpriv.lp" not in at_import
        assert "onoffpriv.sim" not in at_import
        assert "onoffpriv.verify" not in at_import
        assert "onoffpriv.sim" not in loaded["scheme+verify"]["onoffpriv"]
        assert "onoffpriv.lp" in loaded["lp"]["onoffpriv"]
        # a plain np.unique imports numpy.ma, 15-22 ms a process
        assert not loaded["scheme+verify"]["numpy.ma"]
        assert "onoffpriv.sim" in loaded["simulate"]["onoffpriv"]
        assert not loaded["simulate"]["numpy.ma"]

    def test_a_tested_bucket_loads_neither_numpy_ma_nor_scipy(self):
        loaded = import_probe("always-on")["loaded"]["always-on"]
        assert "onoffpriv.sim" in loaded["onoffpriv"]
        # a plain np.unique over the gaps or labels imports numpy.ma
        assert not loaded["numpy.ma"]
        assert loaded["scipy"] == []

    def test_simulate_and_lp_load_no_checker(self):
        loaded = import_probe("simulate", "lp")["loaded"]
        assert "onoffpriv.sim" in loaded["simulate"]["onoffpriv"]
        assert "onoffpriv.lp" in loaded["lp"]["onoffpriv"]
        assert "onoffpriv.verify" not in loaded["lp"]["onoffpriv"]

    def test_the_rate_commands_load_no_scheme(self):
        # lp writes its point through the scheme container, and loads
        # neither the checker nor the simulator
        loaded = import_probe("bounds", "sweep-alpha", "lp")["loaded"]
        assert "onoffpriv.scheme" not in loaded["bounds"]["onoffpriv"]
        assert "onoffpriv.scheme" not in loaded["sweep-alpha"]["onoffpriv"]
        assert "onoffpriv.scheme" in loaded["lp"]["onoffpriv"]
        assert "onoffpriv.verify" not in loaded["lp"]["onoffpriv"]
        assert "onoffpriv.sim" not in loaded["lp"]["onoffpriv"]

    def test_logging_and_csv_load_only_when_used(self):
        loaded = import_probe("simulate", "lp", "bounds")["loaded"]
        assert not loaded["import"]["logging"]
        assert not loaded["import"]["csv"]
        assert not loaded["simulate"]["logging"]
        assert not loaded["simulate"]["csv"]
        # lp and bounds have info records, which the default level drops
        # before logging is imported
        assert not loaded["lp"]["logging"]
        assert not loaded["bounds"]["logging"]
        # bounds joins its cells itself
        assert not loaded["bounds"]["csv"]
        assert not import_probe(*ALL_STEPS)["loaded"]["scheme+verify"]["logging"]

    def test_every_export_resolves(self):
        assert import_probe(*ALL_STEPS)["unresolved"] == []


class TestLogging:
    def test_skipped_alphas_are_warned_by_default(self):
        code, out, err = run_fresh("sweep-alpha", "--n", "2")
        assert code == 0
        assert out.startswith("alpha,r_inner,r_outer,")
        assert "WARNING alpha=0 skipped: context probability vanishes\n" in err

    def test_info_level_reports_the_lp_size(self):
        argv = ("lp", "--n", "3", "--alpha", "0.6", "--delta", "1")
        code, _, err = run_fresh(*argv, log="info")
        assert code == 0
        assert err == "INFO lp has 6 variables, 7 rows\n"

    def test_a_record_that_cannot_be_written_is_dropped(self):
        # with fd 2 closed, sys.stderr is None: the warnings are dropped, and
        # the table is written as ever
        proc = subprocess.run(
            ["sh", "-c", '"$0" -m onoffpriv.cli sweep-alpha --n 2 2>&-',
             sys.executable],
            env=fresh_env(), stdout=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == run_fresh("sweep-alpha", "--n", "2")[1]

    @pytest.mark.parametrize("value", ["basic_format", "_styles", "bogus", "5", ""])
    def test_a_value_that_is_no_level_name_means_warning(self, value):
        argv = ("bounds", "--n", "3", "--alpha", "0.6", "--delta-max", "2")
        code, out, err = run_fresh(*argv, log=value)
        assert code == 0
        assert out.startswith("delta,")
        # the bounds command logs each gap at INFO, below WARNING
        assert err == ""


# the flags each command takes, by their argparse names
CHAIN_FLAGS = ("n", "alpha")
RANDOM_ARGV_FLAGS = {
    "lp": (*CHAIN_FLAGS, "delta"),
    "bounds": (*CHAIN_FLAGS, "delta", "delta_max"),
    "sweep-alpha": ("n", "delta"),
    "scheme": (*CHAIN_FLAGS, "delta"),
    "verify": (*CHAIN_FLAGS, "delta", "tol"),
    "simulate": (*CHAIN_FLAGS, "horizon", "seed", "msg_len", "schedule"),
}
# each flag's well-formed values, then values of its type in a wide range,
# malformed and edge values included
RANDOM_ARGV_VALUES = {
    "n": (hst.integers(2, 7), hst.integers(-2, 8)),
    "alpha": (hst.floats(0.05, 0.95), hst.floats()),
    "delta": (hst.integers(0, 4), hst.integers(-3, 30)),
    "delta_max": (hst.integers(0, 6), hst.integers(-3, 30)),
    "tol": (hst.floats(1e-12, 1e-6), hst.floats()),
    "horizon": (hst.integers(1, 3000), hst.integers(-2, 3000)),
    "seed": (
        hst.integers(0, 2**32),
        hst.integers(-(2**8), -1) | hst.integers(2**64 - 2, 2**65),
    ),
    "msg_len": (
        hst.integers(1, 64), hst.integers(-2, 0) | hst.integers(2**40, 2**66)
    ),
    "schedule": (
        hst.sampled_from(
            ["always-on", "off-after-0", "bernoulli:0.3", "periodic:3", "explicit:1"]
        ),
        hst.sampled_from(
            ["bernoulli:nan", "bernoulli:1.5", "periodic:0", "periodic:-1",
             "explicit:", "explicit:0,1", "explicit:1,2", "never", ""]
        )
        | hst.from_regex(
            r"(bernoulli|periodic|explicit):[-0-9.,e]{0,6}", fullmatch=True
        ),
    ),
}


class TestTopLevel:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", ["scheme", "verify", "lp"])
    def test_a_gap_command_requires_delta(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "3", "--alpha", "0.6")
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: --delta" in err

    @pytest.mark.parametrize(
        "command, written_as",
        [
            ("bounds", "written as CSV"),
            ("sweep-alpha", "written as CSV"),
            ("scheme", "written as JSON"),
            ("verify", "written as JSON"),
            ("lp", "written as JSON"),
            ("simulate", "ends in .csv"),
        ],
    )
    def test_out_help_names_the_format_written(self, capsys, command, written_as):
        assert main([command, "--help"]) == 0
        assert written_as in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "3", "--alpha", "0.6", "--schedule", "off-after-0",
             "--horizon", "3000"],
            ["bounds", "--n", "3", "--alpha", "0.6", "--delta-max", "3000"],
        ],
    )
    def test_a_reader_that_stops_early_is_no_error(self, argv):
        # each writes hundreds of kB, more than a pipe holds, so the writer
        # is still writing when the reader closes its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "onoffpriv.cli", *argv], env=fresh_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")

    def test_ctrl_c_exits_130_with_no_traceback(self, tmp_path):
        # a hundred million gaps: the command is still writing when the
        # interrupt comes. The child takes SIGINT's default action, as under
        # an interactive shell, even if this process ignores SIGINT
        out = tmp_path / "b.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "onoffpriv.cli", "bounds", "--n", "3",
             "--alpha", "0.6", "--delta-max", "100000000", "--out", str(out)],
            env=fresh_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 120
            while not (out.exists() and out.stat().st_size > 10_000):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 130, err
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert "Traceback" not in err
        assert out.read_text().startswith("delta,")

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("bounds", "sweep-alpha", "scheme", "verify", "lp", "simulate"):
            assert cmd in out

    @settings(max_examples=40, deadline=None)
    @given(command=hst.sampled_from(list(RANDOM_ARGV_FLAGS)), data=hst.data())
    def test_commands_survive_random_argv(self, command, data):
        # each flag the command has is left out (1 in 4), given any value of
        # its type (1 in 4) or given a well-formed value
        argv = [command]
        for name in RANDOM_ARGV_FLAGS[command]:
            valid, wide = RANDOM_ARGV_VALUES[name]
            pick = data.draw(hst.integers(0, 3), label=f"{name} kind")
            if pick == 0:
                continue
            value = data.draw(wide if pick == 1 else valid, label=name)
            if name == "n" and command not in ("lp", "bounds"):
                value = min(value, 7)  # keeps the scheme builds small
            # --flag=VALUE keeps argparse from reading "-inf" as an option
            argv.append(f"--{name.replace('_', '-')}={value}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    def test_memory_error_is_a_config_error(self, capsys, monkeypatch):
        def refuse(n, alpha):
            raise MemoryError(f"cannot hold a {n}-state chain")

        monkeypatch.setattr("onoffpriv.cli.symmetric_chain", refuse)
        code, out, err = run_cli(
            capsys, "bounds", "--n", "4", "--alpha", "0.5", "--delta", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: MemoryError: cannot hold a 4-state chain\n"
