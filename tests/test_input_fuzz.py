"""Mutated input files through the command line: a stream file whose
records are edited, dropped, duplicated, swapped or replaced by raw bytes,
and a distance table whose cells, rows and columns are edited, go through
`cli.main` under `run` and `verify`, for both structures, with `--prescan`
and with declared bounds. Bad input must end in a typed error, so the
only outcomes are exit codes 0, 1 (an error) and 2 (a failed
verification); any exception escaping `cli.main` fails the test.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from dynkcenter import adversarial_quadratic_stream, cli, core, random_lifetime_stream

EUCLIDEAN = random_lifetime_stream(10, 2, 6, 1)
MATRIX = adversarial_quadratic_stream(4, 1.0)  # 8 points on an 8 x 8 table


KEYS = st.sampled_from(["id", "t_arr", "t_del", "coords", "extra"])
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)
INDEX = st.integers(0, 15)  # taken modulo the current length
RECORD_EDITS = st.one_of(
    st.tuples(st.just("set"), INDEX, KEYS, VALUES),
    st.tuples(st.just("drop-key"), INDEX, KEYS),
    st.tuples(st.just("raw"), INDEX, st.binary(max_size=24)),
    st.tuples(st.just("cut"), INDEX, st.integers(0, 60)),
    st.tuples(st.just("dup"), INDEX),
    st.tuples(st.just("swap"), INDEX, INDEX),
    st.tuples(st.just("delete"), INDEX),
)
CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-1", "0", "1e308", "1e-320", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
TABLE_EDITS = st.one_of(
    st.tuples(st.just("cell"), INDEX, INDEX, CELLS),
    st.tuples(st.just("drop-row"), INDEX),
    st.tuples(st.just("drop-cell"), INDEX),
    st.tuples(st.just("add-cell"), INDEX, CELLS),
)


def stream_bytes(text, edits):
    """The stream file after edits, each row a record or a raw line."""
    rows = [json.loads(line) for line in text.splitlines()]
    for edit in edits:
        if not rows:
            break
        kind, i = edit[0], edit[1] % len(rows)
        row = rows[i]
        if kind == "set" and isinstance(row, dict):
            row[edit[2]] = edit[3]
        elif kind == "drop-key" and isinstance(row, dict):
            row.pop(edit[2], None)
        elif kind == "raw":
            rows[i] = edit[2]
        elif kind == "cut":
            text = row if isinstance(row, bytes) else json.dumps(row).encode()
            rows[i] = text[: edit[2]]
        elif kind == "dup":
            rows.insert(i, row if isinstance(row, bytes) else dict(row))
        elif kind == "swap":
            j = edit[2] % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "delete":
            del rows[i]
    return b"\n".join(r if isinstance(r, bytes) else json.dumps(r).encode() for r in rows)


def table_text(text, edits):
    """The CSV distance table after edits to its cells, rows and columns."""
    cells = [line.split(",") for line in text.splitlines()]
    for edit in edits:
        if not cells:
            break
        kind, i = edit[0], edit[1] % len(cells)
        if kind == "cell" and cells[i]:
            cells[i][edit[2] % len(cells[i])] = edit[3]
        elif kind == "drop-row":
            del cells[i]
        elif kind == "drop-cell" and cells[i]:
            cells[i].pop()
        elif kind == "add-cell":
            cells[i].append(edit[2])
    return "\n".join(",".join(row) for row in cells) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["run", "verify"]),
    algo=st.sampled_from(["two", "six"]),
    matrix=st.booleans(),
    bounds=st.sampled_from([None, ("0.01", "2"), ("0.5", "0.6"), ("1e-9", "1e9")]),
    k=st.integers(1, 3),
    epsilon=st.sampled_from(["0.5", "1", "3"]),
    record_edits=st.lists(RECORD_EDITS, max_size=3),
    table_edits=st.lists(TABLE_EDITS, max_size=3),
)
def test_mutated_inputs_exit_0_1_or_2(command, algo, matrix, bounds, k, epsilon,
                                      record_edits, table_edits):
    gen = MATRIX if matrix else EUCLIDEAN
    with tempfile.TemporaryDirectory() as tmp:
        stream = pathlib.Path(tmp, "s.jsonl")
        core.save_stream_jsonl(gen.stream.points, stream)
        stream.write_bytes(stream_bytes(stream.read_text(), record_edits))
        argv = [command, "--algo", algo, "--k", str(k), "--epsilon", epsilon,
                "--stream", str(stream), "--queries", "every"]
        if matrix:
            table = pathlib.Path(tmp, "t.csv")
            core.save_matrix_csv(gen.metric.table, table)
            table.write_text(table_text(table.read_text(), table_edits), encoding="utf-8")
            argv += ["--metric", f"matrix:{table}"]
        argv += ["--prescan"] if bounds is None else ["--dmin", bounds[0], "--dmax", bounds[1]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    assert rc in (0, 1, 2)
