"""Every CSV the package writes, against row-by-row f-string writers.

write_csv formats whole columns in numpy blocks and falls back to the
scalar f-string for the cells it cannot decide exactly.  The references
below write one row at a time with str.format, whose "{:.6f}" and "{}" are
the f-strings' f"{v:.6f}" and f"{v}", so any byte that differs is a
formatter fault.
"""

import json
import re

import numpy as np
import pytest

import nanoflow.cli as cli
import nanoflow.vasculature as vasculature
from nanoflow.benchmark import TargetEvent, build_traces, dense_locations, export_events_csv
from nanoflow.config import load_config
from nanoflow.simcore import _ROW, RECORD, export_energy_csv, export_raw_csv, run_simulation
from nanoflow.vasculature import (CSV_ROWS, build_reference_vasculature,
                                  export_trace_csv, write_csv)

GRAPH = build_reference_vasculature()
INF, NAN = float("inf"), float("nan")
# signed zeros, sub-microunit values, decimal ties, values on both sides of
# a rounding boundary, the 2**52 / 1e6 edge, and the non-finite values
AWKWARD = [0.0, -0.0, -1e-9, 1e-9, 1e-7, -1e-7, 5e-7, -5e-7, 2.5e-6, -2.5e-6,
           float(np.nextafter(0.5e-6, 1)), 1.0000005, -2.0000005, 0.1, 1 / 3,
           123.4567895, -123.4567895, 1e9 / 3, -123456.7890125, 2 ** 52 / 1e6,
           float(np.nextafter(2 ** 52 / 1e6, 0)), -2 ** 53 / 1e6, 1e300, -1e300,
           INF, -INF, NAN]
# cells the fast path must hand to the f-string: not finite, too large, exact ties
FALLBACK = [NAN, INF, -INF, 1e300, -1e300, 1 / 128, -3 / 128]


def _write(path, header, rows, fmt):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(fmt.format(*row) + "\n")


def _same_bytes(tmp_path, export, data, header, rows, fmt):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export(data, str(got))
    _write(want, header, rows, fmt)
    _assert_same_lines(got.read_bytes(), want.read_bytes())
    return got.read_bytes()


def _assert_same_lines(got: bytes, want: bytes):
    # names the first differing line instead of diffing megabytes
    pairs = zip(got.split(b"\n"), want.split(b"\n"))
    first = next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), None)
    assert first is None and len(got) == len(want), f"first differing line: {first}"


@pytest.fixture(scope="module")
def engine_output():
    plan = load_config(overrides={"device_count": 16, "duration_s": 300.0}).plan()
    (traces,) = build_traces(GRAPH, plan, [(4, (4,))])
    return run_simulation(GRAPH, traces, plan, (0.0, 7.0, -1.5), energy_rows=True)


def test_energy_csv_bytes_match_the_row_by_row_writer(tmp_path, engine_output):
    rows = np.concatenate([engine_output.energy_rows,
                           np.array([(v, 2 ** 62 + i, -v, i % 2) for i, v in enumerate(AWKWARD)],
                                    _ROW)])
    assert len(rows) > CSV_ROWS   # more than one block
    out = _same_bytes(tmp_path, export_energy_csv, rows, "time_s,device_mac,energy_pj,powered",
                      rows.tolist(), "{:.6f},{},{:.6f},{}")
    assert out.count(b"\n") == 1 + len(rows)


def test_raw_csv_bytes_match_the_row_by_row_writer(tmp_path, engine_output):
    records = np.concatenate([engine_output.records,
                              np.array([(v, i, -v, 1) for i, v in enumerate(AWKWARD)], RECORD)])
    assert any(engine_output.records.event_bit)
    _same_bytes(tmp_path, export_raw_csv, records,
                "report_time_s,device_mac,circulation_time_s,event_bit",
                records.tolist(), "{:.6f},{},{:.6f},{}")


def test_events_csv_bytes_match_the_row_by_row_writer(tmp_path):
    events = dense_locations(GRAPH, 1368) + [
        TargetEvent(10 ** 12 + i, np.array([v, -v, AWKWARD[-1 - i]]), i, i % 3)
        for i, v in enumerate(AWKWARD)]
    _same_bytes(tmp_path, export_events_csv, events,
                "event_id,x_cm,y_cm,z_cm,region_id,region_type",
                [(ev.id, *ev.position, ev.region_id, ev.region_type) for ev in events],
                "{},{:.6f},{:.6f},{:.6f},{},{}")


def test_convergence_csv_bytes_match_the_row_by_row_writer(tmp_path, monkeypatch):
    real, written = cli.convergence_curve, []

    def curve_and_awkward_rows(dense_results, name, sizes, **kwargs):
        rows = real(dense_results, name, sizes, **kwargs)
        rows += [(10 ** 6 + i, v, -v) for i, v in enumerate(AWKWARD)]
        written.extend((name, *row) for row in rows)
        return rows

    monkeypatch.setattr(cli, "convergence_curve", curve_and_awkward_rows)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"benchmark": {"dense_size": 94}}))
    assert cli.main(["convergence", "--config", str(cfgp), "--devices", "2", "--duration-s",
                     "30", "--strategy", "srs,rgs", "--k", "20,94", "--workers", "1",
                     "--out", str(tmp_path / "conv")]) == 0
    want = tmp_path / "want.csv"
    _write(want, "strategy,k,region_acc,mean_err_cm", written, "{},{},{:.6f},{:.6f}")
    _assert_same_lines((tmp_path / "conv" / "convergence.csv").read_bytes(), want.read_bytes())
    per_strategy = 2 + len(AWKWARD)   # two sizes, then the hand-placed rows
    assert [row[0] for row in written] == ["srs"] * per_strategy + ["rgs"] * per_strategy


def test_empty_inputs_write_the_header_only(tmp_path):
    # run_simulation(..., energy_rows=False) leaves an empty _ROW array: the header alone
    for export, empty, header in [
            (export_energy_csv, np.empty(0, _ROW), "time_s,device_mac,energy_pj,powered"),
            (export_raw_csv, np.empty(0, RECORD),
             "report_time_s,device_mac,circulation_time_s,event_bit"),
            (export_trace_csv, [], "time_s,device_id,x_cm,y_cm,z_cm,vessel_id"),
            (export_events_csv, [], "event_id,x_cm,y_cm,z_cm,region_id,region_type")]:
        path = tmp_path / "empty.csv"
        export(empty, str(path))
        assert path.read_bytes() == header.encode() + b"\n"


def _fuzz_values() -> np.ndarray:
    rng = np.random.default_rng(15)
    # decimal literals that sit half way between two six-digit decimals
    halfway = [float(f"{a}.{b:06d}5") for a, b in zip(rng.integers(0, 10 ** 4, 50_000).tolist(),
                                                       rng.integers(0, 10 ** 6, 50_000).tolist())]
    k = rng.integers(0, 10 ** 10, 20_000)
    beside_ties = [np.nextafter((k + 0.5) / 1e6, np.inf), np.nextafter((k + 0.5) / 1e6, -np.inf)]
    edge = 2 ** 52 / 1e6
    near_edge = [edge * (1 + i * 2.0 ** -52) for i in range(-200, 200)]
    values = np.concatenate([halfway, *beside_ties,
                             np.arange(-20_000, 20_000) / 128,   # exact binary ties
                             near_edge, AWKWARD,
                             rng.normal(0, 1, 10_000), rng.normal(0, 1e6, 10_000),
                             rng.uniform(-1e-5, 1e-5, 5_000), rng.uniform(4e9, 9e12, 5_000)])
    return np.concatenate([values, -values])


def test_float_cells_match_the_scalar_format(tmp_path):
    values = _fuzz_values()
    assert len(values) >= 200_000
    path = tmp_path / "fuzz.csv"
    write_csv(str(path), "v", [(values,)])
    got = path.read_text().split("\n")
    assert got[0] == "v" and got[-1] == ""
    want = [f"{v:.6f}" for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got[1:-1], want) if g != w]
    assert len(got) - 2 == len(want) and not bad, f"{len(bad)} cells differ, e.g. {bad[:3]}"


def test_integer_and_text_columns_match_str(tmp_path):
    rng = np.random.default_rng(3)
    ints = np.concatenate([rng.integers(-10 ** 18, 10 ** 18, 5_000), [0, -1, 1, 9, 10, 99, 100],
                           [2 ** 63 - 1, -2 ** 63 + 1]])
    names = np.array(["srs", "ssrs", "crs", "rgs", "scs"])[np.arange(len(ints)) % 5]
    path = tmp_path / "cols.csv"
    x = ints / 7
    write_csv(str(path), "k,name,x", [(ints, names, x)])
    want = "k,name,x\n" + "".join(f"{k},{n},{v:.6f}\n"
                                  for k, n, v in zip(ints.tolist(), names.tolist(), x.tolist()))
    _assert_same_lines(path.read_bytes(), want.encode())
    # the ends of the uint64 and int64 ranges, and a narrow signed type
    wide = (np.array([2 ** 64 - 1, 2 ** 63, 5, 0], np.uint64),
            np.array([-2 ** 63, 2 ** 63 - 1, -5, 0]), np.array([-128, 127, -1, 0], np.int8))
    write_csv(str(path), "a,b,c", [wide])
    want = "a,b,c\n" + "".join(f"{a},{b},{c}\n" for a, b, c in zip(*(c.tolist() for c in wide)))
    _assert_same_lines(path.read_bytes(), want.encode())
    assert path.read_text().split("\n")[1] == "18446744073709551615,-9223372036854775808,-128"


@pytest.mark.parametrize("columns, lengths", [((np.arange(3.0), np.arange(5)), "[3, 5]"),
                                              ((np.arange(3.0), np.arange(1)), "[1, 3]")])
def test_unequal_columns_raise_before_the_file_opens(tmp_path, columns, lengths):
    # a 1-row column must not broadcast over the block; a good block first
    # shows the check runs before anything is written
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match=re.escape(lengths)):
        write_csv(str(path), "a,b", [(np.arange(2.0), np.arange(2)), columns])
    assert not path.exists()


def _row_pass(n: int, all_fallback: bool = False) -> list:
    """Columns for the seam tests: floats, ints of 1 to 19 digits, text and bool."""
    i = np.arange(n)
    lo = 10 ** (i % 19)   # 1 to 19 digits, in turn
    k = lo + np.random.default_rng(n).integers(0, 2 ** 62, n) % np.minimum(9 * lo, 2 ** 63 - 1 - lo)
    k *= np.where(i % 3, 1, -1)
    a, b = np.sin(i) * 10.0 ** (i % 9 - 3), np.cos(i) * 1e3
    for at in {0, n - 1, CSV_ROWS - 1, CSV_ROWS} & set(range(n)):   # first and last of a pass
        a[at], b[at] = FALLBACK[at % 7], FALLBACK[(at + 3) % 7]
    if all_fallback:
        a, b = np.resize(FALLBACK, n), np.resize(FALLBACK[::-1], n)
    return [a, k, np.array(["srs", "ssrs", "", "crs"])[i % 4], i % 5 == 1, b]


@pytest.mark.parametrize("n, all_fallback", [(1, False), (CSV_ROWS, False),
                                             (CSV_ROWS + 1, False), (50, True)])
def test_pass_seams_match_the_row_by_row_writer(tmp_path, n, all_fallback):
    columns = _row_pass(n, all_fallback)
    assert {len(str(abs(v))) for v in columns[1].tolist()} == set(range(1, 20)) or n < 19
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), "a,k,name,flag,b", [columns])
    _write(want, "a,k,name,flag,b", zip(*(c.tolist() for c in columns)), "{:.6f},{},{},{},{:.6f}")
    _assert_same_lines(got.read_bytes(), want.read_bytes())


def test_no_cell_of_the_engine_outputs_takes_the_scalar_fallback(tmp_path, monkeypatch,
                                                                 engine_output):
    # the exact fast path must cover real outputs; a fallback cell costs a
    # Python f-string, so a loosened `odd` would silently slow every export
    real, cells = vasculature._fallback_cells, []

    def counted(block, x, odd):
        cells.append(int(odd.sum()))
        return real(block, x, odd)

    monkeypatch.setattr(vasculature, "_fallback_cells", counted)
    write_csv(str(tmp_path / "awkward.csv"), "v", [(np.array(AWKWARD),)])
    assert sum(cells) > 0   # the spy sees fallback cells
    cells.clear()
    export_energy_csv(engine_output.energy_rows, str(tmp_path / "energy.csv"))
    cfg = load_config(overrides={"device_count": 16})
    (traces,) = build_traces(GRAPH, cfg.plan(), [(cfg.seed, (cfg.seed,))])
    export_trace_csv(traces, str(tmp_path / "trace.csv"))
    assert len(engine_output.energy_rows) > CSV_ROWS and sum(map(len, traces)) > 16 * 3000
    assert cells == []
