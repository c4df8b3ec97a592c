import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kantorovich
from kantorovich import Euclidean, GroundSpace, second_order_from_json, transport
from kantorovich.cli import main
from kantorovich.points import distinct_points

FIX = Path(__file__).parent / "fixtures"

# the golden command list: each must produce byte-identical output across runs
GOLDEN_COMMANDS = [
    ["dist", str(FIX / "delta0.json"), str(FIX / "delta3.json"), "--metric", "euclidean"],
    ["dist", str(FIX / "mu01.json"), str(FIX / "eta12.json"), "--metric", "euclidean"],
    ["dist", str(FIX / "label_a.json"), str(FIX / "label_b.json"), "--metric", str(FIX / "table_metric.json")],
    ["dist", str(FIX / "mu01.json"), str(FIX / "eta12.json"), "--metric", '{"kind": "manhattan", "cap": 0.5}'],
    ["dist", str(FIX / "mu01.json"), str(FIX / "eta12.json"), "--metric", '{"kind": "max", "of": [{"kind": "euclidean"}, {"kind": "discrete"}]}'],
    ["coupling", str(FIX / "mu01.json"), str(FIX / "eta12.json"), "--metric", "euclidean"],
    ["barycenter", str(FIX / "mu_r2.json")],
    ["flatten", str(FIX / "m2_delta_mu.json")],
    ["dist2", str(FIX / "m2_delta0.json"), str(FIX / "m2_pair.json"), "--metric", "euclidean"],
    ["lift", str(FIX / "mu_r2a.json"), str(FIX / "mu_r2b.json"), "--metric", '{"kind": "pullback", "coords": [0], "inner": {"kind": "euclidean"}}'],
]

# golden commands at scale, apart from the ten above that the acceptance
# criterion counts: 8 inner measures of 50 3-D atoms with exact repeats and
# atoms 1e-13 apart (220 atoms after merging), 400 3-D atoms, some merging,
# and a coupling of two 12-atom uniform measures on a 6x6 integer grid that
# share 3 atoms, whose 9x9 residual the network simplex pivots through
SCALE_COMMANDS = [
    ["flatten", str(FIX / "m2_flatten_8x50.json")],
    ["barycenter", str(FIX / "mu_r3_400.json")],
    ["coupling", str(FIX / "grid12_a.json"), str(FIX / "grid12_b.json"), "--metric", "manhattan"],
]


def run_to_bytes(argv, tmp_path, tag) -> bytes:
    out = tmp_path / f"{tag}.json"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


def test_golden_commands_are_deterministic(tmp_path):
    for k, argv in enumerate(GOLDEN_COMMANDS):
        first = run_to_bytes(argv, tmp_path, f"{k}a")
        second = run_to_bytes(argv, tmp_path, f"{k}b")
        assert first == second, f"command {argv} not byte-identical"


def test_dist_values(tmp_path):
    payloads = [
        json.loads(run_to_bytes(argv, tmp_path, f"v{k}"))
        for k, argv in enumerate(GOLDEN_COMMANDS[:5])
    ]
    assert payloads[0] == {"cost": 3.0}
    assert payloads[1]["cost"] == pytest.approx(1.0)
    assert payloads[2]["cost"] == pytest.approx(2.5)
    # capped manhattan lets the crossing route win: (0.5 + 0) / 2
    assert payloads[3]["cost"] == pytest.approx(0.25)
    assert payloads[4]["cost"] == pytest.approx(1.0)


def test_dist_equals_coupling_recomputation(tmp_path):
    dist = json.loads(run_to_bytes(GOLDEN_COMMANDS[1], tmp_path, "d"))
    coup = json.loads(run_to_bytes(GOLDEN_COMMANDS[5], tmp_path, "c"))
    # recompute the cost from the emitted coupling
    total = 0.0
    for i, x in enumerate(coup["rows"]):
        for j, y in enumerate(coup["cols"]):
            total += coup["gamma"][i][j] * abs(x[0] - y[0])
    assert total == pytest.approx(coup["cost"], abs=1e-9)
    assert dist["cost"] == pytest.approx(coup["cost"], abs=1e-9)


def test_barycenter_and_flatten_payloads(tmp_path):
    bary = json.loads(run_to_bytes(GOLDEN_COMMANDS[6], tmp_path, "b"))
    assert bary == [2.0, 1.0]
    flat = json.loads(run_to_bytes(GOLDEN_COMMANDS[7], tmp_path, "f"))
    # flattening a Dirac-at-a-measure echoes the measure
    assert flat == json.loads((FIX / "m2_delta_mu.json").read_text())["atoms"][0]["measure"]


def test_dist2_and_lift_values(tmp_path):
    d2 = json.loads(run_to_bytes(GOLDEN_COMMANDS[8], tmp_path, "d2"))
    assert d2["cost"] == pytest.approx(1.5)
    lift = json.loads(run_to_bytes(GOLDEN_COMMANDS[9], tmp_path, "l"))
    assert lift == {"p_tau": 0.0}


def _inner(points, weights):
    return {"atoms": [{"point": p, "w": w} for p, w in zip(points, weights)]}


def test_dist2_shares_the_inner_measures_written_in_both_files(tmp_path, monkeypatch):
    # A and B are written out in both files, so each load makes its own
    # copies; they equal as atoms do and keep their common outer mass (0.3
    # and 0.1), which leaves the three rows and the column of D to solve
    A = _inner([[0, 0], [1, 0], [0, 1]], [0.5, 0.25, 0.25])
    B = _inner([[2, 2], [3, 1], [2, 0]], [0.2, 0.3, 0.5])
    C = _inner([[4, 0], [0, 4], [1, 1]], [0.6, 0.2, 0.2])
    D = _inner([[3, 3], [1, 3], [2, 1]], [0.4, 0.4, 0.2])
    files = []
    for tag, parts in (("M", [(A, 0.5), (B, 0.25), (C, 0.25)]), ("N", [(B, 0.1), (A, 0.3), (D, 0.6)])):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({"atoms": [{"measure": m, "w": w} for m, w in parts]}))
        files.append(str(path))
    solves = []
    solve = transport.solve_transport

    def recorded(C, a, b):
        solves.append(C.shape)
        return solve(C, a, b)

    monkeypatch.setattr(transport, "solve_transport", recorded)
    out = json.loads(run_to_bytes(["dist2", *files, "--metric", "euclidean"], tmp_path, "d2"))
    # the inner solves come first, and the outer one last
    assert solves[-1] == (3, 1)
    gamma = np.array(out["gamma"])
    assert gamma[0, 1] == 0.3 and gamma[1, 0] == 0.1
    assert np.abs(gamma.sum(axis=1) - [0.5, 0.25, 0.25]).max() <= 1e-12
    assert np.abs(gamma.sum(axis=0) - [0.1, 0.3, 0.6]).max() <= 1e-12
    # the whole outer solve of the inner-distance matrix
    M, N = (second_order_from_json(json.loads(Path(f).read_text())) for f in files)
    space = GroundSpace(distinct_points([p for m in (*M.support, *N.support) for p in m.support]), Euclidean())
    dists = np.array([[transport.kantorovich(space, m, n).cost for n in N.support] for m in M.support])
    assert abs(out["cost"] - solve(dists, M.weights, N.weights)[0]) <= transport.COST_TOL


def test_laws_command_deterministic_and_green(tmp_path):
    argv = ["laws", "--seed", "42", "--samples", "3"]
    first = run_to_bytes(argv, tmp_path, "laws_a")
    second = run_to_bytes(argv, tmp_path, "laws_b")
    assert first == second
    reports = json.loads(first)
    assert reports and all(r["pass"] for r in reports)
    assert {"law", "samples", "max_deviation", "pass"} == set(reports[0])


def test_laws_full_run_green(tmp_path):
    # the documented full property run: 200 samples per law, exit 0, and the
    # bytes captured before the law runners were folded into one table
    out = tmp_path / "laws200.json"
    assert main(["laws", "--seed", "42", "--samples", "200", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert all(r["pass"] for r in reports)
    assert out.read_bytes() == (FIX / "golden" / "laws_seed42_samples200.json").read_bytes()


def test_laws_failure_exit_code(tmp_path):
    # an absurdly tight tolerance forces honest law failures
    out = tmp_path / "laws_fail.json"
    code = main(["laws", "--seed", "1", "--samples", "2", "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    assert any(not r["pass"] for r in json.loads(out.read_text()))


@pytest.mark.parametrize("flag", ["--seed", "--samples"])
@pytest.mark.parametrize("argv", GOLDEN_COMMANDS[4:], ids=lambda argv: argv[0])
def test_law_flags_are_rejected_by_other_commands(argv, flag, capsys):
    # every command used to accept and ignore them
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} 1" in captured.err and captured.out == ""


def test_laws_takes_seed_samples_tol_and_out(tmp_path):
    out = tmp_path / "laws.json"
    argv = ["laws", "--seed", "42", "--samples", "2", "--tol", "1e-6", "--out", str(out)]
    assert main(argv) == 0
    reports = json.loads(out.read_text())
    assert reports and all(r["samples"] == 2 and r["pass"] for r in reports)


def test_invalid_input_exits_2(capsys):
    bad = str(FIX / "bad_weights.json")
    ok = str(FIX / "delta0.json")
    assert main(["dist", bad, ok, "--metric", "euclidean"]) == 2
    assert "sum" in capsys.readouterr().err
    assert main(["dist", ok, ok, "--metric", "nonsense {{{"]) == 2
    assert main(["dist", str(FIX / "missing.json"), ok, "--metric", "euclidean"]) == 2
    assert main(["barycenter", str(FIX / "label_a.json")]) == 2
    assert "coordinate" in capsys.readouterr().err


def test_stdout_emission(capsys):
    assert main(["dist", str(FIX / "delta0.json"), str(FIX / "delta3.json"), "--metric", "euclidean"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"cost": 3.0}
    assert out.endswith("\n")


GOLDEN = FIX / "golden"


def test_golden_bytes_match_captured_output(tmp_path):
    # cmd<k>.json is the output of GOLDEN_COMMANDS[k]; captured once and
    # kept byte for byte, so a change of any emitted digit shows here
    for k, argv in enumerate(GOLDEN_COMMANDS):
        got = run_to_bytes(argv, tmp_path, f"g{k}")
        assert got == (GOLDEN / f"cmd{k}.json").read_bytes(), f"command {argv} changed its output"
    got = run_to_bytes(["laws", "--seed", "42", "--samples", "20"], tmp_path, "glaws")
    assert got == (GOLDEN / "laws_seed42_samples20.json").read_bytes()


def test_golden_bytes_at_scale(tmp_path):
    # cmd<10 + k>.json is the output of SCALE_COMMANDS[k], captured like the above
    for k, argv in enumerate(SCALE_COMMANDS, start=len(GOLDEN_COMMANDS)):
        got = run_to_bytes(argv, tmp_path, f"g{k}")
        assert got == (GOLDEN / f"cmd{k}.json").read_bytes(), f"command {argv} changed its output"


def test_golden_grid_coupling_pivots(tmp_path, monkeypatch):
    # the fixture pins a pivoting plan only while its solve takes more than
    # the one pricing round of an optimal start
    calls = 0
    first_eligible = transport._first_eligible_mask

    def counting(*args):
        nonlocal calls
        calls += 1
        return first_eligible(*args)

    monkeypatch.setattr(transport, "_first_eligible_mask", counting)
    run_to_bytes(SCALE_COMMANDS[2], tmp_path, "grid")
    assert calls > 1


def _write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_nan_weight_exits_2(tmp_path, capsys):
    bad = _write(tmp_path, "nan.json", '{"atoms": [{"point": [0], "w": NaN}]}')
    ok = str(FIX / "delta0.json")
    assert main(["dist", bad, ok, "--metric", "euclidean"]) == 2
    captured = capsys.readouterr()
    assert "non-finite weight" in captured.err and captured.out == ""
    bad2 = _write(
        tmp_path,
        "nan2.json",
        '{"atoms": [{"measure": {"atoms": [{"point": [1], "w": 1.0}]}, "w": NaN},'
        ' {"measure": {"atoms": [{"point": [2], "w": 1.0}]}, "w": 0.5}]}',
    )
    assert main(["dist2", str(FIX / "m2_delta0.json"), bad2, "--metric", "euclidean"]) == 2
    assert "non-finite weight" in capsys.readouterr().err


def test_emit_rejects_non_finite_numbers():
    from kantorovich.cli import _emit

    with pytest.raises(ValueError):
        _emit({"cost": float("nan")})


@pytest.mark.parametrize(
    "atom", ['{"point": true, "w": 1.0}', '{"point": {}, "w": 1.0}', '{"point": [0], "w": null}']
)
def test_malformed_json_atom_exits_2(tmp_path, capsys, atom):
    bad = _write(tmp_path, "bad_atom.json", f'{{"atoms": [{atom}]}}')
    ok = str(FIX / "delta0.json")
    assert main(["dist", bad, ok, "--metric", "euclidean"]) == 2
    assert "atom 0" in capsys.readouterr().err


def test_laws_zero_samples_exits_2(capsys):
    assert main(["laws", "--seed", "42", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert "samples" in captured.err and captured.out == ""


def test_nan_table_distance_exits_2_without_hanging(tmp_path):
    # the solver used to loop forever on a NaN cost, so this runs in a
    # subprocess with a timeout: a regression fails instead of hanging
    ab1 = _write(tmp_path, "ab1.json", '{"atoms": [{"point": "a", "w": 0.7}, {"point": "b", "w": 0.3}]}')
    ab2 = _write(tmp_path, "ab2.json", '{"atoms": [{"point": "a", "w": 0.2}, {"point": "b", "w": 0.8}]}')
    metric = '{"kind": "table", "points": ["a", "b"], "d": [[0, NaN], [NaN, 0]]}'
    env = {**os.environ, "PYTHONPATH": str(Path(kantorovich.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kantorovich.cli", "dist", ab1, ab2, "--metric", metric],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert "finite" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("coordinate", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("w", ["1.0", "0.0"])
def test_non_finite_coordinate_exits_2(tmp_path, capsys, coordinate, w):
    # a zero-weight atom is dropped, but its point must still be valid; the
    # loader's error names the atom and the point
    atoms = f'{{"point": [0, {coordinate}], "w": {w}}}, {{"point": [0, 0], "w": {1.0 - float(w)}}}'
    bad = _write(tmp_path, "bad_point.json", f'{{"atoms": [{atoms}]}}')
    ok = str(FIX / "delta0.json")
    assert main(["dist", bad, ok, "--metric", "euclidean"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: atom 0: coordinates must be finite, got (0.0, {float(coordinate)!r})\n"
    assert captured.out == ""


def test_null_outer_weight_exits_2(tmp_path, capsys):
    bad = _write(
        tmp_path,
        "null_w.json",
        '{"atoms": [{"measure": {"atoms": [{"point": [1], "w": 1.0}]}, "w": null}]}',
    )
    assert main(["flatten", bad]) == 2
    assert "atom 0" in capsys.readouterr().err
    assert main(["dist2", str(FIX / "m2_delta0.json"), bad, "--metric", "euclidean"]) == 2
    assert "atom 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_non_finite_or_negative_tol_exits_2(tmp_path, capsys, tol):
    # with --tol nan a measure of mass 5 was accepted; laws --tol inf passed
    # every law and laws --tol nan failed every one with deviation 0
    five = _write(tmp_path, "five.json", '{"atoms": [{"point": [0], "w": 2.0}, {"point": [1], "w": 3.0}]}')
    ok = str(FIX / "delta0.json")
    for argv in (["dist", five, ok, "--metric", "euclidean"], ["laws", "--samples", "1"]):
        assert main(argv + [f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err and captured.out == ""
    # zero is a valid tolerance
    assert main(["dist", ok, ok, "--metric", "euclidean", "--tol", "0"]) == 0


def test_long_inline_metric_spec_is_not_taken_for_a_file(tmp_path, capsys):
    # a 12-point table spec is longer than a file name may be; probing it as
    # a path raised OSError (File name too long), a traceback with exit 1
    labels = [f"p{k}" for k in range(12)]
    table = [[0 if i == j else 1 for j in range(12)] for i in range(12)]
    spec = json.dumps({"kind": "table", "points": labels, "d": table})
    assert len(spec) > 255
    a = _write(tmp_path, "a.json", '{"atoms": [{"point": "p0", "w": 0.5}, {"point": "p11", "w": 0.5}]}')
    b = _write(tmp_path, "b.json", '{"atoms": [{"point": "p0", "w": 1.0}]}')
    assert main(["dist", a, b, "--metric", spec]) == 0
    assert json.loads(capsys.readouterr().out) == {"cost": 0.5}


@pytest.mark.parametrize(
    "spec, field",
    [
        ('{"kind": "euclidean", "cap": [1]}', "cap"),
        ('{"kind": []}', "kind"),
        ('{"kind": "pullback", "coords": [[0]], "inner": "euclidean"}', "coords"),
        ('{"kind": "max", "of": 5}', "of"),
        ('{"kind": "table", "points": 5, "d": [[0]]}', "points"),
        # these exited 0: a string or an object read as its characters or keys
        ('{"kind": "table", "points": "ab", "d": [[0, 2], [2, 0]]}', "points"),
        ('{"kind": "table", "points": {"a": 0, "b": 1}, "d": [[0, 2], [2, 0]]}', "points"),
        # and a field the kind does not read was ignored
        ('{"kind": "euclidean", "cpa": 1}', "cpa"),
        ('{"kind": "table", "points": ["a", "b"], "d": [[0, 2], [2, 0]], "cap": 1, "of": []}', "of"),
        ('{"kind": "pullback", "coords": [0], "inner": "euclidean", "points": ["a"]}', "points"),
        ('{"kind": "max", "of": [{"kind": "euclidean", "inner": "discrete"}]}', "inner"),
        ('{}', "kind"),
    ],
)
def test_malformed_metric_spec_exits_2(capsys, spec, field):
    # the first five ended in a TypeError traceback with exit 1
    ok = str(FIX / "delta0.json")
    assert main(["dist", ok, ok, "--metric", spec]) == 2
    captured = capsys.readouterr()
    assert f"'{field}'" in captured.err and captured.out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    # a missing directory ended in a FileNotFoundError traceback with exit 1
    ok = str(FIX / "delta0.json")
    out = tmp_path / "missing" / "x.json"
    assert main(["dist", ok, ok, "--metric", "euclidean", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("coords", ["[0.7]", "[true]", "[0, false]", "[Infinity]"])
def test_lift_rejects_non_integer_projection_indices(coords, capsys):
    # int() truncated 0.7 to 0 and read true as 1: p_tau 1.0 and 4.0, exit 0
    spec = f'{{"kind": "pullback", "coords": {coords}, "inner": {{"kind": "euclidean"}}}}'
    argv = ["lift", str(FIX / "mu_r2a.json"), str(FIX / "mu_r2b.json"), "--metric", spec]
    assert main(argv) == 2
    assert "integers" in capsys.readouterr().err


def test_lift_accepts_integral_projection_indices(tmp_path):
    outs = set()
    for coords in ("[1]", "[1.0]"):
        spec = f'{{"kind": "pullback", "coords": {coords}, "inner": {{"kind": "euclidean"}}}}'
        argv = ["lift", str(FIX / "mu_r2a.json"), str(FIX / "mu_r2b.json"), "--metric", spec]
        outs.add(run_to_bytes(argv, tmp_path, "lift"))
    assert len(outs) == 1


def test_nan_cap_in_a_metric_spec_exits_2(capsys):
    argv = ["dist", str(FIX / "mu01.json"), str(FIX / "eta12.json")]
    assert main(argv + ["--metric", '{"kind": "euclidean", "cap": NaN}']) == 2
    assert "cap must be a positive real" in capsys.readouterr().err
    assert main(argv + ["--metric", '{"kind": "euclidean", "cap": Infinity}']) == 0
    assert json.loads(capsys.readouterr().out) == {"cost": 1.0}


# JSON values that are not numbers were read through float() or int(): each
# of these ran with exit 0 (weight 1.0, cap 1.0 or 0.5, a table entry 1.0,
# projection onto coordinate 1), or failed with a message naming no field


@pytest.mark.parametrize("w", ["true", '"1"'])
def test_weight_that_is_not_a_number_exits_2(tmp_path, capsys, w):
    bad = _write(tmp_path, "w.json", f'{{"atoms": [{{"point": [0], "w": {w}}}]}}')
    assert main(["dist", bad, str(FIX / "delta0.json"), "--metric", "euclidean"]) == 2
    captured = capsys.readouterr()
    assert "atom 0: 'w'" in captured.err and captured.out == ""


@pytest.mark.parametrize("cap", ["true", '"0.5"'])
def test_cap_that_is_not_a_number_exits_2(capsys, cap):
    argv = ["dist", str(FIX / "mu01.json"), str(FIX / "eta12.json")]
    assert main(argv + ["--metric", f'{{"kind": "euclidean", "cap": {cap}}}']) == 2
    captured = capsys.readouterr()
    assert "'cap'" in captured.err and captured.out == ""


@pytest.mark.parametrize("entry", ["true", '"1"'])
def test_table_entry_that_is_not_a_number_exits_2(capsys, entry):
    spec = f'{{"kind": "table", "points": ["a", "b"], "d": [[0, {entry}], [{entry}, 0]]}}'
    argv = ["dist", str(FIX / "label_a.json"), str(FIX / "label_b.json"), "--metric", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "'d'" in captured.err and captured.out == ""


@pytest.mark.parametrize("coords", ['["1"]', '["1.0"]'])
def test_projection_index_that_is_not_a_number_exits_2(capsys, coords):
    spec = f'{{"kind": "pullback", "coords": {coords}, "inner": {{"kind": "euclidean"}}}}'
    argv = ["lift", str(FIX / "mu_r2a.json"), str(FIX / "mu_r2b.json"), "--metric", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "'coords'" in captured.err and "integers" in captured.err and captured.out == ""


PULLBACK = '{"kind": "pullback", "coords": %s, "inner": {"kind": "euclidean"}}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dist", "notjson", "delta0"], "is not valid JSON"),
        (["dist", "delta0", "delta0", "--metric", "[1]"], "metric spec must be an object, got [1]"),
        (["dist", "delta0", "delta0", "--metric", "{}"], "metric spec is missing 'kind'"),
        (
            ["dist", "label_a", "label_b", "--metric", '{"kind": "table", "points": ["a", "b"]}'],
            "table metric spec needs 'points' and 'd'",
        ),
        (
            ["dist", "label_a", "label_b", "--metric", '{"kind": "table", "points": ["a", "b"], "d": [[0, 1]]}'],
            "distance table must be 2x2, got (1, 2)",
        ),
        (
            ["dist", "mu01", "eta12", "--metric", '{"kind": "pullback", "coords": [0]}'],
            "pullback metric spec needs 'coords' and 'inner'",
        ),
        (
            ["dist", "mu01", "eta12", "--metric", '{"kind": "max", "of": []}'],
            "max metric spec needs a nonempty 'of' list",
        ),
        (
            ["lift", "mu_r2a", "mu_r2b", "--metric", PULLBACK % "[]"],
            "'coords': projection needs at least one coordinate index",
        ),
        (
            ["lift", "mu_r2a", "mu_r2b", "--metric", PULLBACK % "[5]"],
            "projection indices (5,) out of range for (0.0, 5.0)",
        ),
        (
            ["lift", "label_a", "label_b", "--metric", PULLBACK % "[0]"],
            "cannot project non-coordinate point 'a'",
        ),
        (["dist", "no_atoms", "delta0"], "measure JSON needs a nonempty 'atoms' list"),
        (["dist", "no_w", "delta0"], "atom 0 must be an object with 'point' and 'w'"),
    ],
    ids=[
        "input-not-json", "metric-not-object", "metric-without-kind", "table-without-d",
        "table-d-wrong-shape", "pullback-without-inner", "max-of-nothing", "no-coords",
        "coord-out-of-range", "lift-labels-under-pullback", "no-atoms", "atom-without-w",
    ],
)
def test_rejected_input_exits_2_naming_the_invariant(tmp_path, capsys, argv, message):
    # argv names measure files: fixtures, or the malformed ones written here
    files = {
        name: str(FIX / f"{name}.json")
        for name in ("delta0", "label_a", "label_b", "mu01", "eta12", "mu_r2a", "mu_r2b")
    }
    files["notjson"] = _write(tmp_path, "notjson.json", "not json")
    files["no_atoms"] = _write(tmp_path, "no_atoms.json", '{"atoms": []}')
    files["no_w"] = _write(tmp_path, "no_w.json", '{"atoms": [{"point": [0]}]}')
    argv = [files.get(arg, arg) for arg in argv]
    if "--metric" not in argv:
        argv += ["--metric", "euclidean"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""
