"""End-to-end command-line runs and exit codes."""

import contextlib
import io
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stripzeros
from stripzeros import _numutil, logmodel
from stripzeros import (
    SampledFunction,
    ZeroSet,
    load_zero_set,
    referee_example2,
    save_zero_set,
    shift_to_strip,
    sine_type_model,
)
from stripzeros.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_command(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("".join(f"{n}.0,1.0,1\n" for n in range(200)))
    code, out, _ = run(capsys, "density", "--zeros", str(zeros), "--radii", "10,100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,sup_count,density,witness_x"
    first = lines[1].split(",")
    assert float(first[0]) == 10.0
    assert int(first[1]) == 10
    assert float(first[2]) == 1.0


def _readme_block(heading, language):
    """The first ``language`` code block under the README's ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every command of the README's "Command line" example block, on the
    # zeros.csv and samples.csv it names
    block = _readme_block("Command line", "sh")
    lines = [line for line in block.splitlines() if line.startswith("stripzeros ")]
    assert lines
    save_zero_set(sine_type_model(1.0).zeros, str(tmp_path / "zeros.csv"))
    # a step of 0.01 admits --lengths 0.04:50, and the grid covers [-100, 100]
    SampledFunction.from_function(np.sin, -150.0, 0.01, 30001).to_csv(tmp_path / "samples.csv")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        code, out, err = run(capsys, *argv)
        assert code == 0, (line, err)
        if "--out" in argv:
            assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0, line
        else:
            assert out, line


def test_readme_library_tour_runs():
    # the "Library tour" block as written; find_growth_window(zs, 25.0) there
    # once returned None, and phi_sum failed on it
    exec(compile(_readme_block("Library tour", "python"), "README.md", "exec"), {})


def test_density_empty_file_exits_2(tmp_path, capsys):
    zeros = tmp_path / "empty.csv"
    zeros.write_text("")
    code, _, err = run(capsys, "density", "--zeros", str(zeros), "--radii", "10")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("row", ["nan,1", "inf,1", "1,inf"])
def test_density_nonfinite_zero_exits_2(tmp_path, capsys, row):
    # a non-finite zero used to be counted (nan,1 between two zeros gave 3)
    zeros = tmp_path / "zeros.csv"
    zeros.write_text(f"0.5,1\n{row}\n0.7,1\n")
    code, out, err = run(capsys, "density", "--zeros", str(zeros), "--radii", "1")
    assert code == 2
    assert out == ""
    assert "input error: line 2:" in err


def test_phi_single_zero_monotone(tmp_path, capsys):
    out_path = tmp_path / "phi.csv"
    code, _, _ = run(
        capsys, "phi", "--zero", "3,2", "--grid=-5:0.01:1001", "--out", str(out_path)
    )
    assert code == 0
    rows = out_path.read_text().strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_phi_sum_with_zero_file(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.0,1.0,1\n")
    code, out, _ = run(capsys, "phi", "--zeros", str(zeros), "--grid", "0:0.5:3")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    t_vals = [float(r.split(",")[0]) for r in rows]
    p_vals = [float(r.split(",")[1]) for r in rows]
    assert t_vals == [0.0, 0.5, 1.0]
    assert p_vals == pytest.approx([0.0, math.atan(0.5), math.atan(1.0)])


def test_phi_nonfinite_branch_sum_exits_3(capsys):
    # rows: y*y and y*t would overflow, and inf/inf used to print the row
    # 2.0,nan; y*y underflows to 0, which used to end in a VerificationError
    # traceback with exit 1.  Both are outside the range, and the failure is
    # the one-line exit-3 message alone, with no numpy warning before it
    for zero, grid in (("1,1e308", "0:1:3"), ("1e-200,1e-200", "0:1e-200:3")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "phi", f"--zero={zero}", f"--grid={grid}")
        assert code == 3
        assert out == ""
        assert "outside the exact range" in err
        assert len(err.splitlines()) == 1


def test_phi_zero_truncation_is_not_the_default(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.0,1.0,1\n")
    code, _, err = run(
        capsys, "phi", "--zeros", str(zeros), "--grid", "0:0.5:3", "--truncation", "0"
    )
    assert code == 3
    assert "truncation radius 0.0 too small" in err


def test_phi_tail_of_a_far_zero_prints_no_warning(tmp_path, capsys):
    # the tail's re**2 overflowed for the zero at 1e200 and printed numpy's warning
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0,1\n1e200,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "phi", "--zeros", str(zeros), "--grid", "0:1:3", "--truncation", "10"
        )
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 4


def test_hilbert_constant_is_zero_column(tmp_path, capsys):
    out_path = tmp_path / "h.csv"
    code, _, _ = run(
        capsys,
        "hilbert", "--const", "1", "--grid=-150:0.05:6001", "--out", str(out_path),
    )
    assert code == 0
    back = SampledFunction.from_csv(str(out_path))
    assert np.abs(back.values).max() <= 1e-9


def test_hilbert_round_trip_input(tmp_path, capsys):
    grid = SampledFunction(-150.0, 0.05, np.zeros(6001))
    f = grid.like(np.where(np.abs(grid.grid) <= 1.0, 1.0, 0.0))
    src = tmp_path / "f.csv"
    f.to_csv(src)
    out_path = tmp_path / "hf.csv"
    code, _, _ = run(capsys, "hilbert", "--input", str(src), "--out", str(out_path))
    assert code == 0
    hf = SampledFunction.from_csv(str(out_path))
    # h = 0.05 edge ramps of the sampled indicator shift the value by ~6e-3
    assert hf.value_at(3.0) == pytest.approx(math.log(2.0) / math.pi, abs=0.01)


def test_bmo_on_exported_log_samples(tmp_path, capsys):
    h = 0.01
    n = int(round(200.0 / h)) + 1
    ts = -100.0 + h * np.arange(n)
    with np.errstate(divide="ignore"):
        vals = np.log(np.abs(ts))
    bad = ~np.isfinite(vals)
    vals[bad] = np.interp(ts[bad], ts[~bad], vals[~bad])
    src = tmp_path / "log.csv"
    SampledFunction(-100.0, h, vals).to_csv(src)
    code, out, _ = run(capsys, "bmo", "--input", str(src), "--lengths", "0.04:50")
    assert code == 0
    osc = float(out.strip().splitlines()[1].split(",")[3])
    assert 0.5 <= osc <= 2.0


def test_bmo_shortest_length_is_two_grid_steps(tmp_path, capsys):
    # the shortest length is exactly 2h; the anchors must not drift, and an
    # interval whose b - a rounds a few ulps below 2h must not exit 3
    src = tmp_path / "f.csv"
    SampledFunction(-100.0, 0.02, np.sin(0.37 * np.arange(10001))).to_csv(src)
    code, out, _ = run(capsys, "bmo", "--input", str(src), "--lengths", "0.04:50")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_zoo_export_then_density(tmp_path, capsys):
    out_path = tmp_path / "sine.csv"
    code, _, _ = run(
        capsys, "zoo", "--model", "sine", "--K", "50", "--shift", "1", "--out", str(out_path)
    )
    assert code == 0
    zs = load_zero_set(str(out_path))
    assert zs.weight == 101
    code, out, _ = run(capsys, "density", "--zeros", str(out_path), "--radii", "10")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[2]) == 1.0


@pytest.mark.parametrize("shift", ["1", "0.37"])
@pytest.mark.parametrize("k_max", [8, 40, 45])  # 3^40 fits uint64, 3^41 does not
def test_zoo_example2_export_reads_back_bytewise(tmp_path, capsys, k_max, shift):
    # the plain CSV holds every rounded 3^k - 3^delta_log3 exactly
    out_path = tmp_path / "ex2.csv"
    code, out, _ = run(
        capsys, "zoo", "--model", "example2", "--K", str(k_max), "--shift", shift,
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    back = load_zero_set(str(out_path))
    model = shift_to_strip(referee_example2(k_max), float(shift)).zeros
    for name in ("res", "ims", "mults"):
        assert getattr(back, name).tobytes() == getattr(model, name).tobytes()


def test_density_consumes_example2_export(tmp_path, capsys):
    # unit-window sup counts grow with the family truncation
    sups = []
    for k_max in (8, 10, 12):
        path = tmp_path / f"ex2-{k_max}.csv"
        code, _, _ = run(
            capsys, "zoo", "--model", "example2", "--K", str(k_max), "--out", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "density", "--zeros", str(path), "--radii", "1")
        assert code == 0
        sups.append(int(out.strip().splitlines()[1].split(",")[1]))
    assert sups == sorted(sups)
    assert sups[-1] > sups[0]


def test_verify_theorem_sine_control_never_crosses(capsys):
    code, _, err = run(
        capsys, "verify-theorem", "--model", "sine", "--K", "100", "--thresholds", "5"
    )
    assert code == 0
    assert "threshold 5 not crossed" in err


def test_verify_theorem_stdout_ends_with_control_line(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--model", "cluster", "--K", "12,60")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "K,bmo_lower_bound,witness_lo,witness_hi,window_count,tail_bound"
    assert [line.split(",")[0] for line in lines[1:3]] == ["12", "60"]
    assert lines[3].startswith("# control sine-type (N=200) bound: ")
    assert float(lines[3].rsplit(" ", 1)[1]) > 0
    assert lines[4:] == [""]  # the control line ends the output


def test_verify_theorem_exits_3_when_the_two_tier_remainder_is_too_large(monkeypatch, capsys):
    # every zero beyond 1 of the grid enters at five coarse nodes only (every
    # 650th of 2601), with cells of 3.25: the certified remainder 2E swamps
    # the bound, and the 1% rule stops the scan
    monkeypatch.setattr(logmodel, "NEAR", 1.0)
    monkeypatch.setattr(logmodel, "COARSE", 650)
    code, out, err = run(capsys, "verify-theorem", "--model", "sine", "--K", "50")
    assert code == 3
    assert "certified remainder too large at K=50: tail " in err
    row = out.splitlines()[1].split(",")
    assert row[0] == "50" and float(row[5]) > 0.01 * abs(float(row[1]))


# the argv of the benchmark's divergence jobs: the families of the
# acceptance gate and example1
VERIFY_FAMILIES = [
    ["--model", "cluster", "--K", "12,60,120,240", "--thresholds", "1,4,9,19"],
    ["--model", "example1", "--K", "5,10,20"],
    ["--model", "example2", "--K", "10,15,20,25,30", "--thresholds", "5"],
    ["--model", "sine", "--K", "400,1600"],
]


def test_the_scan_keeps_its_kernel_work_small(monkeypatch, capsys):
    # the zero-node pairs of every branch sum the scan takes over the
    # benchmark's divergence jobs: 1 026 921 with near zeros within 16 of the
    # grid and the cubic far tier, 4 834 713 with the near tier at 200
    pairs = []
    branch_sum = logmodel.phi_sum

    def counted(zs, t, truncation_radius):
        pairs.append(len(zs) * np.size(t))
        return branch_sum(zs, t, truncation_radius)

    monkeypatch.setattr(logmodel, "phi_sum", counted)
    for argv in VERIFY_FAMILIES:
        assert run(capsys, "verify-theorem", *argv)[0] == 0
    assert 0 < sum(pairs) <= 1_500_000


def test_the_scan_validates_each_row_at_most_twice(monkeypatch, capsys):
    # the model's set and the row's relative set; the near and far tiers
    # select from the latter (59 validations on these 18 rows when they did not)
    calls = []
    init = ZeroSet.__init__

    def counted(self, *args):
        calls.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(ZeroSet, "__init__", counted)
    rows = 0
    for argv in VERIFY_FAMILIES:
        code, out, _ = run(capsys, "verify-theorem", *argv)
        assert code == 0
        rows += len(out.splitlines()) - 1  # the K rows and the control line
    assert rows == 18
    assert 0 < len(calls) <= 2 * rows


def test_verify_theorem_reaches_the_top_of_example2s_float_range(capsys):
    # 3^322 is the last power below phi_sum's 2^511 range; the far zeros'
    # y/d^5 underflows there rather than overflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify-theorem", "--model", "example2", "--K", "322")
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    assert row[0] == "322" and math.isfinite(float(row[1]))
    assert math.isfinite(float(row[5])) and float(row[5]) >= 0.0


def test_outputs_are_bit_identical_on_any_cpu_count(tmp_path, monkeypatch, capsys):
    # the branch kernel adds its zero blocks' partial sums in one order on
    # any number of CPUs, so the scan and phi print the same bytes on one CPU,
    # on this host's CPUs and on three
    zeros = tmp_path / "zeros.csv"
    code, _, _ = run(
        capsys, "zoo", "--model", "sine", "--K", "10000", "--shift", "0.75",
        "--out", str(zeros),
    )
    assert code == 0
    jobs = [["verify-theorem", *argv] for argv in VERIFY_FAMILIES]
    jobs.append(["phi", "--zeros", str(zeros), "--grid=-30:0.05:1201"])
    outputs = []
    for cpus in (1, _numutil.affinity_cpus(), 3):
        monkeypatch.setattr(_numutil, "affinity_cpus", lambda: cpus)
        runs = []
        for argv in jobs:
            out = tmp_path / "out.csv"
            code, stdout, err = run(capsys, *argv, "--out", str(out))
            assert code == 0, (argv, err)
            runs.append((stdout, err, out.read_bytes()))
        outputs.append(runs)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_the_parser_is_reused_across_calls(capsys):
    # each call writes to its own sys.stdout, and a flag one call gives is
    # not the next call's default
    argv = ["zoo", "--model", "cluster", "--K", "3"]
    first, second = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(first):
        assert main([*argv, "--shift", "2"]) == 0
    with contextlib.redirect_stdout(second):
        assert main(argv) == 0
    assert (first.getvalue(), second.getvalue()) == ("0.5,2.0,3\n", "0.5,1.0,3\n")
    code, out, err = run(capsys, *argv, "--out", "")
    assert (code, out) == (2, "") and "No such file or directory: ''" in err


def test_zoo_round_trip_bit_exact(tmp_path, capsys):
    out_path = tmp_path / "cluster.csv"
    code, _, _ = run(capsys, "zoo", "--model", "cluster", "--K", "7", "--out", str(out_path))
    assert code == 0
    zs = load_zero_set(str(out_path))
    again = tmp_path / "again.csv"
    save_zero_set(zs, str(again))
    assert load_zero_set(str(again)) == zs


def test_zoo_cluster_honours_shift(tmp_path, capsys):
    out_path = tmp_path / "cluster.csv"
    code, _, _ = run(
        capsys, "zoo", "--model", "cluster", "--K", "3", "--shift", "2", "--out", str(out_path)
    )
    assert code == 0
    zs = load_zero_set(str(out_path))
    assert (zs.ims.tolist(), zs.mults.tolist()) == ([2.0], [3])


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--grid=0:1:2", "--zeros", "z.csv", "--radii", "1"],
        ["hilbert", "--radii", "1", "--const", "1", "--grid=0:1:2"],
    ],
)
def test_stray_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    code, _, err = run(capsys, "bmo", "--input", missing, "--lengths", "1:2")
    assert code == 2
    assert "input error" in err and missing in err


def test_verify_theorem_cluster(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, err = run(
        capsys,
        "verify-theorem", "--model", "cluster", "--K", "12,60",
        "--thresholds", "5", "--out", str(out_path),
    )
    assert code == 0
    rows = [
        line for line in out_path.read_text().splitlines()
        if line and not line.startswith(("K,", "#"))
    ]
    bounds = [float(r.split(",")[1]) for r in rows]
    assert bounds[0] >= 12 * 0.5 / 6 - 1  # K=12 bound clears its floor
    assert bounds == sorted(bounds)
    assert "threshold 5 crossed at K=12" in err
    assert "control sine-type" in err


def test_verify_theorem_unknown_model(capsys):
    code, _, err = run(capsys, "verify-theorem", "--model", "nope", "--K", "5")
    assert code == 2
    assert "unknown model" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["phi", "--zero", "0,1", "--grid", "0:0.1:-5"], "n >= 1"),
        (["phi", "--zero", "0,1", "--grid", "inf:0.1:3"], "origin"),
        (["hilbert", "--const", "1", "--grid", "0:1e308:3"], "grid end"),
        (["zoo", "--model", "sine", "--K", "inf"], "--K needs integers"),
        (["zoo", "--model", "sine", "--K", "nan"], "--K needs integers"),
        (["zoo", "--model", "sine", "--K", "2.5"], "--K needs integers"),
        (["verify-theorem", "--model", "cluster", "--K", "12,2.5"], "--K needs integers"),
        (["phi", "--zero", "nan,1", "--grid", "0:1:3"], "--zero needs a finite"),
        (["phi", "--zero", "0,inf", "--grid", "0:1:3"], "--zero needs a finite"),
        (
            ["verify-theorem", "--model", "cluster", "--K", "12", "--thresholds", "nan"],
            "thresholds must be finite",
        ),
        # number flags are parsed before any file is read, so z.csv and
        # s.csv need not exist
        (["zoo", "--model", "sine", "--K", "3", "--shift", "nan"], "--shift needs a finite"),
        (
            ["phi", "--zeros", "z.csv", "--grid", "0:1:3", "--truncation", "nan"],
            "--truncation needs a finite",
        ),
        (["bmo", "--input", "s.csv", "--lengths", "nan:5"], "--lengths needs finite"),
        (["bmo", "--input", "s.csv", "--lengths", "1:inf"], "--lengths needs finite"),
        (["density", "--zeros", "z.csv", "--radii", "inf"], "--radii needs finite"),
        (["density", "--zeros", "z.csv", "--radii", "10,5"], "--radii needs finite"),
        (["density", "--zeros", "z.csv", "--radii", "10,10"], "--radii needs finite"),
        (["density", "--zeros", "z.csv", "--radii", "0"], "--radii needs finite"),
        (["density", "--zeros", "z.csv", "--radii", "-1"], "--radii needs finite"),
        (["hilbert", "--const", "nan", "--grid", "0:1:3"], "--const needs a finite"),
        (
            ["hilbert", "--input", "s.csv", "--const", "5", "--grid", "0:1:3"],
            "--input conflicts with --const and --grid",
        ),
        (
            ["hilbert", "--input", "s.csv", "--grid", "0:1:3"],
            "--input conflicts with --const and --grid",
        ),
        (
            ["phi", "--zero", "1,1", "--grid", "0:1:3", "--truncation", "0.1"],
            "--zero conflicts with --truncation",
        ),
        (
            ["phi", "--zero", "1,1", "--zeros", "z.csv", "--grid", "0:1:3"],
            "--zero conflicts with --zeros",
        ),
        (["zoo", "--model", "cluster", "--K", "3,100"], "zoo takes one K"),
        (
            ["zoo", "--model", "sine", "--K", "3", "--truncation", "5"],
            "--truncation is the example1 window only",
        ),
        (
            ["zoo", "--model", "example2", "--K", "8", "--truncation", "5"],
            "--truncation is the example1 window only",
        ),
        (
            ["verify-theorem", "--model", "cluster", "--K", "12", "--truncation", "5"],
            "--truncation is the example1 window only",
        ),
        (["zoo", "--model", "sine", "--K", "3", "--shift", "abc"], "--shift needs a finite"),
        (["phi", "--zero", "1,0", "--grid", "0:1:3"], "finite positive Y, got '1,0'"),
        (["phi", "--zero", "1,1"], "this command needs --grid"),
        (["density", "--radii", "1"], "density needs --zeros"),
        (["density", "--zeros", "z.csv"], "density needs --radii"),
        (["phi", "--grid", "0:1:3"], "phi needs --zero X,Y or --zeros PATH"),
        (["hilbert"], "hilbert needs --input PATH or --const C"),
        (["bmo", "--lengths", "1:2"], "bmo needs --input"),
        (["bmo", "--input", "s.csv"], "bmo needs --lengths"),
        (["verify-theorem", "--K", "3"], "verify-theorem needs --model"),
        (["verify-theorem", "--model", "sine"], "verify-theorem needs --K"),
        # an empty path is not stdout
        (["zoo", "--model", "sine", "--K", "3", "--out", ""], "No such file or directory: ''"),
        (
            ["density", "--zeros", "no-such-zeros.csv", "--radii", "1"],
            "No such file or directory: 'no-such-zeros.csv'",
        ),
        (
            ["phi", "--zeros", "no-such-zeros.csv", "--grid", "0:1:3"],
            "No such file or directory: 'no-such-zeros.csv'",
        ),
    ],
    ids=["grid-negative-n", "grid-inf-origin", "grid-end-overflow", "K-inf", "K-nan",
         "K-fraction", "K-fraction-in-list", "zero-nan", "zero-inf", "thresholds-nan",
         "shift-nan", "truncation-nan", "lengths-nan", "lengths-inf", "radii-inf",
         "radii-decreasing", "radii-repeated", "radii-zero", "radii-negative",
         "const-nan", "input-with-const", "input-with-grid", "zero-with-truncation",
         "zero-with-zeros", "zoo-K-list", "truncation-sine", "truncation-example2",
         "truncation-verify-cluster", "shift-not-a-number", "zero-im-0", "grid-missing",
         "density-no-zeros", "density-no-radii", "phi-no-input", "hilbert-no-input",
         "bmo-no-input", "bmo-no-lengths", "verify-no-model", "verify-no-K", "out-empty",
         "zeros-missing-density", "zeros-missing-phi"],
)
def test_bad_numbers_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error: " in err and message in err


@pytest.mark.parametrize(
    "argv",
    [["density", "--radii", "1"], ["phi", "--grid", "0:1:3"]],
    ids=["density", "phi"],
)
def test_offset_form_file_exits_2(tmp_path, capsys, argv):
    # the retired `# format: delta-log3` export is no zero-set file
    zeros = tmp_path / "ex2.csv"
    zeros.write_text("# format: delta-log3\nre_base,delta_log3,im,mult\n9,-1.0,1.0,1\n")
    code, out, err = run(capsys, *argv, "--zeros", str(zeros))
    assert code == 2
    assert out == ""
    assert err == (
        "input error: line 2: expected a re,im[,mult] row of numbers, "
        "got 're_base,delta_log3,im,mult'\n"
    )


# a zero-set file, then a sampled file
_NOT_UTF8 = b"0.5,1\n\xff\xfe,1\n"
_SAMPLES_NOT_UTF8 = b"# t0=0 h=1 n=2\nt,value\n0,1\n1,\xff\n"


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["density", "--radii", "1", "--zeros"], _NOT_UTF8,
         "line 2: not UTF-8 text, got bytes b'\\xff'"),
        (["phi", "--grid", "0:1:3", "--zeros"], _NOT_UTF8,
         "line 2: not UTF-8 text, got bytes b'\\xff'"),
        (["bmo", "--lengths", "1:2", "--input"], _SAMPLES_NOT_UTF8,
         "line 4: not UTF-8 text, got bytes b'\\xff'"),
        (["hilbert", "--input"], _SAMPLES_NOT_UTF8,
         "line 4: not UTF-8 text, got bytes b'\\xff'"),
        # JSON records are no zero-set format
        (["density", "--radii", "1", "--zeros"], b'[{"re": 0, "im": 1}]\n',
         "line 1: expected a re,im[,mult] row of numbers, got '[{\"re\": 0, \"im\": 1}]'"),
    ],
    ids=["density-not-utf8", "phi-not-utf8", "bmo-not-utf8", "hilbert-not-utf8",
         "density-json"],
)
def test_bad_input_file_exits_2(tmp_path, capsys, argv, data, message):
    # a non-UTF-8 file used to end in a UnicodeDecodeError traceback with exit 1
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def test_density_counts_mult_to_the_int64_limit(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.5,1,9223372036854775807\n")
    code, out, _ = run(capsys, "density", "--zeros", str(zeros), "--radii", "1")
    assert code == 0
    assert out.splitlines()[1] == "1.0,9223372036854775807,9.223372036854776e+18,0.5"
    # a total past int64 used to wrap, and density printed a sup count of 5e18
    zeros.write_text("0.5,1,5000000000000000000\n0.7,1,5000000000000000000\n")
    code, out, err = run(capsys, "density", "--zeros", str(zeros), "--radii", "1")
    assert code == 3
    assert out == ""
    assert err == (
        "numeric precondition failed: total multiplicity must be < 2^63, "
        "got 10000000000000000000\n"
    )


def test_density_far_from_the_origin_exits_3(tmp_path, capsys):
    # the float window [1e17, 1e17 + 1) is empty: density printed a sup count of 0
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("1e17,1\n")
    code, out, err = run(capsys, "density", "--zeros", str(zeros), "--radii", "1,100")
    assert (code, out) == (3, "")
    assert err == (
        "numeric precondition failed: window length 1.0 is not above the float "
        "spacing 16.0 at |re| = 1e+17, so windows there cannot be counted exactly\n"
    )
    code, out, _ = run(capsys, "density", "--zeros", str(zeros), "--radii", "100")
    # the smallest anchor whose window holds 1e17: 1e17 - 96 + 100 rounds down
    # to 1e17, but [1e17 - 96, 1e17 + 4) holds it exactly
    assert (code, out.splitlines()[1]) == (0, "100.0,1,0.01,9.99999999999999e+16")
    # example2's own export: 3^33 ~ 5.6e15 is the first cluster at float spacing 1
    for k, exit_code in (("32", 0), ("33", 3)):
        path = tmp_path / f"ex2_{k}.csv"
        assert run(capsys, "zoo", "--model", "example2", "--K", k, "--out", str(path))[0] == 0
        assert run(capsys, "density", "--zeros", str(path), "--radii", "1")[0] == exit_code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zoo", "--model", "example2", "--K", "647"], "k_max must be >= 2 and <= 646, got 647"),
        (
            ["verify-theorem", "--model", "example2", "--K", "10,700"],
            "k_max must be >= 2 and <= 646, got 700",
        ),
        (
            ["zoo", "--model", "cluster", "--K", "9300000000000000000"],
            "count must be >= 1 and < 2^63, got 9300000000000000000",
        ),
    ],
    ids=["example2-k-overflow", "verify-example2-k-overflow", "cluster-count-int64"],
)
def test_model_range_exits_3(capsys, argv, message):
    # these used to end in an OverflowError traceback with exit 1
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"numeric precondition failed: {message}\n"


@pytest.mark.parametrize(
    "k, row",
    [
        # float() rounded both: the first to ...992, the second to 2^63, which exited 3
        ("9007199254740993", "0.5,1.0,9007199254740993"),
        ("9223372036854775807", "0.5,1.0,9223372036854775807"),
    ],
    ids=["above-2^53", "int64-max"],
)
def test_zoo_cluster_count_is_exact(capsys, k, row):
    code, out, err = run(capsys, "zoo", "--model", "cluster", "--K", k)
    assert (code, out, err) == (0, row + "\n", "")


def test_verify_theorem_prints_k_as_given(capsys):
    # a K above 2^53 prints exactly, in the K column as in the window count
    # beside it and on stderr, not as the float it rounds to
    code, out, err = run(
        capsys, "verify-theorem", "--model", "cluster", "--K", "9007199254740993",
        "--thresholds", "1",
    )
    assert code == 0
    row = out.split("\n")[1].split(",")
    assert row[0] == row[4] == "9007199254740993"
    assert "threshold 1 crossed at K=9007199254740993\n" in err


def test_hilbert_input_late_header_exits_2(tmp_path, capsys):
    src = tmp_path / "f.csv"
    src.write_text("# t0=0 h=1 n=2\nt,value\n0,1\n# t0=5 h=1\n1,2\n")
    code, out, err = run(capsys, "hilbert", "--input", str(src))
    assert code == 2
    assert out == ""
    assert "input error: line 4: grid header after the first data row" in err


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it cost every CLI run ~1.5 s
    src = str(Path(stripzeros.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, stripzeros.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_zoo_example1_takes_truncation(tmp_path, capsys):
    narrow, wide = tmp_path / "narrow.csv", tmp_path / "wide.csv"
    for path, window in ((narrow, "100"), (wide, "300")):
        code, _, _ = run(
            capsys, "zoo", "--model", "example1", "--K", "3",
            "--truncation", window, "--out", str(path),
        )
        assert code == 0
    assert load_zero_set(str(narrow)).weight < load_zero_set(str(wide)).weight
