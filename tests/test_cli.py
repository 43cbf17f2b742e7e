import csv
import io
import math

import pytest

from gafzeros.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


def test_density_uniform_golden(capsys):
    code, out, _ = run_cli(capsys, "density", "--preset", "uniform",
                           "--r", "0.5", "--phi", "0")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["rho1"]) == pytest.approx(1 / (math.pi * 0.75**2), rel=1e-9)
    assert float(kv["rho1"]) == pytest.approx(0.565884, rel=1e-5)


def test_density_accepts_complex_point(capsys):
    code, out, _ = run_cli(capsys, "density", "--preset", "uniform",
                           "--z", "0.3+0.4j")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["r"]) == pytest.approx(0.5)
    assert float(kv["rho1"]) == pytest.approx(1 / (math.pi * 0.75**2), rel=1e-9)
    code, _, _ = run_cli(capsys, "density", "--preset", "uniform")
    assert code == 2  # neither --z nor --r given


def test_density_ek_matches_spectral(capsys):
    base = ["--preset", "ma1:a=0.3", "--r", "0.99", "--phi", "0"]
    _, out_ek, _ = run_cli(capsys, "density", *base, "--method", "ek")
    _, out_sp, _ = run_cli(capsys, "density", *base, "--method", "spectral")
    a = float(parse_kv(out_ek)["rho1"])
    b = float(parse_kv(out_sp)["rho1"])
    assert abs(a - b) <= 1e-9 * abs(b)


def test_density_ek_precision_error_contract(capsys):
    code, out, err = run_cli(
        capsys, "density", "--preset", "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
        "--r", "0.9999", "--phi", "2.5", "--method", "ek")
    assert code == 3
    assert err.startswith("precision error:")
    assert out == ""


@pytest.mark.parametrize("preset", [
    "ma1:a=0.5", "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
    "mix:0.5*uniform+0.5*indicator:lo=-1,hi=1"])
def test_density_closed_form_matches_qform(capsys, preset):
    base = ["--preset", preset, "--r", "0.999", "--phi", "2.5"]
    runs = {}
    for method in ("closed_form", "q_form", "auto"):
        code, out, _ = run_cli(capsys, "density", *base, "--method", method)
        assert code == 0
        runs[method] = out.strip().splitlines()
    want = float(parse_kv("\n".join(runs["q_form"]))["rho1"])
    for method in ("closed_form", "auto"):
        lines = runs[method]
        assert float(parse_kv("\n".join(lines))["rho1"]) == pytest.approx(want, rel=1e-9)
        # the same keys in the same order; only the value's last digits move
        assert [ln.split("=")[0] for ln in lines] == ["preset", "r", "phi", "method", "rho1"]
        assert lines[:3] == runs["q_form"][:3]
        assert lines[3] == f"method={method}"
    code, _, err = run_cli(capsys, "density", "--preset", "uniform",
                           "--r", "0.99999999", "--method", "closed_form")
    assert code == 3
    assert "precision" in err


def test_density_half_interval_near_flat_constant(capsys):
    code, out, _ = run_cli(
        capsys, "density",
        "--preset", "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
        "--r", "0.99", "--phi", "2.356194490192345")
    assert code == 0
    assert float(parse_kv(out)["rho1"]) == pytest.approx(1 / (6 * math.pi),
                                                         rel=0.03)
    # truncated-precision endpoints parse and land on the same value
    code, out, _ = run_cli(capsys, "density",
                           "--preset", "indicator:lo=-1.5707963,hi=1.5707963",
                           "--r", "0.99", "--phi", "2.35619449")
    assert code == 0
    assert float(parse_kv(out)["rho1"]) == pytest.approx(1 / (6 * math.pi),
                                                         rel=0.03)


def test_asymptote_case_i(capsys):
    code, out, _ = run_cli(capsys, "asymptote", "--preset", "ma1:a=0.3",
                           "--phi", repr(math.pi / 3))
    assert code == 0
    kv = parse_kv(out)
    assert kv["case"] == "i"
    assert float(kv["input.deficit"]) == pytest.approx(0.09 / 1.69, rel=1e-9)


def test_asymptote_case_ii(capsys):
    code, out, _ = run_cli(capsys, "asymptote", "--preset", "ma1:a=0.5",
                           "--phi", repr(math.pi))
    kv = parse_kv(out)
    assert kv["case"] == "ii"
    assert float(kv["coeff[y^-1]"]) == pytest.approx(1 / (2 * math.pi), rel=1e-9)


def test_asymptote_case_iii(capsys):
    code, out, _ = run_cli(
        capsys, "asymptote",
        "--preset", "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
        "--phi", repr(3 * math.pi / 4))
    kv = parse_kv(out)
    assert kv["case"] == "iii"
    assert float(kv["coeff[y^0]"]) == pytest.approx(1 / (6 * math.pi), rel=1e-6)


def test_asymptote_atoms_enter_deficit(capsys):
    base = ["asymptote", "--preset", "mix:0.5*uniform+0.5*atoms:[(0,1)]"]
    code, out, _ = run_cli(capsys, *base, "--phi", "1.0")
    assert code == 0
    assert float(parse_kv(out)["input.deficit"]) == pytest.approx(1.183029, rel=1e-6)
    code, out, err = run_cli(capsys, *base, "--phi", "0.0")
    assert code == 2
    assert "error" in err and out == ""


_SLICE_KEYS = {"input.g0", "input.g2", "input.gc1", "input.I_Tgh", "input.I_T2gh",
               "input.I_T2ghcos", "input.I_T2gcsin"}


@pytest.mark.parametrize("preset, phi, case, extra", [
    ("ma1:a=0.3", math.pi / 3, "i",
     {"coeff[y^-2]", "coeff[y^0]", "input.f1", "input.deficit"}),
    ("ma1:a=0.5", math.pi, "ii", {"coeff[y^-1]"}),
    ("indicator:lo=-1.5707963267948966,hi=1.5707963267948966", 3 * math.pi / 4, "iii",
     {"coeff[y^0]"}),
])
def test_asymptote_key_set(capsys, preset, phi, case, extra):
    code, out, _ = run_cli(capsys, "asymptote", "--preset", preset, "--phi", repr(phi))
    assert code == 0
    kv = parse_kv(out)
    assert kv["case"] == case
    assert set(kv) == {"preset", "phi", "case"} | _SLICE_KEYS | extra


def test_experiment_csv_totals_and_determinism(capsys):
    argv = ["experiment", "--preset", "uniform", "--n", "400",
            "--replicas", "8", "--rmax", "0.9", "--rbins", "3",
            "--pbins", "4", "--seed", "5"]
    code, out_a, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_a)))
    assert len(rows) == 12
    analytic_total = sum(float(row["analytic"]) for row in rows)
    assert analytic_total == pytest.approx(0.81 / 0.19, rel=1e-5)
    code, out_b, _ = run_cli(capsys, *argv)
    assert out_a == out_b  # byte-identical for a fixed seed


def test_experiment_writes_file(tmp_path, capsys):
    out_path = tmp_path / "prof.csv"
    code, out, err = run_cli(capsys, "experiment", "--preset", "ma1:a=0.3",
                             "--n", "60", "--replicas", "2", "--rmax", "0.8",
                             "--rbins", "1", "--pbins", "1",
                             "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.exists()


def test_experiment_has_no_workers_flag(capsys):
    # the replicas run on one thread per usable core: the flag that chose a process pool
    # is refused as an unknown argument (argparse's exit 2) before any sampling
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--preset", "uniform", "--n", "8", "--replicas", "2",
              "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_continuation_reports_regular_arc(capsys):
    code, out, _ = run_cli(
        capsys, "continuation",
        "--preset", "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
        "--r", "0.5", "--kmax", "128")
    assert code == 0
    kv = parse_kv(out)
    arcs = [v for k, v in kv.items() if k.startswith("arc[") and "bound" not in k]
    regs = [a for a in arcs if "regular" in a]
    assert len(regs) == 1
    assert repr(math.pi / 2)[:8] in regs[0]
    assert repr(3 * math.pi / 2)[:8] in regs[0]


def test_presets_lists_at_least_four(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    names = [line for line in out.splitlines() if line.startswith("preset=")]
    assert len(names) >= 4


@pytest.mark.parametrize("r", ["-0.1", "nan", "1.0"])
def test_density_radius_outside_the_disk_exits_2(capsys, r):
    code, out, err = run_cli(capsys, "density", "--preset", "uniform", "--r", r)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_density_prints_the_wrapped_direction(capsys):
    code, out, _ = run_cli(capsys, "density", "--preset", "uniform", "--r", "0.5", "--phi", "7.0")
    assert code == 0
    assert float(parse_kv(out)["phi"]) == pytest.approx(7.0 - 2 * math.pi, abs=1e-15)


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(capsys, "density", "--preset", "uniform",
                           "--r", "1.5")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "density", "--preset", "nonsense", "--r", "0.5")
    assert code == 2
    # refused by the config, before any replica is sampled
    code, out, _ = run_cli(capsys, "experiment", "--preset", "uniform", "--n", "2049")
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ("asymptote", "--phi", "0"), ("density", "--r", "0.5"), ("continuation", "--r", "0.5"),
], ids=["asymptote", "density", "continuation"])
def test_mix_with_a_negative_density_is_refused(capsys, argv):
    # 2/(2 pi) - 1/2 < 0 on (-1, 1)
    code, out, err = run_cli(capsys, argv[0], "--preset",
                             "mix:2*uniform+-1*indicator:lo=-1,hi=1", *argv[1:])
    assert code == 2 and out == ""
    assert "density is negative" in err


@pytest.mark.parametrize("preset", [
    "ma1:a=nan", "mix:nan*uniform+nan*ma1:a=0.3", "atoms:5",
    "mix:0.5*uniform+0.5*atoms:[(1e999,1)]",
])
@pytest.mark.parametrize("argv", [
    ("asymptote", "--phi", "0"), ("density", "--r", "0.5"), ("continuation", "--r", "0.5"),
], ids=["asymptote", "density", "continuation"])
def test_malformed_or_non_finite_presets_are_refused(capsys, argv, preset):
    # refused where the measure is built; an atom at 1e999 gave a case-i expansion
    code, out, err = run_cli(capsys, argv[0], "--preset", preset, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("phi", ["nan", "inf"])
@pytest.mark.parametrize("preset", ["uniform", "ma1:a=0.5", "indicator:lo=-1,hi=2"])
def test_non_finite_direction_is_refused(capsys, preset, phi):
    # the jet of a trig density would carry a nan direction into case iii
    code, out, err = run_cli(capsys, "asymptote", "--preset", preset, "--phi", phi)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_mix_with_a_negative_weight_and_a_nonnegative_density_is_accepted(capsys):
    # 1.2/(2 pi) - 0.2 (1 + cos t)/(2 pi) = (1 - 0.2 cos t)/(2 pi), the density of ma1:a=-0.1
    argv = ["--r", "0.5", "--phi", "1"]
    code, out, _ = run_cli(capsys, "density", "--preset", "mix:1.2*uniform+-0.2*ma1:a=0.5", *argv)
    assert code == 0
    assert parse_kv(out)["rho1"] == "0.5623271458952376"
    _, ref, _ = run_cli(capsys, "density", "--preset", "ma1:a=-0.1", *argv)
    assert float(parse_kv(out)["rho1"]) == pytest.approx(float(parse_kv(ref)["rho1"]), rel=1e-12)


def test_exit_code_precision_error(capsys):
    code, _, err = run_cli(capsys, "density", "--preset", "uniform",
                           "--r", "0.99999999")
    assert code == 3
    assert "precision" in err


def test_machine_output_only_on_stdout(capsys):
    code, out, err = run_cli(capsys, "density", "--preset", "uniform",
                             "--r", "0.3")
    for line in out.strip().splitlines():
        assert "=" in line  # every stdout line is key=value
