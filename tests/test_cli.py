import ast
import csv
import gc
import io
import json
import math
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

from minorbit import cli, orbit
from conftest import DATA_DIR


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_has_eleven_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    assert out == (DATA_DIR / "catalog.csv").read_text()


def test_table_family_filter(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "o2n2n", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["d"] == "2" and rows[0]["e"] == "0"


def test_table_json_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    assert out == (DATA_DIR / "catalog.json").read_text()


def test_bessel_csv(capsys):
    code, out, _ = run_cli(capsys, "bessel", "--tau", "0", "--zmin", "0.1",
                           "--zmax", "10", "--steps", "100")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 100
    assert all(abs(float(r["D_residual"])) < 1e-7 for r in rows)


def test_bessel_half_order_closed_form_column(capsys):
    code, out, _ = run_cli(capsys, "bessel", "--tau", "-0.5", "--zmin", "0.5",
                           "--zmax", "3", "--steps", "6")
    assert code == 0
    for r in csv.DictReader(io.StringIO(out)):
        z = float(r["z"])
        expect = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert math.isclose(float(r["K_tau"]), expect, rel_tol=1e-10)


def test_bessel_order_evenness_in_k_column(capsys):
    _, out_pos, _ = run_cli(capsys, "bessel", "--tau", "0.5", "--zmin", "0.5",
                            "--zmax", "3", "--steps", "6")
    _, out_neg, _ = run_cli(capsys, "bessel", "--tau", "-0.5", "--zmin", "0.5",
                            "--zmax", "3", "--steps", "6")
    col = lambda text: [r["K_tau"] for r in csv.DictReader(io.StringIO(text))]
    assert col(out_pos) == col(out_neg)


def test_bessel_out_closes_file(capsys, tmp_path, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    out_path = tmp_path / "phi.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, out, _ = run_cli(capsys, "bessel", "--tau", "0.5", "--zmin", "0.5",
                               "--zmax", "3", "--steps", "6", "--out", str(out_path))
        gc.collect()
    assert code == 0 and out == ""
    assert not unraisable, [u.exc_value for u in unraisable]
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert len(rows) == 6 and rows[-1]["z"] == "3"


def _scalar_bessel_table(tau, zs):
    """The bessel table composed row by row from scalar calls."""
    lines = ["z,K_tau,phi_tau,D_residual"]
    for z in zs:
        k = cli.bessel.bessel_k(tau, z)
        phi, d1, d2 = cli.bessel.phi_tau(tau, z)
        resid = cli.bessel.d_residual(tau, z, phi, d1, d2)
        lines.append(f"{z:.12g},{k:.12e},{phi:.12e},{resid:.3e}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tau", ["-0.5", "0", "1.5", "7.5", "33"])
def test_bessel_table_equals_scalar_rows(capsys, tau):
    # longer than one block; at tau = 33 K overflows at small z
    steps = cli.TABLE_BLOCK + 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "bessel", "--tau", tau, "--zmin", "1e-8",
                                 "--zmax", "40", "--steps", str(steps))
    assert code == cli.EXIT_PASS and err == ""
    zs = cli.np.linspace(1e-8, 40.0, steps).tolist()
    assert out == _scalar_bessel_table(float(tau), zs)
    assert ("inf" in out) == (tau == "33")


@pytest.mark.parametrize("tau", [-33.0, -3.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 33.0])
def test_bessel_table_block_format_equals_row_format(tau):
    # one block plus 7 rows; the huge z give phi = 0 (w^tau or K under- or
    # overflows), and at |tau| = 33 K overflows at small z (inf or nan)
    np = cli.np
    zs = np.concatenate((np.linspace(1e-8, 40.0, cli.TABLE_BLOCK + 4), [1e150, 5e299, 1e300]))
    table = io.StringIO()
    cli._write_bessel_table(table, tau, zs)
    with np.errstate(all="ignore"):
        k = cli.bessel.bessel_k(tau, zs)
        phi, d1, d2 = cli.bessel.phi_tau(tau, zs)
        resid = cli.bessel.d_residual(tau, zs, phi, d1, d2)
    rows = [f"{a:.12g},{b:.12e},{c:.12e},{d:.3e}\n" for a, b, c, d in
            zip(zs.tolist(), k.tolist(), phi.tolist(), resid.tolist())]
    out = table.getvalue()
    assert out == "z,K_tau,phi_tau,D_residual\n" + "".join(rows)
    assert phi[-2:].tolist() == [0.0, 0.0]
    assert ("inf" in out) == (abs(tau) == 33)


def test_bessel_at_huge_z_prints_zero_phi(capsys):
    # w^tau overflows to inf at z = 5e299 and 1e300, where K is 0: phi is 0
    code, out, err = run_cli(capsys, "bessel", "--tau", "3", "--zmin", "1",
                             "--zmax", "1e300", "--steps", "3")
    assert code == cli.EXIT_PASS and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(float(r["phi_tau"]), float(r["D_residual"])) for r in rows[1:]] == [(0.0, 0.0)] * 2


def test_bessel_at_huge_z_and_negative_order_prints_zero_phi(capsys):
    # at tau = -3, K_3 and w^-3 both underflow to 0 at z = 5e299 and 1e300:
    # phi = K_3(w) w^3 is 0 there, not nan, and so is the D residual
    code, out, err = run_cli(capsys, "bessel", "--tau", "-3", "--zmin", "1",
                             "--zmax", "1e300", "--steps", "3")
    assert code == cli.EXIT_PASS and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert "nan" not in out
    assert [(float(r["phi_tau"]), float(r["D_residual"])) for r in rows[1:]] == [(0.0, 0.0)] * 2
    assert float(rows[0]["phi_tau"]) == float(rows[0]["K_tau"])  # w = 1


def test_bessel_tabulates_orders_up_to_106(capsys):
    # the K oracle works in log space, so the audit certifies orders whose
    # cosh(tau u) factor overflows although K_tau(0.1) is finite (68 to 106);
    # phi at 106 also needs orders 107 and 108, where K_tau(0.1) overflows
    for tau in ("68", "106", "-106"):
        code, out, err = run_cli(capsys, "bessel", "--tau", tau, "--zmin", "1",
                                 "--zmax", "2", "--steps", "2")
        assert code == cli.EXIT_PASS and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["z"]) for r in rows] == [1.0, 2.0]
        for r in rows:
            ref = float(mpmath.besselk(abs(float(tau)), float(r["z"])))
            assert math.isclose(float(r["K_tau"]), ref, rel_tol=1e-11), (tau, r)
            assert math.isfinite(float(r["phi_tau"])) and float(r["phi_tau"]) > 0


def test_bessel_below_min_z_is_one_line_usage_error(capsys):
    code, out, err = run_cli(capsys, "bessel", "--tau", "0.5", "--zmin", "1e-9",
                             "--zmax", "2", "--steps", str(cli.TABLE_BLOCK + 1))
    assert code == cli.EXIT_USAGE and out == ""
    assert err == ("--zmin 1e-09 is below z=1e-08, where phi evaluation is refused "
                   "(singular endpoint)\n")


def test_bessel_usage_error(capsys):
    code, _, err = run_cli(capsys, "bessel", "--tau", "0", "--zmin", "-1",
                           "--zmax", "2", "--steps", "5")
    assert code == cli.EXIT_USAGE


def test_verify_constants_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "constants", "--model", "o2n2n", "--n", "2")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_crown_certifies_its_constants_at_its_seed(capsys, monkeypatch, tmp_path):
    # the crown is assembled from constants certified at --seed, which only
    # the constants suite reports
    seen = []
    certify = cli.sphver.verify_kprime

    def spy(m, samples, seed):
        seen.append((samples, seed))
        return certify(m, samples=samples, seed=seed)

    monkeypatch.setattr(cli.sphver, "verify_kprime", spy)
    path = tmp_path / "crown.json"
    code, _, _ = run_cli(capsys, "verify", "crown", "--model", "o2n2n", "--n", "2",
                         "--seed", "7", "--json", str(path))
    assert code == 0 and seen == [(100, 7)]
    assert [r["suite"] for r in json.loads(path.read_text())["reports"]] == ["crown_assembly"]


def test_verify_opq_exclusion(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--model", "opq",
                           "--p", "3", "--q", "5")
    assert code == cli.EXIT_USAGE
    assert "excluded" in err and "rank-2" in err


def test_verify_even_opq_maps_to_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "constants", "--model", "opq",
                           "--p", "4", "--q", "4")
    assert code == 0


def test_verify_unknown_model(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--model", "nope", "--n", "2")
    assert code == cli.EXIT_USAGE


def test_tensor_audit_cli(capsys, tmp_path):
    out_path = tmp_path / "audit.json"
    code, out, _ = run_cli(capsys, "tensor", "audit", "--model", "o2n2n",
                           "--n", "3", "--k", "2", "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    dims = payload["reports"][0]["meta"]["dims"]
    assert dims["g_k"] == 10 and dims["h_k"] == 6


def test_tensor_audit_k_range(capsys):
    # at n = 2 the range 2 <= k < n is empty, and the one-line diagnostic
    # says so instead of naming the empty range [2, 2)
    code, _, err = run_cli(capsys, "tensor", "audit", "--model", "o2n2n",
                           "--n", "2", "--k", "2")
    assert code == cli.EXIT_USAGE
    assert err.strip() == "tensor audit needs 2 <= k < n, so n=2 admits no k"
    code, _, err = run_cli(capsys, "tensor", "audit", "--model", "o2n2n",
                           "--n", "3", "--k", "3")
    assert code == cli.EXIT_USAGE
    assert err.strip() == "tensor audit needs 2 <= k < n, and k=3 is outside [2, 3)"


def test_fourier_csv_decays_along_ray(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--model", "o2n2n", "--n", "2",
                           "--steps", "4", "--tmax", "6", "--samples", "50000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    vals = [float(r["value"]) for r in rows]
    assert len(vals) == 4 and vals[0] > vals[-1] > 0


def test_fourier_json_fields(capsys):
    code, out, _ = run_cli(capsys, "fourier", "--model", "gl2n", "--n", "2",
                           "--steps", "2", "--tmax", "1", "--format", "json",
                           "--samples", "20000")
    assert code == 0
    payload = json.loads(out)
    assert {"t", "value", "stderr", "samples", "seed"} <= set(payload[0])


def test_verify_spherical_underpowered_is_inconclusive(capsys):
    # at very low sample counts the wide-|x| grid points cannot be decided;
    # that must surface as exit code 3, not as a failure
    code, out, _ = run_cli(capsys, "verify", "spherical", "--model", "o2n2n",
                           "--n", "2", "--samples", "20000")
    assert code == cli.EXIT_INCONCLUSIVE
    assert "INCONCLUSIVE" in out


def test_verify_orbit_underpowered_is_inconclusive(capsys):
    # at 10 samples every ratio that misses the 1 % gate lies within 3
    # standard errors of 1, so none can be decided either way
    code, out, _ = run_cli(capsys, "verify", "orbit", "--model", "o2n2n", "--n", "2",
                           "--samples", "10")
    assert code == cli.EXIT_INCONCLUSIVE
    assert "[INCONCLUSIVE]" in out
    assert "[FAIL]" not in out


def test_verify_orbit_ratio_far_off_still_fails(capsys, monkeypatch):
    # control: a character 20 % too large puts the diag l ratios many
    # standard errors away from 1 at 1e5 samples, which is a failure
    random_diag_l = orbit.FloatBackend.random_diag_l

    def wrong_character(self, rand):
        lam2, char = random_diag_l(self, rand)
        return lam2, 1.2 * char
    monkeypatch.setattr(orbit.FloatBackend, "random_diag_l", wrong_character)
    code, out, _ = run_cli(capsys, "verify", "orbit", "--model", "o2n2n", "--n", "2",
                           "--samples", "100000")
    assert code == cli.EXIT_FAIL
    assert "[FAIL] equivariance: diag l#0 ratio [gauss]" in out


def test_verify_json_report_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(capsys, "verify", "orbit", "--model", "gl2n", "--n", "2",
                             "--samples", "200000", "--seed", "7", "--json", str(p))
        assert code == 0
    payloads = []
    for p in paths:
        data = json.loads(p.read_text())
        data.pop("timestamp")
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]


def _assert_usage_error(capsys, *argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_fourier_rank_out_of_range_is_usage_error(capsys):
    _assert_usage_error(capsys, "fourier", "--model", "o2n2n", "--n", "9")


def test_tensor_audit_rank_out_of_range_is_usage_error(capsys):
    _assert_usage_error(capsys, "tensor", "audit", "--model", "o2n2n", "--n", "9", "--k", "2")


def test_table_unknown_family_is_usage_error(capsys):
    _assert_usage_error(capsys, "table", "--family", "bogus")


def test_fourier_too_few_samples_is_usage_error(capsys):
    _assert_usage_error(capsys, "fourier", "--model", "o2n2n", "--n", "2",
                        "--samples", "100")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_fourier_steps_below_one_is_usage_error(capsys, steps):
    _assert_usage_error(capsys, "fourier", "--model", "o2n2n", "--n", "2",
                        "--steps", steps, "--samples", "10000")


def test_opq_rank_contradicting_n_is_usage_error(capsys):
    _assert_usage_error(capsys, "fourier", "--model", "opq", "--p", "4", "--q", "4",
                        "--n", "3", "--steps", "1", "--samples", "10000")


def test_argparse_error_is_one_line(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--n", "2")
    assert code == cli.EXIT_USAGE
    assert err.splitlines() == [
        "minorbit verify: error: the following arguments are required: --model"]


@pytest.mark.parametrize("suite,samples", [
    ("orbit", "0"), ("orbit", "-1"),
    ("spherical", "0"), ("spherical", "-1"), ("spherical", "10"),
    ("all", "0"), ("all", "-1"), ("all", "10")])
def test_verify_too_few_samples_is_usage_error(capsys, suite, samples):
    _assert_usage_error(capsys, "verify", suite, "--model", "o2n2n", "--n", "2",
                        "--samples", samples)


def test_verify_orbit_accepts_few_samples(capsys):
    # the orbit suite never calls fourier_phi, so it takes any count >= 1
    code, _, err = run_cli(capsys, "verify", "orbit", "--model", "gl2n", "--n", "2",
                           "--samples", "100")
    assert code != cli.EXIT_USAGE and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("fourier", "--model", "gl2n", "--n", "2", "--steps", "1"),
    ("verify", "orbit", "--model", "o2n2n", "--n", "2"),
    ("verify", "spherical", "--model", "o2n2n", "--n", "2"),
    ("verify", "all", "--model", "gl2n", "--n", "2")])
@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_negative_seed_is_usage_error(capsys, argv, seed):
    # the Monte Carlo commands seed numpy generators, which reject seeds < 0
    _assert_usage_error(capsys, *argv, "--samples", "10000", "--seed", seed)


@pytest.mark.parametrize("suite", ["structural", "constants", "modular", "crown"])
def test_exact_suites_accept_negative_seed(capsys, suite):
    code, _, err = run_cli(capsys, "verify", suite, "--model", "gl2n", "--n", "2",
                           "--seed", "-3")
    assert code == cli.EXIT_PASS and not err


@pytest.mark.parametrize("argv", [
    ("bessel", "--tau", "nan", "--zmin", "1", "--zmax", "2", "--steps", "3"),
    ("bessel", "--tau", "inf", "--zmin", "1", "--zmax", "2", "--steps", "3"),
    ("bessel", "--tau", "1e300", "--zmin", "1", "--zmax", "2", "--steps", "3"),
    ("bessel", "--tau", "200", "--zmin", "1", "--zmax", "2", "--steps", "3"),
    ("bessel", "--tau", "0", "--zmin", "nan", "--zmax", "2", "--steps", "3"),
    ("bessel", "--tau", "0", "--zmin", "1", "--zmax", "inf", "--steps", "3"),
    ("fourier", "--model", "o2n2n", "--n", "2", "--tmin", "nan", "--samples", "10000"),
    ("fourier", "--model", "o2n2n", "--n", "2", "--tmax", "inf", "--samples", "10000")])
def test_nonfinite_or_huge_numeric_argument_is_usage_error(capsys, argv):
    _assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("argv,flag", [
    (("verify", "all", "--model", "o2n2n", "--n", "2", "--samples", "10000"), "--json"),
    (("tensor", "audit", "--model", "o2n2n", "--n", "3", "--k", "2"), "--json"),
    (("bessel", "--tau", "0", "--zmin", "1", "--zmax", "2", "--steps", "3"), "--out")])
def test_unwritable_output_is_usage_error_before_any_work(capsys, tmp_path, monkeypatch,
                                                          argv, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")
    for mod, name in ((cli.liealg, "structural_suite"), (cli.tensor, "audit_dual_pair"),
                      (cli.bessel, "bessel_k")):
        monkeypatch.setattr(mod, name, refuse)
    _assert_usage_error(capsys, *argv, flag, str(tmp_path / "missing" / "out.json"))
    _assert_usage_error(capsys, *argv, flag, str(tmp_path))  # a directory
    assert list(tmp_path.iterdir()) == []


def test_refused_bessel_table_leaves_no_file(capsys, tmp_path):
    out_path = tmp_path / "k.csv"
    _assert_usage_error(capsys, "bessel", "--tau", "1e300", "--zmin", "1", "--zmax", "2",
                        "--steps", "3", "--out", str(out_path))
    assert not out_path.exists()


@pytest.mark.parametrize("plain,spelled", [("-0.5", "-5e-1"), ("-1.5", "-1.5E+0"),
                                           ("-0.5", "-.5")])
def test_negative_value_in_any_float_spelling_is_a_number(capsys, plain, spelled):
    argv = ("bessel", "--zmin", "0.5", "--zmax", "2", "--steps", "3", "--tau")
    code_a, out_a, _ = run_cli(capsys, *argv, plain)
    code_b, out_b, err = run_cli(capsys, *argv, spelled)
    assert code_a == code_b == cli.EXIT_PASS and not err
    assert out_a == out_b


def test_fourier_negative_tmin_in_exponent_notation(capsys):
    argv = ("fourier", "--model", "o2n2n", "--n", "2", "--tmax", "0", "--steps", "2",
            "--samples", "10000", "--tmin")
    code_a, out_a, _ = run_cli(capsys, *argv, "-0.1")
    code_b, out_b, err = run_cli(capsys, *argv, "-1e-1")
    assert code_a == code_b == cli.EXIT_PASS and not err
    assert out_a == out_b


@pytest.mark.parametrize("argv,diagnostic", [
    (("bessel", "--tau", "-1e3", "--zmin", "1", "--zmax", "2", "--steps", "2"),
     "cannot be tabulated"),
    (("bessel", "--tau", "-inf", "--zmin", "1", "--zmax", "2", "--steps", "2"),
     "must be finite"),
    (("fourier", "--model", "o2n2n", "--n", "2", "--tmin", "-NaN", "--samples", "10000"),
     "must be finite")])
def test_negative_value_reaches_its_own_check(capsys, argv, diagnostic):
    # argparse used to take these for options ("expected one argument")
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE and diagnostic in err
    assert len(err.strip().splitlines()) == 1


_SAMPLED_COMMANDS = [
    ("verify", "spherical", "--model", "gl2n", "--n", "2"),
    ("verify", "orbit", "--model", "o2n2n", "--n", "2"),
    ("verify", "all", "--model", "gl2n", "--n", "2"),
    ("fourier", "--model", "o2n2n", "--n", "2", "--steps", "1")]


def _stub_sampled_work(monkeypatch, stub):
    for mod, name in ((cli.liealg, "structural_suite"), (cli.orbit, "scaling_check"),
                      (cli.orbit, "equivariance_check"),
                      (cli.sphver, "verify_spherical_direct"),
                      (cli.sphver, "m_invariance_check"), (cli.orbit, "fourier_phi")):
        monkeypatch.setattr(mod, name, stub)


@pytest.mark.parametrize("argv", _SAMPLED_COMMANDS)
@pytest.mark.parametrize("samples", [cli.orbit.MAX_SAMPLES + 1, 10 ** 12])
def test_huge_sample_count_is_usage_error_before_any_work(capsys, monkeypatch, argv,
                                                          samples):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --samples was checked")
    _stub_sampled_work(monkeypatch, refuse)
    _assert_usage_error(capsys, *argv, "--samples", str(samples))


@pytest.mark.parametrize("argv", _SAMPLED_COMMANDS)
def test_sample_count_at_the_cap_is_accepted(capsys, monkeypatch, argv):
    # the suites are stubbed, so nothing of that size is drawn
    def stub(m, *args, samples=None, seed=0, **kwargs):
        if argv[0] == "fourier":
            return cli.orbit.FourierEstimate(1.0 + 0j, 0.1, samples, seed)
        return cli.VerificationReport("stub")
    _stub_sampled_work(monkeypatch, stub)
    code, _, err = run_cli(capsys, *argv, "--samples", str(cli.orbit.MAX_SAMPLES))
    assert code == cli.EXIT_PASS and not err


_STEPPED_COMMANDS = [
    ("bessel", "--tau", "0.5", "--zmin", "1", "--zmax", "2"),
    ("fourier", "--model", "o2n2n", "--n", "2", "--samples", "10000")]


def _stub_stepped_work(monkeypatch, stub):
    monkeypatch.setattr(cli, "_write_bessel_table", stub)
    monkeypatch.setattr(cli.orbit, "fourier_phi", stub)


@pytest.mark.parametrize("argv", _STEPPED_COMMANDS)
@pytest.mark.parametrize("steps", [cli.orbit.MAX_STEPS + 1, 10 ** 9])
def test_huge_step_count_is_usage_error_before_any_work(capsys, monkeypatch, argv, steps):
    # the grid itself is work: np.linspace of 1e9 points alone takes 8 GB
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --steps was checked")
    _stub_stepped_work(monkeypatch, refuse)
    monkeypatch.setattr(cli.np, "linspace", refuse)
    _assert_usage_error(capsys, *argv, "--steps", str(steps))


class _WorkStarted(Exception):
    pass


@pytest.mark.parametrize("argv", _STEPPED_COMMANDS)
def test_step_count_at_the_cap_is_accepted(capsys, monkeypatch, argv):
    # the first row's work is stubbed to stop the run, so only the grid of
    # MAX_STEPS points is ever formed
    grids = []

    def start(*args, **kwargs):
        if argv[0] == "bessel":
            grids.append(args[2])
        raise _WorkStarted
    _stub_stepped_work(monkeypatch, start)
    with pytest.raises(_WorkStarted):
        cli.main([*argv, "--steps", str(cli.orbit.MAX_STEPS)])
    assert capsys.readouterr().err == ""
    if argv[0] == "bessel":
        assert len(grids[0]) == cli.orbit.MAX_STEPS


_FAMILY_TAGS = "gl2nR, o2n2n, e77, op2p2, spnC, gl2nC, o4nC, e7C, op4C, spnn, gl2nH"
_V2 = ("verify", "all", "--model", "o2n2n", "--n", "2")
_F2 = ("fourier", "--model", "o2n2n", "--n", "2", "--samples", "10000")


def _bessel(tau, zmin="1", zmax="2", steps="3"):
    return ("bessel", "--tau", tau, "--zmin", zmin, "--zmax", zmax, "--steps", steps)


@pytest.mark.parametrize("argv,line", [
    (("table", "--family", "bogus"), f"unknown family 'bogus' (choose from {_FAMILY_TAGS})"),
    (("verify", "all", "--model", "nope", "--n", "2"),
     "unknown model 'nope' (choose o2n2n, gl2n, or opq)"),
    (("verify", "constants", "--model", "o2n2n"), "missing --n"),
    (("verify", "constants", "--model", "o2n2n", "--n", "9"),
     "rank n=9 outside supported range [2, 6]"),
    (("fourier", "--model", "gl2n", "--n", "1"), "rank n=1 outside supported range [2, 6]"),
    (("verify", "all", "--model", "opq", "--p", "3", "--q", "5"),
     "O(3,5) excluded: rank-2 unequal multiplicities (p != q), "
     "the spherical-vector identities fail"),
    (("verify", "all", "--model", "opq", "--p", "4"), "model opq requires --p and --q"),
    (("verify", "all", "--model", "opq", "--q", "4"), "model opq requires --p and --q"),
    (("verify", "all", "--model", "opq", "--p", "3", "--q", "3"),
     "O(3,3) admissible (rank-2 family), but no matrix model is built"),
    (("verify", "all", "--model", "opq", "--p", "2", "--q", "2"),
     "O(2,2): rank below 2, no model"),
    (("tensor", "audit", "--model", "opq", "--p", "4", "--q", "4", "--n", "3", "--k", "2"),
     "--n 3 contradicts O(4,4), whose rank is p/2 = 2"),
    (("verify", "constants", "--model", "opq", "--p", "14", "--q", "14"),
     "rank n=7 outside supported range [2, 6]"),
    (("verify", "orbit", "--model", "o2n2n", "--n", "2", "--samples", "0"),
     "--samples must be at least 1 for verify orbit, got 0"),
    (("verify", "spherical", "--model", "o2n2n", "--n", "2", "--samples", "10"),
     "--samples must be at least 10000 for verify spherical, got 10"),
    (_V2 + ("--samples", "-1"), "--samples must be at least 10000 for verify all, got -1"),
    (_V2 + ("--samples", "10000001"),
     "--samples must be at most 10000000 for verify all, got 10000001"),
    (("verify", "orbit", "--model", "o2n2n", "--n", "2", "--seed", "-1"),
     "--seed must be non-negative for verify orbit, got -1"),
    (("fourier", "--model", "o2n2n", "--n", "2", "--samples", "100"),
     "--samples must be between 10000 and 10000000, got 100"),
    (_F2 + ("--steps", "0"), "--steps must be between 1 and 1000000, got 0"),
    (_F2 + ("--steps", "1000001"), "--steps must be between 1 and 1000000, got 1000001"),
    (_F2 + ("--seed", "-2"), "--seed must be non-negative, got -2"),
    (_F2 + ("--tmin", "-NaN"), "--tmin must be finite, got nan"),
    (_F2 + ("--tmax", "inf"), "--tmax must be finite, got inf"),
    (_F2 + ("--ray", "zz"), "unknown ray 'zz' (choose from ['e1', 'e2', 'mix'])"),
    (_bessel("-inf"), "--tau must be finite, got -inf"),
    (_bessel("0", zmin="nan"), "--zmin must be finite, got nan"),
    (_bessel("0", zmax="inf"), "--zmax must be finite, got inf"),
    (_bessel("0", zmin="-1"), "need 0 < zmin < zmax and steps >= 1"),
    (_bessel("0", zmin="3"), "need 0 < zmin < zmax and steps >= 1"),
    (_bessel("0", steps="0"), "need 0 < zmin < zmax and steps >= 1"),
    (_bessel("0", steps="1000001"), "--steps must be at most 1000000, got 1000001"),
    (_bessel("0.3"), "tau must be a half-integer, got 0.3"),
    (_bessel("-1e3"),
     "--tau -1000 cannot be tabulated: K integral overflows at 7 of 7 audit points of order "
     "1000"),
    (_bessel("1e300"), "--tau 1e+300 cannot be tabulated: K at order 1e+300 needs more "
                       "than 1000 recurrence steps"),
    (_bessel("0.5", zmin="1e-9", steps=str(cli.TABLE_BLOCK + 1)),
     "--zmin 1e-09 is below z=1e-08, where phi evaluation is refused (singular endpoint)"),
    (("tensor", "audit", "--model", "o2n2n", "--n", "2", "--k", "2"),
     "tensor audit needs 2 <= k < n, so n=2 admits no k"),
    (("tensor", "audit", "--model", "gl2n", "--n", "3", "--k", "3"),
     "tensor audit needs 2 <= k < n, and k=3 is outside [2, 3)"),
    (("tensor", "bogus", "--model", "o2n2n", "--n", "3", "--k", "2"),
     "minorbit tensor: error: argument action: invalid choice: 'bogus' "
     "(choose from 'audit')"),
    (("fourier", "--n", "2"),
     "minorbit fourier: error: the following arguments are required: --model"),
    (("table", "--extra"), "minorbit: error: unrecognized arguments: --extra"),
    (_bessel("180.5", steps="2"),
     "--tau 180.5 cannot be tabulated: K integral overflows at 4 of 7 audit points of order "
     "182.5 (tau 180.5 needs order 182.5)"),
    (_bessel("0.5", zmin="1e-320", steps="2"),
     "--zmin 1e-320 is below z=1e-08, where phi evaluation is refused (singular endpoint)"),
    (_F2 + ("--tmin", "1e308", "--tmax", "1.7e308", "--steps", "2"),
     "the transform estimate at t=1e+308 is not finite")])
def test_usage_error_prints_its_exact_line(capsys, argv, line):
    assert run_cli(capsys, *argv) == (cli.EXIT_USAGE, "", line + "\n")


@pytest.mark.parametrize("argv,flag", [
    (("verify", "constants", "--model", "o2n2n", "--n", "2"), "--json"),
    (("tensor", "audit", "--model", "o2n2n", "--n", "3", "--k", "2"), "--json"),
    (_bessel("0"), "--out")])
def test_unwritable_output_prints_its_exact_line(capsys, tmp_path, argv, flag):
    missing = tmp_path / "missing" / "out.json"
    for path, why in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        assert run_cli(capsys, *argv, flag, str(path)) == (
            cli.EXIT_USAGE, "", f"cannot write {path}: {why}\n")
    assert list(tmp_path.iterdir()) == []


def test_reused_parser_gives_the_output_of_a_fresh_one(capsys):
    # main builds its parser once; after a usage error the same parser
    # still reads the next command lines as a fresh one does
    calls = [("verify", "bogus", "--model", "o2n2n", "--n", "2"),
             ("verify", "structural", "--model", "o2n2n", "--n", "2"),
             ("bessel", "--tau", "0.5", "--zmin", "0.5", "--zmax", "3", "--steps", "6")]
    parser = cli.build_parser()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli.build_parser() is parser
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cli.build_parser() is not parser
    assert shared == fresh
    assert [code for code, _, _ in shared] == [cli.EXIT_USAGE, cli.EXIT_PASS, cli.EXIT_PASS]
    assert shared[0][1] == "" and shared[0][2].count("\n") == 1


def test_reused_parser_runs_the_command_bound_now(capsys, monkeypatch):
    assert run_cli(capsys, "table", "--format", "csv")[0] == cli.EXIT_PASS
    monkeypatch.setattr(cli, "cmd_table", lambda args: cli.EXIT_INCONCLUSIVE)
    assert run_cli(capsys, "table")[0] == cli.EXIT_INCONCLUSIVE


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "fourier", "--help")
    assert code == cli.EXIT_PASS and err == ""
    assert "o2n2n, gl2n, or opq (with --p/--q)" in out


def test_usage_errors_leave_only_through_main():
    # commands and helpers raise cli.UsageError; main alone prints it and
    # returns EXIT_USAGE, so no command grows a usage-error path of its own
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    stderr = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr == "stderr" and isinstance(node.value, ast.Name)
              and node.value.id == "sys"]
    assert stderr and all(id(node) in in_main for node in stderr)
    usage = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "EXIT_USAGE"]
    stores = [node for node in usage if isinstance(node.ctx, ast.Store)]
    assert len(stores) == 1
    assert all(id(node) in in_main for node in usage if node not in stores)
    assert any(id(node) in in_main for node in usage)
