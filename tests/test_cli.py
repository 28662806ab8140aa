import csv
import gc
import io
import json
import math
import sys
import warnings

import pytest

from minorbit import cli
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


def test_bessel_usage_error(capsys):
    code, _, err = run_cli(capsys, "bessel", "--tau", "0", "--zmin", "-1",
                           "--zmax", "2", "--steps", "5")
    assert code == cli.EXIT_USAGE


def test_verify_constants_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "constants", "--model", "o2n2n", "--n", "2")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


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
    code, _, err = run_cli(capsys, "tensor", "audit", "--model", "o2n2n",
                           "--n", "2", "--k", "2")
    assert code == cli.EXIT_USAGE


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
