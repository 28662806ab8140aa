"""Golden `--json` reports of the exact suites, compared byte for byte.

The payloads, with `timestamp` removed, pin every residual's type (Fraction
residuals serialize as strings, integer ones as numbers), `meta["scalar"]`
of the Casimir check and its `detail="scalar ..."` string.

After an intended change of the reports, regenerate the golden file with
`PYTHONPATH=src python tests/test_exact_reports.py`.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from minorbit import cli

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "data" / "exact_reports.json"

CALLS = [
    [*head, "--model", model, "--n", n, *tail]
    for model in ("o2n2n", "gl2n")
    for head, n, tail in [(["verify", suite], "2", ["--seed", "0"])
                          for suite in ("structural", "constants", "modular", "crown")]
    + [(["verify", suite], "3", ["--seed", "0"])
       for suite in ("structural", "constants", "modular")]
    + [(["tensor", "audit"], n, ["--k", "2"]) for n in ("3", "4")]
    + [(["tensor", "audit"], "6", ["--k", k]) for k in ("2", "5")]
    + [(["verify", "constants"], "6", ["--seed", "0"])]
]


def exact_reports(tmp: pathlib.Path) -> str:
    """The golden file's text: every call's payload, keyed by its argv."""
    payloads = {}
    for i, argv in enumerate(CALLS):
        path = tmp / f"report-{i}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--json", str(path)])
        payload = json.loads(path.read_text())
        payload.pop("timestamp")
        payload["exit_code"] = code
        payloads[" ".join(argv)] = payload
    return json.dumps(payloads, indent=2, sort_keys=True) + "\n"


def test_exact_reports_match_golden(tmp_path):
    assert exact_reports(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(exact_reports(pathlib.Path(tmp)))
    sys.exit(0)
