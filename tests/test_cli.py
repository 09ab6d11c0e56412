"""Command-line interface: subcommands, exit codes, deterministic reports."""

import json

import pytest

from gaugeradii import certificates
from gaugeradii.bodies import body_from_json, body_to_json, canonicalize
from gaugeradii.cli import main
from gaugeradii.ratcore import vec


@pytest.fixture
def body_files(tmp_path):
    square = {"dim": 2, "vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]}
    triangle = {"dim": 2, "vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]]}
    square_path = tmp_path / "square.json"
    triangle_path = tmp_path / "triangle.json"
    square_path.write_text(json.dumps(square))
    triangle_path.write_text(json.dumps(triangle))
    return str(square_path), str(triangle_path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_square_vs_triangle(capsys, body_files):
    square, triangle = body_files
    code, out, _ = run(capsys, ["compute", "--body", square, "--gauge", triangle])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["results"]["R"] == "8/3"
    assert report["results"]["R_translation"] == ["-1/3", "-1/3"]
    assert report["results"]["r"] == "1"
    assert report["results"]["D"] == "4"
    assert "inputs" in report and len(report["inputs"]["body_sha256"]) == 64


def test_compute_self_gauge(capsys, body_files):
    square, _ = body_files
    code, out, _ = run(capsys, ["compute", "--body", square, "--gauge", square,
                                "--which", "R,r"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["R"] == "1" and report["results"]["r"] == "1"


def test_compute_approx_is_labeled(capsys, body_files):
    square, triangle = body_files
    code, out, _ = run(capsys, ["compute", "--body", square, "--gauge", triangle,
                                "--which", "R", "--approx"])
    report = json.loads(out)
    assert "non-normative" in report["approx"]["R"]


def test_compute_rejects_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [["0.5", "1"], ["1", "0"], ["0", "1"]]}))
    code, _out, err = run(capsys, ["compute", "--body", str(bad), "--gauge", str(bad)])
    assert code == 2
    assert "error" in err


def test_halfspace_body_file_is_bad_input(capsys, body_files, tmp_path):
    # the library reads halfspace JSON, the CLI works on vertex lists only
    square, _ = body_files
    hrep = tmp_path / "hrep.json"
    hrep.write_text(json.dumps({"dim": 2, "halfspaces": [
        {"normal": ["1", "0"], "offset": "1"},
        {"normal": ["0", "1"], "offset": "1"},
        {"normal": ["-1", "-1"], "offset": "1"},
    ]}))
    code, out, err = run(capsys, ["compute", "--body", str(hrep), "--gauge", square])
    assert code == 2 and out == ""
    assert "vertex representations" in json.loads(err)["error"]


def test_compute_deterministic_output(capsys, body_files):
    square, triangle = body_files
    _, out1, _ = run(capsys, ["compute", "--body", square, "--gauge", triangle])
    _, out2, _ = run(capsys, ["compute", "--body", square, "--gauge", triangle])
    assert out1 == out2


def test_verify_simplex_conditions_family(capsys):
    code, out, _ = run(capsys, [
        "verify", "--suite", "simplex-conditions", "--family", "sandwich",
        "--dim", "2", "--lambda", "1", "--mu", "1/2", "--reflect",
    ])
    assert code == 0
    assert json.loads(out)["results"]["violations"] == 0


def test_verify_triangle_conditions_all_false_still_consistent(capsys):
    # lam = 3/5 gives an all-false vector; consistency is the contract
    code, out, _ = run(capsys, [
        "verify", "--suite", "triangle-conditions", "--family", "triangle-mix",
        "--lambda", "3/5",
    ])
    assert code == 0


def test_verify_chains_random_trials(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "chains", "--trials", "4",
                                "--seed", "11"])
    assert code == 0
    assert json.loads(out)["results"]["checked"] == 4


def test_verify_files(capsys, body_files):
    square, triangle = body_files
    code, _, _ = run(capsys, ["verify", "--suite", "radius-bounds",
                              "--body", square, "--gauge", triangle])
    assert code == 0


def test_verify_needs_instances(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "chains"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "chains", "--family", "random"],
    ["construct", "--family", "random", "--out", "x"],
])
def test_family_random_is_not_a_choice(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["explore", "--dim", "0"],
    ["explore", "--dim", "-1"],
    ["explore", "--trials", "-5"],
    ["explore", "--trials", "0"],
    ["verify", "--suite", "chains", "--family", "sandwich", "--dim", "0"],
    ["verify", "--suite", "simplex-conditions", "--trials", "-2"],
    ["construct", "--family", "simplex", "--dim", "1"],
    ["explore", "--dim", "two"],
])
def test_out_of_range_counts_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --dim" in err or "argument --trials" in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--suite", "chains", "--family", "sandwich", "--approx"], "--approx"),
    (["construct", "--family", "simplex", "--approx"], "--approx"),
    (["explore", "--trials", "1", "--approx"], "--approx"),
    (["construct", "--family", "simplex", "--body", "b.json"], "--body"),
    (["construct", "--family", "simplex", "--gauge", "g.json"], "--gauge"),
    (["explore", "--trials", "1", "--body", "b.json"], "--body"),
    (["explore", "--trials", "1", "--gauge", "g.json"], "--gauge"),
])
def test_options_a_command_ignores_are_rejected(capsys, argv, flag):
    """Only compute and certify read --approx, and only compute, certify and
    verify read --body and --gauge; elsewhere they are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"unrecognized arguments: {flag}" in err


def test_construct_verify_round_trip(capsys, tmp_path):
    pair_path = tmp_path / "pair.json"
    code, _, _ = run(capsys, ["construct", "--family", "spiked", "--dim", "3",
                              "--out", str(pair_path)])
    assert code == 0
    code, _, _ = run(capsys, ["verify", "--suite", "ratio-bounds",
                              "--pair", str(pair_path)])
    assert code == 0
    code, _, _ = run(capsys, ["verify", "--suite", "simplex-conditions",
                              "--pair", str(pair_path), "--reflect"])
    assert code == 0


def test_construct_sandwich_and_verify(capsys, tmp_path):
    pair_path = tmp_path / "sandwich.json"
    code, _, _ = run(capsys, ["construct", "--family", "sandwich", "--dim", "2",
                              "--lambda", "3", "--mu", "1", "--variant", "max",
                              "--out", str(pair_path)])
    assert code == 0
    assert json.loads(pair_path.read_text())["family"] == "sandwich-max"
    code, _, _ = run(capsys, ["verify", "--suite", "simplex-conditions",
                              "--pair", str(pair_path), "--reflect"])
    assert code == 0


def test_certify_emits_valid_certificate(capsys, body_files, tmp_path):
    square, triangle = body_files
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, ["certify", "--body", square, "--gauge", triangle,
                                "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["results"]["valid"] is True
    # the emitted certificate re-validates when read back
    cert = certificates.certificate_from_json(report["results"]["certificate"])
    square_body = canonicalize(body_from_json(json.loads(open(square).read())))
    gauge_body = canonicalize(body_from_json(json.loads(open(triangle).read())))
    from gaugeradii.ratcore import rat

    scaled = certificates.scaled_gauge_body(
        gauge_body,
        rat(report["results"]["circumradius"]),
        vec(report["results"]["translation"]),
    )
    assert certificates.validate(square_body, scaled, cert)


def test_certify_validates_once(capsys, body_files, tmp_path, monkeypatch, solve_counter):
    """``extract`` ends in ``validate``, so ``certify`` does not validate
    again: with cold caches, square in triangle takes 3 LP solves (the
    facet-form circumradius value, the vertex-form LP that gives the
    translation and the contacts, and the weight LP; the planar hulls and
    the membership tests of ``validate``, sign checks per edge, take none)
    and prints exactly this report."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["certify", "--body", "square.json", "--gauge", "triangle.json"])
    assert code == 0
    assert solve_counter.count == 3
    expected = {
        "arguments": {"body": "square.json", "gauge": "triangle.json"},
        "command": "certify",
        "inputs": {
            "body_sha256": "1cc0da5e1bc9dd098fbfb7812aa1c7b311a5d883b523913f0a26714e820d6088",
            "gauge_sha256": "dbec2664fbe781b9cc2dd28bd9f9ca3cc18b315da742973ff49d9ef60ea6da16",
        },
        "results": {
            "certificate": {
                "contacts": [["-1", "1"], ["1", "-1"], ["1", "1"]],
                "normals": [["-2/3", "1/3"], ["1/3", "-2/3"], ["1/3", "1/3"]],
                "weights": ["1/3", "1/3", "1/3"],
            },
            "circumradius": "8/3",
            "translation": ["-1/3", "-1/3"],
            "valid": True,
        },
        "status": "ok",
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_explore_finds_no_hits(capsys):
    code, out, _ = run(capsys, ["explore", "--trials", "12", "--seed", "5", "--dim", "2"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["hits"] == []
    assert results["trials"] == 12


def test_compute_on_family_files(capsys, tmp_path):
    # D(S, C) = 4/3 for the sandwich gauge at (lam, mu) = (1, 1/2)
    from gaugeradii.constructions import simplex_sandwich_pair

    pair = simplex_sandwich_pair(2, "1", "1/2", "min")
    body_path = tmp_path / "body.json"
    gauge_path = tmp_path / "gauge.json"
    body_path.write_text(json.dumps(body_to_json(pair.simplex)))
    gauge_path.write_text(json.dumps(body_to_json(pair.gauge)))
    code, out, _ = run(capsys, ["compute", "--body", str(body_path),
                                "--gauge", str(gauge_path), "--which", "D"])
    assert code == 0
    assert json.loads(out)["results"]["D"] == "4/3"


def test_remaining_suites_run_clean(capsys, body_files):
    square, triangle = body_files
    for suite in ("breadth-bounds", "ratio-bounds", "sandwich", "ratio-laws", "chains"):
        code, _, _ = run(capsys, ["verify", "--suite", suite,
                                  "--body", triangle, "--gauge", square])
        assert code == 0, suite


@pytest.mark.parametrize("suite, chain", [
    ("chains", "bohnenblust"),
    ("sandwich", "extended-jung"),
])
def test_one_point_body_is_bad_input(capsys, body_files, tmp_path, suite, chain):
    # D(K, C) = 0 for a one-point body, so ratios over D are undefined
    square, _ = body_files
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"]]}))
    code, out, err = run(capsys, ["verify", "--suite", suite,
                                  "--body", str(point), "--gauge", square])
    assert code == 2 and out == ""
    assert repr(chain) in json.loads(err)["error"]


@pytest.mark.parametrize("gauge", ["square", "triangle"])
def test_one_point_body_radius_bounds_is_bad_input(capsys, body_files, tmp_path, gauge):
    # R(K, C) = s(K) r(K, -C) = 0 for a one-point body, which would trigger
    # a follow-up that needs a full-dimensional body
    gauges = dict(zip(("square", "triangle"), body_files))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"]]}))
    code, out, err = run(capsys, ["verify", "--suite", "radius-bounds",
                                  "--body", str(point), "--gauge", gauges[gauge]])
    assert code == 2 and out == ""
    assert "R(K, C)" in json.loads(err)["error"]


def test_verify_violation_reports_counterexample(capsys, body_files, monkeypatch):
    # force a failing suite outcome to exercise the exit-1 reporting path
    import gaugeradii.cli as cli_mod

    square, triangle = body_files
    monkeypatch.setattr(cli_mod, "_run_suite", lambda *a: (False, {"forced": True}))
    code, out, _ = run(capsys, ["verify", "--suite", "chains",
                                "--body", square, "--gauge", triangle])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "violation"
    dump = report["results"]["counterexample"]
    assert dump["details"] == {"forced": True}
    assert "vertices" in dump["body"]


def test_internal_failure_exits_3(capsys, body_files, monkeypatch):
    # a library fault is neither bad input (2) nor a failed property (1)
    def broken(body, gauge):
        raise certificates.ExtractionError("the extracted certificate failed validation")

    square, triangle = body_files
    monkeypatch.setattr(certificates, "extract", broken)
    code, out, err = run(capsys, ["certify", "--body", square, "--gauge", triangle])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "command": "certify",
        "status": "internal-error",
        "error": "the extracted certificate failed validation",
    }
