"""Command-line interface: subcommands, exit codes, deterministic reports."""

import hashlib
import json

import pytest

from gaugeradii import certificates, cli, constructions, radii, theorems
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


@pytest.mark.parametrize("argv", [
    ["compute", "--body", "{hrep}", "--gauge", "{square}"],
    ["verify", "--suite", "chains", "--pair", "{pair}"],
], ids=["body-file", "pair-file"])
def test_halfspace_body_file_is_bad_input(capsys, body_files, tmp_path, argv):
    # the library reads halfspace JSON, the CLI works on vertex lists only
    square, _ = body_files
    triangle = {"dim": 2, "halfspaces": [
        {"normal": ["1", "0"], "offset": "1"},
        {"normal": ["0", "1"], "offset": "1"},
        {"normal": ["-1", "-1"], "offset": "1"},
    ]}
    hrep, pair = tmp_path / "hrep.json", tmp_path / "pair.json"
    hrep.write_text(json.dumps(triangle))
    with open(square) as fh:
        pair.write_text(json.dumps({"simplex": triangle, "gauge": json.load(fh)}))
    paths = {"hrep": str(hrep), "square": square, "pair": str(pair)}
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
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


def test_verify_triangle_conditions_dilated_sandwich_gauge(capsys):
    # the gauge 2S + (-S) is three times a mixed triangle gauge
    code, out, _ = run(capsys, [
        "verify", "--suite", "triangle-conditions", "--family", "sandwich",
        "--dim", "2", "--lambda", "2", "--mu", "1", "--reflect",
    ])
    assert code == 0
    assert json.loads(out)["results"] == {"checked": 1, "violations": 0}


def test_verify_chains_random_trials(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "chains", "--trials", "4",
                                "--seed", "11"])
    assert code == 0
    assert json.loads(out)["results"]["checked"] == 4


def test_verify_caches_stay_flat(capsys, monkeypatch):
    """Each verify instance starts with empty memo caches, so their size
    does not grow with ``--trials``; kept across instances, the caches
    grow, and the report is the same bytes either way."""
    argv = ["verify", "--suite", "simplex-conditions", "--trials", "6", "--seed", "3"]
    run_suite, clear = cli._run_suite, radii.clear_caches

    def sizes():
        return sum(cache.cache_info().currsize for cache in radii._CACHES)

    def recorded():
        before = []

        def sized(*args):
            before.append(sizes())
            return run_suite(*args)

        monkeypatch.setattr(cli, "_run_suite", sized)
        clear()
        code, out, _ = run(capsys, argv)
        assert code == 0
        return before, out

    before, out = recorded()
    assert before == [0] * 6 and sizes() > 0
    monkeypatch.setattr(radii, "clear_caches", lambda: None)
    kept, kept_out = recorded()
    assert all(a < b for a, b in zip(kept, kept[1:])), kept
    assert kept_out == out


def test_verify_files(capsys, body_files):
    square, triangle = body_files
    code, _, _ = run(capsys, ["verify", "--suite", "radius-bounds",
                              "--body", square, "--gauge", triangle])
    assert code == 0


def test_verify_needs_instances(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "chains"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("flag", ["--body", "--gauge"])
def test_verify_needs_body_and_gauge_together(capsys, body_files, flag):
    """One of --body and --gauge alone is an input error, even when another
    instance source is given, and nothing is verified."""
    code, out, err = run(capsys, ["verify", "--suite", "chains", flag, body_files[0],
                                  "--family", "sandwich"])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["status"] == "error"
    assert report["error"] == "verify needs both --body and --gauge, or neither"


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
    again: with cold caches, square in triangle takes 2 LP solves (the
    vertex-form LP that gives the translation and the contacts, and the
    weight LP; the value against a triangle is a closed form, and the
    planar hulls and the membership tests of ``validate``, sign checks per
    edge, take none) and prints exactly this report."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["certify", "--body", "square.json", "--gauge", "triangle.json"])
    assert code == 0
    assert solve_counter.count == 2
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


@pytest.mark.parametrize("argv, error, message", [
    (["compute", "--body", "{point}", "--gauge", "{square}", "--which", "jung"],
     radii.SinglePointBodyError, "positive diameter"),
    (["certify", "--body", "{point}", "--gauge", "{square}"],
     radii.SinglePointBodyError, "single point"),
    (["verify", "--suite", "triangle-conditions", "--family", "simplex", "--dim", "3"],
     theorems.NotPlanarError, "planar"),
    (["verify", "--suite", "chains", "--family", "sandwich", "--lambda", "1", "--mu", "2"],
     constructions.InvalidParameterError, "lam >= mu"),
    (["construct", "--family", "sandwich", "--lambda", "0", "--out", "{pair}"],
     constructions.InvalidParameterError, "lam >= mu"),
    (["verify", "--suite", "chains", "--family", "triangle-mix", "--lambda", "3/2"],
     constructions.InvalidParameterError, "[0, 1]"),
], ids=["jung", "certify", "triangle-3d", "sandwich-mu", "construct-lambda", "mix-lambda"])
def test_named_input_errors_exit_2(capsys, body_files, tmp_path, monkeypatch, argv, error, message):
    """Each input the library refuses with a named ``ValueError`` subclass
    exits 2, "error", with nothing on stdout; the error is the named class."""
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"]]}))
    paths = {"point": str(point), "square": body_files[0], "pair": str(tmp_path / "pair.json")}
    raised = []
    fail = cli._fail

    def recording(command, status, exc, code):
        raised.append(exc)
        return fail(command, status, exc, code)

    monkeypatch.setattr(cli, "_fail", recording)
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2 and out == ""
    assert json.loads(err)["status"] == "error" and message in json.loads(err)["error"]
    assert type(raised[0]) is error and issubclass(error, ValueError)


def test_plain_value_error_exits_3(capsys, body_files, monkeypatch):
    """A plain ``ValueError``, which no input check raises, is a fault of
    the program: exit 3, "internal-error", not bad input."""
    def broken(body):
        return max([])  # ValueError: max() arg is an empty sequence

    square, triangle = body_files
    monkeypatch.setattr(radii, "asymmetry", broken)
    code, out, err = run(capsys, ["compute", "--body", square, "--gauge", triangle,
                                  "--which", "s"])
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["status"] == "internal-error" and "empty" in report["error"]


@pytest.mark.parametrize("fault", [
    certificates.ExtractionError("the extracted certificate failed validation"),
    TypeError("unsupported operand type(s) for +: 'int' and 'tuple'"),
], ids=["extraction", "type"])
def test_internal_failure_exits_3(capsys, body_files, monkeypatch, fault):
    # a library fault is neither bad input (2) nor a failed property (1)
    def broken(body, gauge):
        raise fault

    square, triangle = body_files
    monkeypatch.setattr(certificates, "extract", broken)
    code, out, err = run(capsys, ["certify", "--body", square, "--gauge", triangle])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "command": "certify",
        "status": "internal-error",
        "error": str(fault),
    }


# The body files of the pinned diameter reports, written as they are here:
# each report carries the sha256 of its input files.
D_BODIES = {
    "square.json": {"dim": 2, "vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]]},
    "triangle.json": {"dim": 2, "vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]]},
    # -S and the max sandwich gauge of simplex_sandwich_pair(3, "3", "1", "max")
    "simplex.json": {"dim": 3, "vertices": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"],
                                            ["1", "1", "1"]]},
    "gauge.json": {"dim": 3, "vertices": [
        ["-4", "-4", "-2"], ["-4", "-2", "-4"], ["-2", "-4", "-4"], ["-2", "-2", "2"],
        ["-2", "2", "-2"], ["0", "2", "4"], ["0", "4", "2"], ["2", "-2", "-2"], ["2", "0", "4"],
        ["2", "4", "0"], ["4", "0", "2"], ["4", "2", "0"]]},
    "segment.json": {"dim": 2, "vertices": [["0", "0"], ["2", "1"]]},
    "point.json": {"dim": 2, "vertices": [["1/2", "1/3"]]},
}


@pytest.mark.parametrize("body, gauge, value, pair, digest", [
    ("square.json", "triangle.json", "4", [["-1", "1"], ["1", "-1"]],
     "6cb597d7016ef406c185e5c361ae55682e3efb4ce4a6e073e8aa5771a1f033df"),
    ("simplex.json", "gauge.json", "1/2", [["-1", "0", "0"], ["0", "-1", "0"]],
     "37e463b2e788355bf4c0c81968148f2a8857a1a664e3f0b6daab23da42603d42"),
    ("gauge.json", "simplex.json", "12", [["-4", "-4", "-2"], ["2", "4", "0"]],
     "087e8170ed85953a8a3988b45c0b8a8a1217ba2669f93cd47d9007e96e789b06"),
    ("segment.json", "segment.json", "2", [["0", "0"], ["2", "1"]],
     "5895f10030e4d167319290795b2ddabddddc9765f02d84b0cc8ae2d5ea83330d"),
    ("point.json", "triangle.json", "0", None,
     "9a48b98008e9410b253d09b8e55230f24b4cb47db910932de1589df17203dfa3"),
    ("square.json", "segment.json", "infinite", None,
     "553ed93f51b172af7cdce7feb17a14e284602379eed040b1e73bde9159778349"),
], ids=["planar", "spatial", "spatial-reversed", "flat-gauge", "one-point", "infinite"])
def test_compute_diameter_stdout_is_pinned(capsys, tmp_path, monkeypatch, body, gauge, value, pair, digest):
    """The bytes of ``compute --which D``, ``D_pair`` included, on integer
    images (full gauges) and on the per-pair norm loop (flat gauges)."""
    for name, data in D_BODIES.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["compute", "--body", body, "--gauge", gauge, "--which", "D"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["D"] == value and results.get("D_pair") == pair
    assert hashlib.sha256(out.encode()).hexdigest() == digest

