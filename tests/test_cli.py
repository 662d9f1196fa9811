import ast
import csv
import hashlib
import inspect
import io
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framescale
from framescale import cli, frames, multiplier, verify
from framescale.frames import FramePair
from framescale.instances import gaussian_pair, generate
from framescale.multiplier import (norm_lower_alternating, norm_oracle_grid,
                                   phi_lower)
from framescale.rescale import optimize
from framescale.verify import VerificationError

from conftest import VERIFY_CHECK_ARGUMENTS


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.frame.json"
    b = tmp_path / "b.frame.json"
    argv = ["gen", "--kind", "gaussian", "--n", "3", "--d", "2", "--seed", "11"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_corpus_directory(tmp_path):
    out = tmp_path / "corpus"
    assert cli.main(["gen", "--kind", "gaussian", "--n", "3", "--d", "2",
                     "--instances", "3", "--seed", "5",
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"instance-{i:03d}.frame.json" for i in range(3)]
    corpus = cli.load_corpus(str(out))
    assert [label for label, _, _ in corpus] == [f"instance-{i:03d}"
                                                for i in range(3)]
    # distinct draws from one seeded stream
    assert not np.array_equal(corpus[0][1].xs, corpus[1][1].xs)


def test_instance_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    # -0.0 == 0.0, so only the bytes show a lost sign of zero
    zeros = FramePair(
        np.array([[complex(-0.0, -0.0), 1.0], [complex(1.0, -0.0), 0.5j]]),
        np.array([[complex(-0.0, 2.0), 1.0], [1.0, complex(0.25, -0.0)]]))
    for pair in (gaussian_pair(rng, 4, 3), zeros):
        path = tmp_path / "inst.frame.json"
        cli.save_instance(str(path), pair,
                          metadata={"description": "round trip"})
        back, metadata = cli.load_instance(str(path))
        assert metadata == {"description": "round trip"}
        assert back.xs.tobytes() == pair.xs.tobytes()
        assert back.ys.tobytes() == pair.ys.tobytes()
        # re-serialization is bit-identical
        assert cli.serialize_instance(back, metadata) == path.read_text()


def test_instance_file_layout_one_vector_pair_per_entry(tmp_path):
    rng = np.random.default_rng(8)
    pair = gaussian_pair(rng, 3, 2)
    doc = json.loads(cli.serialize_instance(pair))
    assert doc["format_version"] == 1
    assert doc["dim"] == 2
    assert len(doc["pairs"]) == 3
    entry = doc["pairs"][0]
    assert len(entry["x"]) == 2 and len(entry["y"]) == 2
    assert entry["x"][0] == [pair.xs[0, 0].real, pair.xs[0, 0].imag]


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1,\n  "dim": oops}')
    with pytest.raises(cli.InstanceFormatError, match="line 2"):
        cli.load_instance(str(path))


def test_load_reports_field_path(tmp_path):
    # a coordinate is an int or a float: json's true is a bool and "1.0"
    # a string, and either is refused at its place
    for x, y, where in (([[0.0, 0.0], [1.0]], [[1.0, 0.0], [0.0, 0.0]],
                         r"pairs\[0\].x\[1\]"),
                        ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, True]],
                         r"pairs\[0\].y\[1\]"),
                        ([[1.0, 0.0], ["1.0", 0.0]], [[1.0, 0.0], [0.0, 1]],
                         r"pairs\[0\].x\[1\]")):
        doc = {"format_version": 1, "dim": 2, "pairs": [{"x": x, "y": y}],
               "metadata": {}}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.InstanceFormatError, match=where):
            cli.load_instance(str(path))


def test_load_refuses_a_side_that_is_not_dim_coordinates(tmp_path):
    # each side of a pair is a list of exactly dim coordinates; the
    # message names the side and what it holds instead
    for pairs, where in (([{"x": [[1.0, 0.0]], "y": [[1.0, 0.0], [0.0, 0.0]]}],
                          r"pairs\[0\]\.x: expected 2 coordinates, got 1"),
                         ([{"x": [[1.0, 0.0], [0.0, 0.0]], "y": "01"}],
                          r"pairs\[0\]\.y: expected 2 coordinates, got str"),
                         ([{"x": [[1.0, 0.0], [0.0, 0.0]]}],
                          r"pairs\[0\]\.y: expected 2 coordinates, got NoneType")):
        path = tmp_path / "side.json"
        path.write_text(json.dumps({"format_version": 1, "dim": 2,
                                    "pairs": pairs}))
        with pytest.raises(cli.InstanceFormatError, match=where):
            cli.load_instance(str(path))


def test_reports_refuse_a_value_json_cannot_hold():
    assert cli._numpy_value(np.float32(0.5)) == 0.5
    with pytest.raises(TypeError, match="complex is not JSON serializable"):
        cli._numpy_value(1j)
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli._json_text({"value": object()})


def test_load_rejects_zero_vector(tmp_path):
    doc = {"format_version": 1, "dim": 1,
           "pairs": [{"x": [[0.0, 0.0]], "y": [[1.0, 0.0]]}],
           "metadata": {}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.InstanceFormatError):
        cli.load_instance(str(path))


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "ver.json"
    path.write_text(json.dumps({"format_version": 99, "dim": 1,
                                "pairs": [], "metadata": {}}))
    with pytest.raises(cli.InstanceFormatError, match="format_version"):
        cli.load_instance(str(path))


@pytest.mark.parametrize("doc, message", [
    ([], "top level must be an object"),
    ({"format_version": 1, "dim": 0, "pairs": []},
     "'dim' must be a positive integer"),
    ({"format_version": 1, "dim": "2", "pairs": []},
     "'dim' must be a positive integer"),
    ({"format_version": 1, "dim": True, "pairs": [{"x": [[1.0, 0.0]],
                                                   "y": [[1.0, 0.0]]}]},
     "'dim' must be a positive integer"),
    ({"format_version": True, "dim": 1, "pairs": [{"x": [[1.0, 0.0]],
                                                   "y": [[1.0, 0.0]]}]},
     "format_version must be 1, got True"),
    ({"format_version": 1, "dim": 1, "pairs": []},
     "'pairs' must be a nonempty list"),
    ({"format_version": 1, "dim": 1, "pairs": {"x": [[1.0, 0.0]]}},
     "'pairs' must be a nonempty list"),
    ({"format_version": 1, "dim": 1, "pairs": [[[1.0, 0.0]]]},
     r"pairs\[0\]: expected an object"),
], ids=["top_level", "dim_zero", "dim_text", "dim_true", "version_true",
        "pairs_empty", "pairs_object", "pair_list"])
def test_analyze_exits_two_on_a_malformed_instance_file(doc, message,
                                                        tmp_path, capsys):
    path = tmp_path / "bad.frame.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_USAGE
    assert re.search(message, capsys.readouterr().err)


def test_load_corpus_rejects_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(cli.InstanceFormatError, match="no instance files"):
        cli.load_corpus(str(empty))


def test_load_corpus_labels_drop_the_suffix(tmp_path):
    pair = gaussian_pair(np.random.default_rng(3), 3, 2)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a.frame.json", "b.json", "c.v2.json"):
        cli.save_instance(str(corpus / name), pair)
    assert [label for label, _, _ in cli.load_corpus(str(corpus))] == \
        ["a", "b", "c.v2"]
    for name, label in (("a.frame.json", "a"), ("b.json", "b"),
                        ("c.v2.json", "c.v2")):
        [(got, _, _)] = cli.load_corpus(str(corpus / name))
        assert got == label


def test_main_maps_format_errors_to_usage_exit(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_USAGE


def test_invalid_generator_kind_exits_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["gen", "--kind", "nonsense", "--out",
                  str(tmp_path / "x.json")])
    assert info.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["gen", "--instances", "0"], "--instances: must be at least 1, got 0"),
    (["gen", "--n", "0"], "--n: must be at least 1, got 0"),
    (["gen", "--d", "-2"], "--d: must be at least 1, got -2"),
    (["gen", "--n", "four"], "--n: expected an integer, got 'four'"),
    (["analyze", "--phase-steps", "-5"], "--phase-steps: must be 0 or at least 8"),
    (["analyze", "--phase-steps", "4"], "--phase-steps: must be 0 or at least 8"),
    (["bench", "--phase-steps", "7"], "--phase-steps: must be 0 or at least 8"),
    # the CSV twin of a report at res.csv is res.csv itself
    *[([command, "--out", "res.csv"], "--out: 'res.csv' ends in .csv")
      for command in ("analyze", "rescale", "verify", "bench")]],
    ids=["gen-instances", "gen-n", "gen-d", "gen-text", "analyze-negative",
         "analyze-coarse", "bench-coarse", "analyze-csv", "rescale-csv",
         "verify-csv", "bench-csv"])
def test_bad_counts_exit_two_before_any_work(argv, message, tmp_path, capsys,
                                             monkeypatch):
    # each is refused while parsing: no file is written and no ascent runs
    inst = tmp_path / "one.frame.json"
    cli.save_instance(str(inst), gaussian_pair(np.random.default_rng(7), 4, 2))
    monkeypatch.setattr(cli, "norm_lower_alternating", None)
    monkeypatch.chdir(tmp_path)
    where = ["--in", str(inst)] if argv[0] in ("analyze", "rescale") else []
    out = [] if "--out" in argv else ["--out", "out"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + where + out)
    assert info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: framescale ") and message in err
    assert os.listdir(tmp_path) == [inst.name]
    # the smallest counts are accepted
    assert cli.main(["gen", "--n", "1", "--d", "1", "--instances", "1",
                     "--out", "out"]) == 0


def test_d1_scalars_refuses_other_dimensions(tmp_path, capsys):
    # d1_scalars draws scalar pairs, so a larger d is an error, not a
    # silently one-dimensional file
    with pytest.raises(ValueError, match="d=3"):
        generate("d1_scalars", np.random.default_rng(0), 4, 3)
    out = tmp_path / "x.frame.json"
    assert cli.main(["gen", "--kind", "d1_scalars", "--n", "4", "--d", "3",
                     "--out", str(out)]) == 2
    assert "d1_scalars needs d=1" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["gen", "--kind", "d1_scalars", "--n", "4", "--d", "1",
                     "--out", str(out)]) == 0
    assert cli.load_instance(str(out))[0].dim == 1


def test_scaling_range_reaches_only_schauder_mangled(tmp_path):
    # --scaling-range sets the mangling scalars of schauder_mangled and
    # nothing else; d1_scalars keeps its fixed range
    def drawn(kind, d, scaling):
        out = tmp_path / f"{kind}-{'-'.join(scaling)}.frame.json"
        assert cli.main(["gen", "--kind", kind, "--n", "4", "--d", str(d),
                         "--seed", "3", "--scaling-range", *scaling,
                         "--out", str(out)]) == 0
        return cli.load_instance(str(out))[0]

    for kind, d in (("gaussian", 2), ("onb_union", 2), ("d1_scalars", 1)):
        a, b = drawn(kind, d, ("1e-3", "1e3")), drawn(kind, d, ("1", "2"))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    a = drawn("schauder_mangled", 2, ("1e-3", "1e3"))
    b = drawn("schauder_mangled", 2, ("1", "2"))
    assert not np.array_equal(a.xs, b.xs)


def test_rescale_scalar_corpus_hits_closed_form(tmp_path):
    corpus = tmp_path / "scalars"
    out = tmp_path / "res.json"
    assert cli.main(["gen", "--kind", "d1_scalars", "--n", "3", "--d", "1",
                     "--instances", "2", "--seed", "5",
                     "--out", str(corpus)]) == 0
    assert cli.main(["rescale", "--in", str(corpus), "--out", str(out)]) == 0
    report = read_json(str(out))
    assert report["summary"]["failures"] == 0
    # at d = 1 the ascent and the certified bound both meet the closed form
    assert 1.0 - 1e-12 <= report["summary"]["max_ratio"] <= 1.0 + 1e-6
    for (_, pair, _), rec in zip(cli.load_corpus(str(corpus)),
                                 report["records"]):
        closed = float(np.sum(np.abs(pair.xs[:, 0] * pair.ys[:, 0])))
        assert rec["M_upper"] == pytest.approx(closed, rel=1e-6)
        assert rec["phi_norm_lower"] == pytest.approx(closed, rel=1e-12)
        assert rec["check_results"]["bound_respected"]


def test_rescale_always_reports_ratio(tmp_path):
    inst = tmp_path / "one.frame.json"
    out = tmp_path / "res.json"
    assert cli.main(["gen", "--kind", "gaussian", "--n", "3", "--d", "2",
                     "--seed", "1", "--out", str(inst)]) == 0
    assert cli.main(["rescale", "--in", str(inst), "--out", str(out)]) == 0
    report = read_json(str(out))
    rec = report["records"][0]
    assert rec["ratio"] == rec["M_upper"] / rec["phi_norm_lower"]
    assert rec["ratio"] >= 1.0 - 1e-12
    assert report["summary"]["max_ratio"] == rec["ratio"]
    assert "phi_norm_oracle" not in rec
    header = (tmp_path / "res.csv").read_text().splitlines()[0].split(",")
    assert "ratio" in header


@pytest.mark.parametrize("argv", [["verify", "--suite", "ratio"],
                                  ["rescale", "--in", "one.frame.json"]],
                         ids=["verify", "rescale"])
def test_phase_steps_flag_is_gone(argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--phase-steps", "8"])
    assert info.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("command", [["analyze", "--phase-steps", "8"],
                                     ["rescale", "--dilation"]],
                         ids=["analyze", "rescale"])
def test_benchmark_command_lines_still_parse(command, tmp_path):
    # the benchmark harness passes --seed 0, which these two commands
    # accept and ignore
    inst = tmp_path / "one.frame.json"
    cli.save_instance(str(inst), gaussian_pair(np.random.default_rng(7), 4, 2))
    argv = [*command, "--in", str(inst), "--seed", "0",
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0


def test_rescale_dilation_runs_on_an_index_mangled_by_ten_to_the_80(tmp_path):
    # a mangling by 10^80 and 10^-80 leaves every x_k y_k^*; the balanced
    # pair is the unmangled one's, so the bracket and dilation still build
    pair = generate("gaussian", np.random.default_rng(3), 6, 3)
    beta = np.array([1e80, 1.0, 1.0, 1.0, 1.0, 1e-80])
    inst = tmp_path / "mangled.frame.json"
    cli.save_instance(str(inst), FramePair(beta[:, None] * pair.xs,
                                           pair.ys / beta[:, None]))
    out = tmp_path / "res.json"
    assert cli.main(["rescale", "--dilation", "--in", str(inst),
                     "--out", str(out)]) == 0
    rec = read_json(str(out))["records"][0]
    assert rec["check_results"]["dilation_isometric"]
    want = optimize(pair).m_upper
    assert abs(rec["M_upper"] - want) <= 1e-14 * want


def test_rescale_dilation_runs_where_a_weight_passes_e_to_the_1400(tmp_path):
    # x_0 y_0^* of size 1e-20 balances to e_0 = -1030, so the caller's
    # log-weight t_0 is about 1427 and e^{t_0 / 2} is no float; the
    # rescaled pair is read off the balanced rows instead
    pair = generate("gaussian", np.random.default_rng(3), 6, 3)
    xs, ys = pair.xs.copy(), pair.ys.copy()
    xs[0] *= 1e-320
    ys[0] *= 1e300
    inst = tmp_path / "far.frame.json"
    cli.save_instance(str(inst), FramePair(xs, ys))
    out = tmp_path / "res.json"
    assert cli.main(["rescale", "--dilation", "--in", str(inst),
                     "--out", str(out)]) == 0
    rec = read_json(str(out))["records"][0]
    assert rec["weights"][0] > 1420.0
    assert rec["check_results"]["bound_respected"]
    assert rec["check_results"]["dilation_isometric"]


@pytest.mark.parametrize("beta, names", [
    ((1e300, 1.0, 1.0, 1.0, 1.0, 1.0), "xs"),
    ((1e300, 1.0, 1.0, 1.0, 1.0, 1e-300), "xs and of ys")],
    ids=["xs", "both"])
def test_analyze_names_the_family_whose_frame_operator_is_no_float(
        beta, names, tmp_path, capsys):
    # the pair is a mangling of a gaussian one, so rescale runs on it; its
    # frame bounds in the caller's units are near 1e600, which analyze
    # refuses, naming each family that overflows
    pair = generate("gaussian", np.random.default_rng(3), 6, 3)
    beta = np.array(beta)
    inst = tmp_path / "far.frame.json"
    cli.save_instance(str(inst), FramePair(beta[:, None] * pair.xs,
                                           pair.ys / beta[:, None]))
    assert cli.main(["analyze", "--in", str(inst)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"the frame operator of {names} leaves the float range" in err
    assert cli.main(["rescale", "--dilation", "--in", str(inst)]) == 0


def test_rescale_refuses_a_pair_whose_bracket_is_no_float(tmp_path, capsys):
    # x_1 y_1^* near 2^1025: no bracket of it is a float, so the instance
    # is refused on load rather than reported as inf
    doc = {"format_version": 1, "dim": 2,
           "pairs": [{"x": [[1.5e308, 1.5e308], [0.0, 0.0]],
                      "y": [[1.0, 0.0], [1.0, 0.0]]}],
           "metadata": {}}
    inst = tmp_path / "huge.frame.json"
    inst.write_text(json.dumps(doc))
    assert cli.main(["rescale", "--dilation", "--in", str(inst),
                     "--out", str(tmp_path / "res.json")]) == cli.EXIT_USAGE
    assert "not a normal float" in capsys.readouterr().err


@pytest.mark.parametrize("first, second, key", [
    (["analyze", "--phase-steps", "8"], ["analyze"], "phi_norm_oracle"),
    (["rescale", "--dilation"], ["rescale"], "dilation_defect")],
    ids=["analyze", "rescale"])
def test_main_reuses_one_parser_and_no_options(first, second, key, tmp_path,
                                               monkeypatch):
    # main parses with one parser per process; an option given to one call
    # must not reach the next
    inst = tmp_path / "one.frame.json"
    cli.save_instance(str(inst), gaussian_pair(np.random.default_rng(7), 4, 2))
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    assert cli.main([*first, "--in", str(inst), "--out", str(outs[0])]) == 0

    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert cli.main([*second, "--in", str(inst), "--out", str(outs[1])]) == 0
    recs = [read_json(str(out))["records"][0] for out in outs]
    keys = [set(rec) | set(rec["check_results"]) for rec in recs]
    assert key in keys[0]
    assert key not in keys[1]


def test_verify_ratio_suite_through_the_cli(tmp_path, capsys):
    out = tmp_path / "ratio.json"
    assert cli.main(["verify", "--suite", "ratio", "--seed", "0",
                     "--out", str(out)]) == 0
    report = read_json(str(out))
    records, summary = report["records"], report["summary"]
    assert len(records) == summary["instances"] == 200
    assert summary["max_ratio"] == max(r["ratio"] for r in records)
    assert summary["max_ratio"] <= 2.1
    assert summary["pinned"] == sum(r["phi_gap"] <= 1e-9 for r in records)
    assert summary["phi_routes"] == {
        route: sum(r["phi_route"] == route for r in records)
        for route in ("pure", "ascent")}
    for r in records:
        assert r["ratio"] == r["m_upper"] / r["phi_norm"] >= 1.0 - 1e-12
        assert r["phi_gap"] == (r["m_upper"] - r["phi_norm"]) / r["m_upper"]
        assert r["witness_defect"] <= 1e-12
    assert summary["failures"] == 0
    assert capsys.readouterr().out.startswith("PASS ratio in ")


def test_analyze_diagonalises_and_validates_each_pair_once(tmp_path,
                                                          monkeypatch):
    # one stacked LAPACK call per record for the two frame operators, and
    # no family checked again after load_instance built the pair; the
    # ascent builds the pair's balanced pair, whose two families are
    # checked once
    corpus = tmp_path / "corpus"
    assert cli.main(["gen", "--kind", "gaussian", "--n", "4", "--d", "3",
                     "--instances", "3", "--out", str(corpus)]) == 0
    events = []
    eigh, check_vectors = frames.eigh, frames._check_vectors
    load_instance = cli.load_instance

    def counted(mat):
        events.append(("eigh", np.shape(mat)))
        return eigh(mat)

    def checked(vectors, name):
        events.append(("check", name))
        return check_vectors(vectors, name)

    def loaded(path):
        out = load_instance(path)
        events.append(("loaded", None))
        return out

    for module in (cli, frames):
        monkeypatch.setattr(module, "eigh", counted)
    monkeypatch.setattr(frames, "_check_vectors", checked)
    monkeypatch.setattr(cli, "load_instance", loaded)
    assert cli.main(["analyze", "--in", str(corpus),
                     "--out", str(tmp_path / "an.json")]) == 0
    assert events == 3 * [("check", "xs"), ("check", "ys"), ("loaded", None)] \
        + 3 * [("eigh", (2, 3, 3)), ("check", "xs"), ("check", "ys")]


def test_rescale_records_stats_and_one_ascent(tmp_path):
    pair = gaussian_pair(np.random.default_rng(6), 4, 2)
    inst = tmp_path / "one.frame.json"
    out = tmp_path / "res.json"
    cli.save_instance(str(inst), pair)
    assert cli.main(["rescale", "--in", str(inst), "--seed", "2",
                     "--out", str(out)]) == 0
    rec = read_json(str(out))["records"][0]
    phi = phi_lower(optimize(pair))
    assert rec["phi_norm_lower"] == phi.value
    stats = rec["stats"]
    # the one ascent is optimize's pure route, which closes this pair's
    # bracket with no Newton stage; phi is read off the bracket once per
    # record, in the CLI, and timed there, and being pinned runs no ascent
    assert phi.method == "pure"
    assert stats["phi_route"] == "pure"
    assert stats["ascent_iterations"] == 0
    assert stats["ascent_extrapolations"] == 0
    assert set(stats) == {"stages", "newton_steps",
                          "line_search_candidates", "eigh_calls",
                          "pure_svds", "phi_route", "phi_s",
                          "ascent_iterations", "ascent_extrapolations",
                          "stop", "stage_gaps", "stage_steps", "stage_stops",
                          "best_lower_stage", "best_upper_stage", "wall_s"}
    assert stats["stop"] == "pure"
    assert stats["pure_svds"] > 0 and stats["eigh_calls"] == 1
    assert stats["wall_s"] > 0.0 and stats["phi_s"] > 0.0
    assert stats["stages"] == stats["newton_steps"] == 0
    assert stats["line_search_candidates"] == 0
    assert stats["best_lower_stage"] == stats["best_upper_stage"] == 0
    assert stats["stage_gaps"] == stats["stage_steps"] == \
        stats["stage_stops"] == []
    assert rec["gap"] == (rec["M_upper"] - rec["M_lower"]) / rec["M_upper"]
    assert rec["gap"] <= 1e-12
    header = (tmp_path / "res.csv").read_text().splitlines()[0].split(",")
    assert {f"stats.{key}" for key in stats} | {"gap"} <= set(header)
    with open(tmp_path / "res.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["stats.stop"] == "pure" and row["stats.stage_stops"] == ""


def test_rescale_checks_are_relative_to_the_bound(tmp_path):
    # a global factor of 1e10 on x puts M_upper near 1e10, where rounding
    # alone exceeds any absolute slack
    pair = gaussian_pair(np.random.default_rng(4), 4, 2)
    inst = tmp_path / "scaled.frame.json"
    out = tmp_path / "res.json"
    cli.save_instance(str(inst), FramePair(1e10 * pair.xs, pair.ys))
    assert cli.main(["rescale", "--in", str(inst), "--seed", "0",
                     "--out", str(out)]) == 0
    checks = read_json(str(out))["records"][0]["check_results"]
    assert checks["bound_respected"]


def test_analyze_and_rescale_accept_a_pair_with_subnormal_terms(tmp_path,
                                                                monkeypatch):
    # x and y times 1e-154 put each term <u, y_k> <x_k, v> near 1e-308;
    # the pair is accepted (its unit is 4.5e307), so phi's ascent and pure
    # route must align the balanced terms, not overflow on these
    pair = generate("gaussian", np.random.default_rng(3), 5, 3)
    tiny = FramePair(1e-154 * pair.xs, 1e-154 * pair.ys)
    reports = {}
    for name, p in (("unit", pair), ("tiny", tiny)):
        inst = tmp_path / f"{name}.frame.json"
        cli.save_instance(str(inst), p)
        for command in ("analyze", "rescale"):
            out = tmp_path / f"{name}-{command}.json"
            assert cli.main([command, "--in", str(inst), "--out", str(out)]) == 0
            reports[name, command] = read_json(str(out))["records"][0]
    for command, keys in (("analyze", ("phi_norm_lower",)),
                          ("rescale", ("phi_norm_lower", "M_upper", "M_lower"))):
        for key in keys:
            want = reports["unit", command][key] * 1e-308
            got = reports["tiny", command][key]
            assert abs(got - want) <= 1e-12 * want, (command, key)
    # x times 2^400 and y times 2^-1070: the grid's witness, certified on
    # the balanced pair, replays to the value analyze reports
    scaled = FramePair(pair.xs * 2.0 ** 400, pair.ys * 2.0 ** -1070)
    inst, out = tmp_path / "scaled.frame.json", tmp_path / "scaled.json"
    cli.save_instance(str(inst), scaled)
    grids = []

    def grid(*args):
        grids.append(norm_oracle_grid(*args))
        return grids[-1]

    monkeypatch.setattr(cli, "norm_oracle_grid", grid)
    assert cli.main(["analyze", "--in", str(inst), "--phase-steps", "16",
                     "--out", str(out)]) == 0
    assert read_json(str(out))["records"][0]["phi_norm_oracle"] == grids[0].value
    assert verify.witness_defect(scaled, grids[0]) <= 1e-12


def test_analyze_writes_report_and_csv(tmp_path, monkeypatch):
    inst = tmp_path / "onb.frame.json"
    out = tmp_path / "ana.json"
    assert cli.main(["gen", "--kind", "onb_union", "--n", "4", "--d", "2",
                     "--seed", "2", "--out", str(inst)]) == 0

    def no_optimize(pair):
        raise AssertionError("analyze must not optimize")

    monkeypatch.setattr(cli, "optimize", no_optimize)
    assert cli.main(["analyze", "--in", str(inst), "--phase-steps", "12",
                     "--seed", "2", "--out", str(out)]) == 0
    rec = read_json(str(out))["records"][0]
    # a union of two orthonormal bases with halved duals reproduces the
    # identity and has unit multiplier norm and tight bounds (2, 1/2)
    assert rec["check_results"]["identity_deviation"] <= 1e-10
    assert rec["phi_norm_oracle"] == pytest.approx(1.0, rel=1e-9)
    assert rec["bessel_x"] == pytest.approx([2.0, 2.0], rel=1e-9)
    # analyze runs one ascent from the all-ones mask and never optimizes
    alt = norm_lower_alternating(cli.load_instance(str(inst))[0])
    assert rec["phi_norm_lower"] == alt.value
    assert set(rec["stats"]) == {"phi_route", "phi_s", "ascent_iterations",
                                 "ascent_extrapolations", "grid_s",
                                 "grid_rows_kept", "grid_masks_evaluated"}
    assert rec["stats"]["phi_route"] == "ascent"
    assert rec["stats"]["ascent_iterations"] == alt.iterations
    assert rec["stats"]["ascent_extrapolations"] == alt.extrapolations
    assert rec["stats"]["phi_s"] > 0.0
    assert rec["stats"]["grid_s"] > 0.0
    grid = norm_oracle_grid(cli.load_instance(str(inst))[0], 12)
    assert rec["stats"]["grid_rows_kept"] == grid.rows_kept
    assert rec["stats"]["grid_masks_evaluated"] == grid.masks_evaluated >= 1
    lines = (tmp_path / "ana.csv").read_text().splitlines()
    assert lines[0].startswith("instance,")
    assert "check_results.identity_deviation" in lines[0]
    assert "stats.phi_s" in lines[0]
    assert "stats.grid_s" in lines[0]
    assert len(lines) == 2


def test_analyze_times_the_grid_only_when_it_runs(tmp_path):
    # --phase-steps 0 (the default) and n > GRID_MAX_N skip the grid, and
    # their records carry neither its value nor grid_s
    rng = np.random.default_rng(3)
    small = tmp_path / "small.frame.json"
    large = tmp_path / "large.frame.json"
    pair = gaussian_pair(rng, 4, 2)
    cli.save_instance(str(small), pair)
    cli.save_instance(str(large), gaussian_pair(rng, cli.GRID_MAX_N + 1, 2))
    for path, steps in ((small, "0"), (large, "8"), (small, "8")):
        out = tmp_path / "ana.json"
        assert cli.main(["analyze", "--in", str(path), "--phase-steps", steps,
                         "--out", str(out)]) == 0
        rec = read_json(str(out))["records"][0]
        ran = path == small and steps != "0"
        assert ("grid_s" in rec["stats"]) == ran
        assert ("phi_norm_oracle" in rec) == ran
    assert rec["phi_norm_oracle"] == norm_oracle_grid(pair, 8).value


def test_analyze_ascent_leaves_a_vanishing_mask_matrix(tmp_path):
    # x = (e1, -e1), y = (e2, e2): the all-ones mask matrix is 0, yet the
    # ascent from it must reach phi = 2, the grid's value
    e1, e2 = np.eye(2, dtype=complex)
    inst, out = tmp_path / "flip.frame.json", tmp_path / "flip.json"
    cli.save_instance(str(inst), FramePair(np.array([e1, -e1]),
                                           np.array([e2, e2])))
    assert cli.main(["analyze", "--in", str(inst), "--phase-steps", "8",
                     "--out", str(out)]) == 0
    rec = read_json(str(out))["records"][0]
    assert rec["phi_norm_lower"] == pytest.approx(2.0, rel=1e-12)
    assert rec["phi_norm_oracle"] == pytest.approx(2.0, rel=1e-12)


def test_verify_failure_writes_replay_file(tmp_path, monkeypatch):
    def explode(name, seed=0):
        raise VerificationError("manufactured failure",
                                {"instance": 3, "ratio": 9.9})

    monkeypatch.setattr(cli, "run_suite", explode)
    out = tmp_path / "fail.json"
    code = cli.main(["verify", "--suite", "trace", "--seed", "4",
                     "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED
    failure = read_json(str(out))
    assert failure["record"]["ratio"] == 9.9
    assert failure["seed"] == 4
    assert failure["summary"]["failures"] == 1


def test_verify_suite_passes(tmp_path):
    out = tmp_path / "kh.json"
    assert cli.main(["verify", "--suite", "khintchine", "--seed", "0",
                     "--out", str(out)]) == 0
    report = read_json(str(out))
    assert report["summary"]["worst_ratio"] >= 1.0 - 1e-12
    assert report["summary"]["failures"] == 0


@pytest.mark.parametrize("suite", ["end_to_end", "d1", "invariance",
                                   "psi_fd"])
def test_verify_reaches_every_registered_suite(suite, monkeypatch, capsys):
    calls = []

    def fake(name, seed=0):
        calls.append(name)
        return {"suite": name, "records": [], "summary": {"wall_s": 1.25}}

    monkeypatch.setattr(cli, "run_suite", fake)
    assert cli.main(["verify", "--suite", suite, "--seed", "0"]) == 0
    assert calls == [suite]
    assert capsys.readouterr().out.startswith(f"PASS {suite} in 1.2s: ")


def test_verify_all_runs_every_suite_in_order(tmp_path, monkeypatch, capsys):
    # the acceptance criteria run the real suites; stand-ins keep this to
    # the path of run_suite("all") through main
    def stand_in(name):
        return lambda seed=0: {"suite": name, "records": [{"seed": seed}],
                               "summary": {"seed": seed}}

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, stand_in(name))
    out = tmp_path / "all.json"
    assert cli.main(["verify", "--suite", "all", "--seed", "3",
                     "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(verify.SUITES)
    for line, name in zip(lines, verify.SUITES):
        assert re.match(rf"PASS {name} in \d+\.\ds: ", line), line
    report = read_json(str(out))
    assert [sub["suite"] for sub in report["reports"]] == list(verify.SUITES)
    assert all(sub["summary"]["seed"] == 3 for sub in report["reports"])
    assert report["summary"]["failures"] == 0
    # the CSV twin holds every suite's records in turn, led by its name
    with open(tmp_path / "all.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["suite", "seed"]] + [[name, "3"] for name in verify.SUITES]


def test_verify_reports_suite_wall_time(tmp_path, capsys):
    out = tmp_path / "d1.json"
    assert cli.main(["verify", "--suite", "d1", "--seed", "0",
                     "--out", str(out)]) == 0
    wall = read_json(str(out))["summary"]["wall_s"]
    assert wall > 0.0
    assert capsys.readouterr().out.startswith(f"PASS d1 in {wall:.1f}s: ")


def test_seed_flag_and_its_default(tmp_path):
    flag_out = tmp_path / "flag.frame.json"
    assert cli.main(["gen", "--n", "2", "--d", "1", "--seed", "9",
                     "--out", str(flag_out)]) == 0
    assert read_json(str(flag_out))["metadata"]["seed"] == 9

    default_out = tmp_path / "default.frame.json"
    assert cli.main(["gen", "--n", "2", "--d", "1",
                     "--out", str(default_out)]) == 0
    assert read_json(str(default_out))["metadata"]["seed"] == 0


def test_bench_checksums_are_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["bench", "--seed", "3", "--grid", "3x2", "--phase-steps", "8"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert " stop=pure steps=0 eigh=1 " in capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    rec_a = read_json(str(out_a))["records"][0]
    rec_b = read_json(str(out_b))["records"][0]
    assert rec_a["workload_checksum"] == rec_b["workload_checksum"]
    # the optimizer's counts repeat; only its wall time may differ
    counts = {k: v for k, v in rec_a["stats"].items() if k != "wall_s"}
    assert counts == {k: v for k, v in rec_b["stats"].items() if k != "wall_s"}
    assert counts["stop"] == "pure" and counts["pure_svds"] >= 1
    assert rec_a["phi_seconds"] > 0.0
    assert rec_a["io_seconds"] > 0.0
    # the grid's time per mask over 8^2 masks
    assert rec_a["grid_masks"] == rec_b["grid_masks"] == 64
    assert rec_a["grid_ns_per_mask"] == 1e9 * rec_a["grid_seconds"] / 64
    grid = norm_oracle_grid(generate("gaussian", np.random.default_rng(
        np.random.SeedSequence([3, 99])), 3, 2), 8)
    assert rec_a["grid_rows_kept"] == rec_b["grid_rows_kept"] == grid.rows_kept
    assert (rec_a["grid_masks_evaluated"] == rec_b["grid_masks_evaluated"]
            == grid.masks_evaluated)
    out_c = tmp_path / "c.json"
    assert cli.main(["bench", "--seed", "3", "--grid", "3x2", "--phase-steps",
                     "0", "--out", str(out_c)]) == 0
    rec_c = read_json(str(out_c))["records"][0]
    assert rec_c["grid_seconds"] is None
    assert rec_c["grid_masks"] is None and rec_c["grid_ns_per_mask"] is None
    assert rec_c["grid_rows_kept"] is None and rec_c["grid_masks_evaluated"] is None


def test_bench_checksum_hashes_the_arrays_not_the_file(tmp_path,
                                                     monkeypatch):
    # the checksum is the cell pair's bytes, so an encoder that writes the
    # same numbers as other text moves no checksum
    pair = generate("gaussian", np.random.default_rng(
        np.random.SeedSequence([3, 99])), 3, 2)
    want = hashlib.sha256(pair.xs.tobytes() + pair.ys.tobytes()).hexdigest()
    argv = ["bench", "--seed", "3", "--grid", "3x2", "--phase-steps", "0"]
    out = tmp_path / "bench.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert read_json(str(out))["records"][0]["workload_checksum"] == want[:16]
    json_text = cli._json_text
    monkeypatch.setattr(cli, "_json_text",
                        lambda doc: json_text(doc).replace(",", ", "))
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert read_json(str(out))["records"][0]["workload_checksum"] == want[:16]


def test_bench_summary_names_the_machine(tmp_path):
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--grid", "", "--out", str(out)]) == 0
    machine = read_json(str(out))["summary"]["machine"]
    assert machine["cpu_count"] == os.cpu_count()
    assert machine["python"] == platform.python_version()
    assert machine["numpy"] == np.__version__
    assert machine["arch"] == platform.machine()
    assert isinstance(machine["blas"], str) and machine["blas"]
    assert isinstance(machine["blas_version"], str)


def test_bench_fails_when_an_instance_file_does_not_round_trip(
        tmp_path, monkeypatch, capsys):
    real_load, real_generate = cli.load_instance, cli.generate

    def lossy_load(path):
        pair, metadata = real_load(path)
        return FramePair(pair.xs * (1.0 + 2.0 ** -52), pair.ys), metadata

    def sign_flipping_load(path):
        # the bench pairs below are real, so conj flips only zeros' signs
        pair, metadata = real_load(path)
        return FramePair(pair.xs.conj(), pair.ys), metadata

    def real_pair(kind, rng, n, d):
        pair = real_generate(kind, rng, n, d)
        return FramePair(pair.xs.real + 0j, pair.ys.real + 0j)

    out = tmp_path / "bench.json"
    argv = ["bench", "--seed", "3", "--grid", "3x2,2x1", "--phase-steps", "0",
            "--out", str(out)]
    monkeypatch.setattr(cli, "load_instance", lossy_load)
    assert cli.main(argv) == cli.EXIT_CHECK_FAILED
    assert read_json(str(out))["summary"]["failures"] == 2
    assert "did not round-trip" in capsys.readouterr().err
    monkeypatch.setattr(cli, "generate", real_pair)
    monkeypatch.setattr(cli, "load_instance", real_load)
    assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.setattr(cli, "load_instance", sign_flipping_load)
    assert cli.main(argv) == cli.EXIT_CHECK_FAILED
    assert read_json(str(out))["summary"]["failures"] == 2
    assert "did not round-trip" in capsys.readouterr().err


def test_bench_times_the_median_of_repeats_after_an_untimed_call(
        tmp_path, monkeypatch):
    calls = {}
    eig_inputs = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            if name == "eigh":
                eig_inputs.append(args[0])
            return fn(*args)
        return wrapper

    layers = ("eigh", "_rewrite_and_load", "norm_oracle_grid", "optimize",
              "phi_lower")
    for name in layers:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--seed", "3", "--grid", "4x2", "--phase-steps",
                     "8", "--out", str(out)]) == 0
    assert cli.BENCH_REPEATS == 3
    assert calls == {name: 1 + cli.BENCH_REPEATS for name in layers}
    assert read_json(str(out))["records"][0]["repeats"] == 3
    # the eig cell diagonalises the frame operator, which is exactly
    # Hermitian, so check_hermitian skips its norms
    for s in eig_inputs:
        assert np.array_equal(s, s.conj().T)


def test_bench_timed_keeps_the_last_result_and_the_median(monkeypatch):
    seconds = iter([0.5, 0.1, 0.3])
    results = iter(["untimed", "first", "second", "last"])
    monkeypatch.setattr(cli, "_timed", lambda fn, *args: (fn(*args),
                                                          next(seconds)))
    assert cli._bench_timed(lambda: next(results)) == ("last", 0.3)


def test_startup_loads_neither_numpy_random_nor_hashlib(tmp_path):
    # only gen, bench and the verify suites draw, and only bench hashes:
    # importing the package and running analyze and rescale in a fresh
    # interpreter must load neither module
    path = tmp_path / "p.frame.json"
    cli.save_instance(str(path), gaussian_pair(np.random.default_rng(5), 4, 2))
    probe = "\n".join([
        "import sys",
        "import framescale, framescale.cli, framescale.verify",
        "def loaded():",
        "    return [m for m in ('numpy.random', 'hashlib') if m in sys.modules]",
        "print(loaded())",
        f"framescale.cli.main(['analyze', '--in', {str(path)!r}, '--phase-steps', '8'])",
        f"framescale.cli.main(['rescale', '--in', {str(path)!r}, '--dilation'])",
        "print(loaded())"])
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    lines = done.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]", lines


@pytest.mark.parametrize("grid, message", [
    ("3x", "expected integers"), ("ax2", "expected integers"),
    ("4x2,0x1", "need n, d >= 1"), ("3x-1", "need n, d >= 1")])
def test_bench_refuses_a_bad_grid_cell(grid, message, capsys):
    assert cli.main(["bench", "--grid", grid]) == cli.EXIT_USAGE
    assert f"bad grid cell {grid.split(',')[-1]!r}; {message}" in \
        capsys.readouterr().err


def test_bench_empty_grid(tmp_path):
    out = tmp_path / "empty.json"
    assert cli.main(["bench", "--grid", "", "--out", str(out)]) == 0
    assert read_json(str(out))["records"] == []
    assert cli.main(["bench", "--grid", "3y2"]) == cli.EXIT_USAGE


def test_report_without_records_empties_its_csv_twin(tmp_path, monkeypatch):
    # the twin is rewritten whatever the report holds, so no earlier
    # run's rows outlive a report that has none
    out, twin = tmp_path / "b.json", tmp_path / "b.csv"
    assert cli.main(["bench", "--grid", "3x2", "--phase-steps", "8",
                     "--out", str(out)]) == 0
    assert len(twin.read_text().splitlines()) == 2
    assert cli.main(["bench", "--grid", "", "--out", str(out)]) == 0
    assert twin.read_bytes() == b""

    def explode(name, seed=0):
        raise VerificationError("manufactured failure", {"ratio": 9.9})

    out, twin = tmp_path / "v.json", tmp_path / "v.csv"
    monkeypatch.setattr(cli, "run_suite", lambda name, seed=0: {
        "suite": name, "records": [{"ratio": 1.0}], "summary": {"wall_s": 0.0}})
    assert cli.main(["verify", "--suite", "trace", "--out", str(out)]) == 0
    assert twin.read_text().splitlines() == ["ratio", "1.0"]
    monkeypatch.setattr(cli, "run_suite", explode)
    assert cli.main(["verify", "--suite", "trace", "--out", str(out)]) == \
        cli.EXIT_CHECK_FAILED
    assert twin.read_bytes() == b""


def test_csv_floats_round_trip(tmp_path):
    report = {"records": [{"instance": "i0", "value": 0.1 + 0.2,
                           "weights": [1.5, -2.25]}],
              "summary": {}}
    out = tmp_path / "rep.json"
    cli.write_report(str(out), report)
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    cells = lines[1].split(",")
    assert cells[1] == repr(0.1 + 0.2)
    assert float(cells[1]) == 0.1 + 0.2
    assert cells[2] == "1.5;-2.25"


def _plain(obj):
    """The report with every numpy value made a Python one, by a walk that
    write_report does not run: the reference for its bytes."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def test_write_report_bytes_match_json_dump(tmp_path):
    # write_report builds the text with json.dumps (the C encoder), which
    # converts numpy values as it meets them; the bytes are those
    # json.dump streams through the Python encoder from a plain copy
    report = {"records": [{"instance": "i0", "n": np.int64(3),
                           "value": np.float64(0.1) + 0.2, "ok": np.bool_(True),
                           "weights": np.array([1.5, -2.25, 1e-300]),
                           "nested": [[np.float64(np.pi), 2],
                                      (np.int32(4), [np.float32(0.5), None])],
                           "pair": (np.float64(0.1), 2),
                           "single": np.float32(0.1),
                           "scalar": np.array(np.pi),
                           "grid": np.array([[1.0, 0.5], [np.nan, -0.0]]),
                           "stats": {"stage_steps": [np.int64(3), 4],
                                     "stop": "gap"}}],
              "summary": {"label": "phi \u03c6", "max_ratio": np.float64(1.25)}}
    out = tmp_path / "rep.json"
    cli.write_report(str(out), report)
    dumped = tmp_path / "dumped.json"
    with open(dumped, "w", encoding="utf-8") as fh:
        json.dump(_plain(report), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    assert out.read_bytes() == dumped.read_bytes()
    header, row = (tmp_path / "rep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["stats.stage_steps"] == "3;4"
    assert cells["value"] == repr(0.1 + 0.2)
    assert cells["pair"] == "0.1;2"
    assert cells["single"] == repr(float(np.float32(0.1)))
    assert cells["scalar"] == repr(np.pi)
    assert cells["grid"] == "1.0;0.5;nan;-0.0"
    assert cells["ok"] == "True" and cells["n"] == "3"


def test_float_repr_serialization_round_trips_exactly():
    rng = np.random.default_rng(0)
    pair = gaussian_pair(rng, 2, 2)
    text = cli.serialize_instance(pair)
    doc = json.loads(text)
    for k in range(2):
        for j in range(2):
            re, im = doc["pairs"][k]["x"][j]
            assert complex(re, im) == pair.xs[k, j]


def _reference_csv_bytes(records):
    """The CSV twin as csv.DictWriter wrote it before the in-place writer."""
    rows, fields = [], []
    for rec in records:
        row = {}
        for key, value in rec.items():
            if isinstance(value, dict):
                for sub, subvalue in value.items():
                    row[f"{key}.{sub}"] = cli._flat_cell(subvalue)
            else:
                row[key] = cli._flat_cell(value)
        fields += [key for key in row if key not in fields]
        rows.append(row)
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _report(count):
    # later records add keys and leave earlier ones out, so the CSV has
    # empty cells
    records = [{"instance": f"i{k}", "value": 0.1 * k + 0.2,
                "weights": [1.5 * k, -2.25], "label": "phi \u03c6, \"q\"",
                "stats": {"stage_steps": [k, 4], "stop": "gap"}}
               for k in range(count)]
    records[-1]["extra"] = None
    del records[0]["label"]
    return {"records": records, "summary": {"instances": count}}


def test_rewritten_report_leaves_no_stale_tail(tmp_path):
    out = tmp_path / "rep.json"
    fresh = tmp_path / "fresh.json"
    cli.write_report(str(out), _report(40))
    long_json = out.read_bytes()
    cli.write_report(str(out), _report(1))
    cli.write_report(str(fresh), _report(1))
    assert len(out.read_bytes()) < len(long_json)
    assert out.read_bytes() == fresh.read_bytes()
    assert (tmp_path / "rep.csv").read_bytes() == \
        (tmp_path / "fresh.csv").read_bytes()
    for count in (1, 40):
        cli.write_report(str(out), _report(count))
        assert (tmp_path / "rep.csv").read_bytes() == \
            _reference_csv_bytes(_report(count)["records"])


def test_report_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "target.json"
    link = tmp_path / "link.json"
    cli.write_report(str(target), _report(40))
    link.symlink_to(target)
    cli.write_report(str(link), _report(1))
    assert link.is_symlink()
    cli.write_report(str(tmp_path / "fresh.json"), _report(1))
    assert target.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_rewritten_report_keeps_its_mode(tmp_path):
    out = tmp_path / "rep.json"
    cli.write_report(str(out), _report(40))
    for path in (out, tmp_path / "rep.csv"):
        path.chmod(0o600)
    cli.write_report(str(out), _report(1))
    for path in (out, tmp_path / "rep.csv"):
        assert path.stat().st_mode & 0o777 == 0o600


def test_save_instance_over_a_longer_file_round_trips(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "inst.frame.json"
    cli.save_instance(str(path), gaussian_pair(rng, 9, 4),
                      metadata={"description": "the longer one"})
    pair = gaussian_pair(rng, 3, 2)
    cli.save_instance(str(path), pair)
    assert path.read_text() == cli.serialize_instance(pair)
    back, metadata = cli.load_instance(str(path))
    assert metadata == {}
    assert np.array_equal(back.xs, pair.xs)
    assert np.array_equal(back.ys, pair.ys)


def test_save_instance_to_devnull():
    cli.save_instance(os.devnull, gaussian_pair(np.random.default_rng(0), 3, 2))


def test_every_suite_takes_a_seed_and_nothing_else():
    # a suite's sizes are module constants; a size keyword would let
    # callers run a check smaller than the acceptance criteria pin
    only_seed = [("seed", inspect.Parameter.POSITIONAL_OR_KEYWORD, 0)]
    for name, suite in verify.SUITES.items():
        params = inspect.signature(suite).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == only_seed, name


def test_package_opens_no_file_for_writing():
    # every file the package writes goes through cli._write_text, which
    # rewrites in place; open(path, "w") would truncate to zero first
    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None:  # open's default mode "r"
                continue
            where = f"{source.name}:{node.lineno}"
            assert isinstance(mode, ast.Constant) and isinstance(
                mode.value, str), f"{where}: open() mode is not a literal"
            assert not set(mode.value) & set("wax+"), \
                f"{where}: open(..., {mode.value!r}) writes; use _write_text"


def test_package_reads_no_environment_variable():
    # every setting is a flag or an argument, so a command line fixes a run
    readers = {"environ", "environb", "getenv", "getenvb"}
    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id == "os":
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & readers, \
                f"{source.name}:{node.lineno}: reads the environment"


def _package_calls():
    """(file name, line, called name) of every call in the package."""
    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                yield source.name, node.lineno, name


def test_only_frames_decides_a_power_of_two_scale():
    # frames.pow2_scale and FramePair own the choice of scale; another
    # frexp would be a second rule for it.  rescale.ARMIJO_STEPS' ldexp
    # only lists step lengths.  Only verify's tuples and matrices, which
    # belong to no pair, take pow2_scale; the rest read pair.balanced
    for source, line, name in _package_calls():
        assert source == "frames.py" or name != "frexp", \
            f"{source}:{line}: calls frexp"
        assert source in ("frames.py", "verify.py") or name != "pow2_scale", \
            f"{source}:{line}: calls pow2_scale"


def test_only_certify_forms_a_phi_estimate():
    # multiplier._certify forms every phi estimate's value, on
    # pair.balanced; an estimate built elsewhere, or a _certify or _align
    # call outside multiplier, would be a second certificate path
    tree = ast.parse(Path(multiplier.__file__).read_text())
    certify = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_certify")
    for source, line, name in _package_calls():
        if name == "MultiplierNormEstimate":
            assert source == "multiplier.py" and \
                certify.lineno <= line <= certify.end_lineno, \
                f"{source}:{line}: builds a MultiplierNormEstimate"
        assert source == "multiplier.py" or name not in ("_certify", "_align"), \
            f"{source}:{line}: calls {name}"


def test_no_function_takes_a_pair_beside_its_bracket():
    # a CbBracket carries the pair it was optimized for, so a function
    # that takes a bracket reads the pair off it; a pair parameter beside
    # it would be a second, possibly different, copy of the same input
    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                names = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs)}
                assert not {"pair", "bracket"} <= names, \
                    f"{source.name}:{node.lineno}: takes a pair and a bracket"


def test_every_object_is_built_by_its_constructor():
    # a __new__ call would build a FramePair, or anything else, past the
    # checks its constructor makes
    for source, line, name in _package_calls():
        assert name != "__new__", f"{source}:{line}: calls __new__"


def test_package_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy alone, so an import of any other
    # installed package would pass here and fail on a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy", "framescale"}
    for source in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, \
                    f"{source.name}:{node.lineno}: imports {name}"


def test_readme_signatures_match_the_code():
    # a backticked name(args) in README.md, for a name framescale exports
    # and args that are each an identifier or identifier=literal,
    # documents that function's signature: its parameter names and
    # defaults must be the code's
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    checked = set()
    for form in re.findall(r"`([A-Za-z_]\w*\([^`()]*\))`", readme):
        call = ast.parse(" ".join(form.split()), mode="eval").body
        if call.func.id not in framescale.__all__ or not all(
                isinstance(arg, ast.Name) for arg in call.args):
            continue
        try:
            defaults = [ast.literal_eval(kw.value) for kw in call.keywords]
        except ValueError:
            continue
        documented = [(arg.id, inspect.Parameter.empty) for arg in call.args]
        documented += [(kw.arg, value)
                       for kw, value in zip(call.keywords, defaults)]
        params = inspect.signature(getattr(framescale, call.func.id)).parameters
        assert documented == [(p.name, p.default) for p in params.values()], form
        checked.add(call.func.id)
    assert len(checked) >= 5, checked


def test_every_verify_check_is_in_the_non_finite_refusal_test():
    # a check added to framescale.verify must join VERIFY_CHECK_ARGUMENTS,
    # with every argument that has no default, so that the refusal test
    # in test_verify.py feeds it NaN and inf
    source = Path(verify.__file__)
    found = {}
    for node in ast.parse(source.read_text(), str(source)).body:
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_check") \
                and not node.name.startswith("_"):
            args = node.args.args
            found[node.name] = tuple(
                arg.arg for arg in args[:len(args) - len(node.args.defaults)])
    assert found == VERIFY_CHECK_ARGUMENTS


def _match_patterns():
    """Every match= pattern in tests/: a literal, or, for a name, every
    string in its test's decorators (a parametrize list)."""
    patterns = set()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(source.read_text(), str(source))):
            if not isinstance(func, ast.FunctionDef):
                continue
            listed = {node.value for dec in func.decorator_list
                      for node in ast.walk(dec)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str)}
            for node in ast.walk(func):
                if isinstance(node, ast.keyword) and node.arg == "match":
                    if isinstance(node.value, ast.Constant):
                        patterns.add(node.value.value)
                    elif isinstance(node.value, ast.Name):
                        patterns |= listed
    return patterns


def _fails_closed(test) -> bool:
    """Whether a gate condition is written to fail closed: a negated <=
    comparison, which a NaN makes true, a negated predicate with no
    comparison inside, or an and/or of such conditions."""
    if isinstance(test, ast.BoolOp):
        return all(map(_fails_closed, test.values))
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
        return False
    inner = test.operand
    if isinstance(inner, ast.Compare):
        return all(isinstance(op, ast.LtE) for op in inner.ops)
    return not any(isinstance(node, ast.Compare) for node in ast.walk(inner))


def test_every_verification_gate_has_a_test_that_trips_it():
    # each raise VerificationError(...) in verify.py names its gate by the
    # leading literal of its message (after a suite's "instance {i}: "),
    # and some test's match= pattern must match the message from within
    # that literal on, each formatted value read as 0.  Link 2 is exempt:
    # its two sides differ by rounding alone for any input, so no test
    # can trip it (CHANGES.md, "Link 2 keeps its gate and gets no test")
    # Every gate's condition must hold on a NaN: each comparison in it
    # is a negated <=, and a predicate without one is negated too
    exempt = {"average-product identity broken"}
    patterns = _match_patterns()
    source = Path(verify.__file__)
    tree = ast.parse(source.read_text(), str(source))
    conditions = {id(stmt): node.test for node in ast.walk(tree)
                  if isinstance(node, ast.If) for stmt in node.body}
    gates = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "VerificationError"):
            continue
        assert _fails_closed(conditions.get(id(node))), \
            f"verify.py:{node.lineno}: a NaN would pass this gate"
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) \
            else [message]
        text = "".join(part.value if isinstance(part, ast.Constant) else "\0"
                       for part in parts).removeprefix("instance \0: ")
        literal = text.partition("\0")[0].rstrip(": ")
        where = f"verify.py:{node.lineno}"
        assert literal, f"{where}: the message leads with no literal"
        gates.append(literal)
        if literal in exempt:
            continue
        sample = text.replace("\0", "0")
        assert any((found := re.search(pattern, sample))
                   and found.start() < len(literal) for pattern in patterns), \
            f"{where}: no test matches {literal!r}"
    assert exempt <= set(gates)
    assert len(gates) == len(set(gates)), "two gates share a literal"
