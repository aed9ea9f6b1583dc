import json

import pytest

from semmap.cli import main
from semmap.world import world_from_dict


@pytest.fixture(scope="module")
def demo_pgm(tmp_path_factory):
    """Small deterministic map written through the synth command."""
    out = tmp_path_factory.mktemp("synth") / "floor"
    rc = main(["synth", "demo", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return str(out) + ".pgm", str(out) + ".truth.json"


def fast_config(tmp_path, **extra):
    lines = [
        "iterations = 1200",
        "burn_in = 200",
        "seed = 3",
        "hall_area_min_m2 = 25.0",
        "mln_gibbs_samples = 200",
        "mln_gibbs_burn_in = 50",
    ]
    for k, v in extra.items():
        lines.append(f"{k} = {v}")
    p = tmp_path / "run.cfg"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_synth_demo_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "demo", "--seed", "9", "--out", str(a)]) == 0
    assert main(["synth", "demo", "--seed", "9", "--out", str(b)]) == 0
    assert (a.parent / "a.pgm").read_bytes() == (b.parent / "b.pgm").read_bytes()
    assert (a.parent / "a.truth.json").read_text() == (b.parent / "b.truth.json").read_text()


def test_synth_spec_file_and_invalid(tmp_path):
    spec = {
        "width": 100,
        "height": 80,
        "units": [["room", [10, 10, 60, 60]], ["room", [56, 10, 96, 60]]],
        "doors": [[0, 1, 0.5, 14]],
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    assert main(["synth", str(p), "--out", str(tmp_path / "s")]) == 0
    bad = dict(spec, units=[["room", [10, 10, 60, 60]], ["room", [20, 20, 70, 70]]])
    p.write_text(json.dumps(bad))
    assert main(["synth", str(p), "--out", str(tmp_path / "s2")]) == 2


def test_infer_writes_artifacts(tmp_path, demo_pgm, capsys):
    pgm, _ = demo_pgm
    out = tmp_path / "out"
    rc = main([
        "infer", pgm, "--out", str(out), "--config", fast_config(tmp_path), "--json",
    ])
    assert rc == 0
    for name in ("world.json", "samples.ndjson", "stats.json", "overlay.ppm", "graph.dot"):
        assert (out / name).exists(), name
    doc = json.loads((out / "world.json").read_text())
    world = world_from_dict(doc)
    assert world.n >= 1
    stats = json.loads((out / "stats.json").read_text())
    assert stats["chains"][0]["iterations"] == 1200
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["out"] == str(out)


def test_infer_missing_map_exit_1(tmp_path):
    assert main(["infer", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "line",
    [
        "unknown_key = 7",
        "wall_thickness = 0.5",
        "chains = 0",
        "dilate_radius = -1",
        "sample_ring = -1",
    ],
    ids=lambda line: line.split(" ", 1)[0],
)
def test_infer_bad_config_exit_2(tmp_path, demo_pgm, line):
    pgm, _ = demo_pgm
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["infer", pgm, "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2


def test_infer_empty_map_exit_3(tmp_path):
    p = tmp_path / "empty.pgm"
    p.write_text("P2\n8 8\n255\n" + " ".join(["128"] * 64) + "\n")
    assert main(["infer", str(p), "--out", str(tmp_path / "o")]) == 3


def test_infer_contradictory_rules_exit_3(tmp_path, capsys):
    prefix = tmp_path / "floor"
    assert main(["synth", "demo", "--seed", "4", "--out", str(prefix)]) == 0
    rules = tmp_path / "bad.rules"
    rules.write_text("hard :: HaLi(p) -> Hall(p)\nhard :: HaLi(p) -> !Hall(p)\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"hall_area_min_m2 = 25.0\nrules_file = {rules}\n")
    capsys.readouterr()
    rc = main([
        "infer", str(prefix) + ".pgm", "--out", str(tmp_path / "o"),
        "--config", str(cfg), "--iterations", "0",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_infer_knowledge_gate_reported_inactive(tmp_path):
    # known area is a small fraction of the known-content bounding box
    rows = []
    for y in range(40):
        row = []
        for x in range(80):
            if 2 <= y < 12 and 2 <= x < 12:
                row.append("255")
            elif y == 1 and x in (1, 78):
                row.append("0")
            elif y == 38 and x in (1, 78):
                row.append("0")
            else:
                row.append("128")
        rows.append(" ".join(row))
    p = tmp_path / "low.pgm"
    p.write_text("P2\n80 40\n255\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    rc = main([
        "infer", str(p), "--out", str(out),
        "--config", fast_config(tmp_path, iterations=300, burn_in=50),
    ])
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["chains"][0]["knowledge_active"] is False
    assert stats["chains"][0]["mln_runs"] == 0


def test_eval_self_consistent_world(tmp_path, demo_pgm, capsys):
    pgm, truth_path = demo_pgm
    out = tmp_path / "report"
    rc = main([
        "eval", truth_path, pgm,
        "--roi", "10", "10", "350", "130",
        "--truth", truth_path,
    ])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cpr_strict"] > 0.95
    assert rep["topology"]["type_accuracy"] == 1.0
    assert rep["topology"]["unit_count_match"] is True


def test_eval_full_map_roi_warning(tmp_path, demo_pgm, capsys):
    pgm, truth_path = demo_pgm
    rc = main(["eval", truth_path, pgm])
    assert rc == 0
    err = capsys.readouterr().err
    assert "full map" in err


def test_eval_missing_world_exit_1(tmp_path, demo_pgm):
    pgm, _ = demo_pgm
    assert main(["eval", str(tmp_path / "nope.json"), pgm]) == 1


def test_mln_hard_evidence_query(tmp_path, capsys):
    ev = tmp_path / "e.db"
    ev.write_text("HaLi(u1)\n")
    rc = main(["mln", "default", str(ev), "Hall(u1)", "Room(u1)"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["Hall(u1)"] == 1.0
    assert out["Room(u1)"] == 0.0


def test_mln_predicate_query_lists_groundings(tmp_path, capsys):
    ev = tmp_path / "e.db"
    ev.write_text("RoLi(u1)\nRoLi(u2)\nAdj(u1,u2)\nAdj(u2,u1)\n")
    rc = main(["mln", "default", str(ev), "Room"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"Room(u1)", "Room(u2)"}


def test_mln_typo_exit_2(tmp_path):
    ev = tmp_path / "e.db"
    ev.write_text("HaLi(u1)\n")
    assert main(["mln", "default", str(ev), "Haul(u1)"]) == 2


def test_mln_bad_evidence_exit_2(tmp_path):
    ev = tmp_path / "e.db"
    ev.write_text("Room(u1)\n")  # query predicate is not evidence
    assert main(["mln", "default", str(ev), "Hall(u1)"]) == 2


def test_mln_gibbs_close_to_exact(tmp_path, capsys):
    ev = tmp_path / "e.db"
    ev.write_text("RoLi(u1)\nCoLi(u2)\nMulDoor(u2)\nAdj(u1,u2)\nAdj(u2,u1)\n")
    assert main(["mln", "default", str(ev), "Room(u1)", "Corr(u2)"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main([
        "mln", "default", str(ev), "Room(u1)", "Corr(u2)",
        "--gibbs", "--seed", "2", "--samples", "4000", "--burn-in", "300",
    ]) == 0
    gibbs = json.loads(capsys.readouterr().out)
    for key in exact:
        assert abs(exact[key] - gibbs[key]) < 0.02


def test_mln_contradictory_evidence_exit_3(tmp_path):
    ev = tmp_path / "e.db"
    ev.write_text("Adj(u1,u2)\n")  # asymmetric adjacency vs hard symmetry rule
    assert main(["mln", "default", str(ev), "Room(u1)"]) == 3


def test_infer_determinism_byte_identical(tmp_path, demo_pgm):
    pgm, _ = demo_pgm
    cfg = fast_config(tmp_path, iterations=600, burn_in=100)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["infer", pgm, "--out", str(out1), "--config", cfg]) == 0
    assert main(["infer", pgm, "--out", str(out2), "--config", cfg]) == 0
    assert (out1 / "world.json").read_bytes() == (out2 / "world.json").read_bytes()
    assert (out1 / "samples.ndjson").read_bytes() == (out2 / "samples.ndjson").read_bytes()


def test_infer_multiple_chains_writes_per_chain_outputs(tmp_path, demo_pgm):
    pgm, _ = demo_pgm
    cfg = fast_config(tmp_path, iterations=400, burn_in=50, chains=2)
    out = tmp_path / "multi"
    assert main(["infer", pgm, "--out", str(out), "--config", cfg]) == 0
    for name in (
        "world.json",
        "world_chain0.json",
        "world_chain1.json",
        "samples_chain0.ndjson",
        "samples_chain1.ndjson",
        "stats.json",
    ):
        assert (out / name).exists(), name
    stats = json.loads((out / "stats.json").read_text())
    assert len(stats["chains"]) == 2
    assert stats["best_chain"] in (0, 1)
