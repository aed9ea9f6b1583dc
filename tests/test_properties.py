"""Heavier randomized property checks pinned by the module contracts."""

from dataclasses import fields

import numpy as np
import pytest

from semmap.config import RunConfig, load_config, parse_config_text
from semmap.errors import ConfigError
from semmap.mln import hard_rules
from semmap.world import Unit, detect_relations, qcoord, world_from_dict


def test_relations_symmetric_over_1000_random_layouts():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = 1 + int(rng.integers(5))
        units = [
            Unit(
                i,
                float(rng.uniform(8, 82)),
                float(rng.uniform(8, 52)),
                float(rng.uniform(3, 14)),
                float(rng.uniform(3, 14)),
                # the angles the chain gives its units
                qcoord(np.pi / 2) if rng.integers(4) == 0 else 0.0,
            )
            for i in range(n)
        ]
        rel = detect_relations(units, (60, 90))
        assert np.array_equal(rel, rel.T)
        assert not rel.diagonal().any()
    with pytest.raises(ValueError):
        detect_relations([Unit(0, 30.0, 30.0, 8.0, 8.0), Unit(1, 44.0, 30.0, 8.0, 8.0, 1.0)], (60, 90))


def test_config_rules_file_plumbs_through(tmp_path):
    rules_path = tmp_path / "hard.rules"
    rules_path.write_text(
        "\n".join(r.text for r in hard_rules()) + "\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"rules_file = {rules_path}\nseed = 7\n")
    cfg = load_config(cfg_path)
    assert cfg.rules_file == str(rules_path)
    assert cfg.seed == 7
    from semmap.cli import _rules_for

    rules = _rules_for(cfg)
    assert all(r.hard for r in rules)
    assert len(rules) == 22


def test_config_rejects_invalid_values(tmp_path):
    from semmap.errors import ConfigError

    bad = tmp_path / "bad.cfg"
    bad.write_text("psi = 1.5\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("coverage_gate = 0\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("kernel_weight.add = -1\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_fixed_search_constants_are_unknown_keys():
    for name in (
        "delta_max",
        "allocate_half_min",
        "allocate_half_max",
        "add_seed_min_cells",
        "min_free_fraction",
        "max_occupied_fraction",
        "snapshot_every",
        "min_unit_area_m2",
        "mln_exact_budget",
        "mln_gibbs_chains",
        "free_angle",
        "angle_jitter_deg",
    ):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(f"{name} = 1\n")


def test_config_parses_each_key_as_its_declared_type():
    default = RunConfig()
    scalar = [f.name for f in fields(RunConfig) if f.type in ("bool", "int", "float", "str")]
    text = "".join(f"{name} = {getattr(default, name)}\n" for name in scalar)
    cfg = parse_config_text(text)
    for name in scalar:
        assert type(getattr(cfg, name)) is type(getattr(default, name)), name
        assert getattr(cfg, name) == getattr(default, name), name
    with pytest.raises(ConfigError):
        parse_config_text("min_overlap_cells = 4.5\n")


def test_config_normalizes_kernel_weights():
    cfg = RunConfig(kernel_weights={k: 2.0 for k in RunConfig().kernel_weights})
    assert sum(cfg.kernel_weights.values()) == pytest.approx(1.0)


def test_world_schema_version_checked():
    with pytest.raises(ValueError):
        world_from_dict({"version": 999, "units": []})
