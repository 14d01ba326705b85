"""Machine model: parameters, zone layout, grids, and geometry checks."""
import functools
import json
import math

import pytest

from pachinqo.machine import (
    CapacityError,
    GeometryError,
    PhysParams,
    aod_capacity,
    build_layout,
    generate_grid,
    load_params,
    machine_capacity,
    pair_clear_sites,
    validate_geometry,
)

from corpus import GRIDS


def test_defaults_match_reference_parameters(params):
    assert params.trap_change_time == 125.0
    assert params.aod_speed == 55.0
    assert params.t1 == 4.0
    assert params.t2 == 1.49
    assert params.u3_error == 0.000127
    assert params.cz_error == 0.0048
    assert params.swap_error == 0.0151
    assert params.readout_error == 0.05
    assert params.atom_loss == 0.007
    assert params.u3_time == 2.0
    assert params.cz_time == 0.8
    assert params.interaction_radius == 2.0
    assert params.crosstalk_radius == 10.0
    assert params.storage_pitch == 2.0
    assert params.max_atoms_per_column == 4


def test_load_params_defaults():
    p, scale = load_params(None)
    assert p == PhysParams()
    assert scale is None


def test_load_params_override(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"aod_speed": 110, "layout_scale": "doubled"}))
    p, scale = load_params(str(f))
    assert p.aod_speed == 110
    assert p.cz_time == 0.8  # others stay at defaults
    assert scale == "doubled"


def test_load_params_rejects_zero_time():
    with pytest.raises(GeometryError, match="cz_time must be > 0"):
        load_params({"cz_time": 0})


def test_load_params_rejects_unknown_key():
    with pytest.raises(GeometryError, match="unknown parameter"):
        load_params({"cz_tim": 1})


@pytest.mark.parametrize("data, message", [
    ({"aod_speed": True}, "aod_speed must be a finite number"),
    ({"t1": math.inf}, "t1 must be a finite number"),
    ({"max_atoms_per_column": 2.5}, "max_atoms_per_column must be an integer"),
])
def test_load_params_rejects_bad_values(data, message):
    with pytest.raises(GeometryError, match=message):
        load_params(data)


def test_load_params_accepts_integral_float_column_size():
    assert load_params({"max_atoms_per_column": 3.0})[0].max_atoms_per_column == 3


def test_params_invariants():
    with pytest.raises(GeometryError):
        PhysParams(interaction_radius=12.0)  # >= crosstalk
    with pytest.raises(GeometryError):
        PhysParams(readout_error=1.0)


def test_default_layout_dimensions(default_layout):
    b = default_layout.bounds
    assert (b.w, b.h) == (370.0, 190.0)
    assert (default_layout.left_cache.w, default_layout.left_cache.h) == (80.0, 130.0)
    assert (default_layout.right_cache.w, default_layout.right_cache.h) == (80.0, 130.0)
    assert (default_layout.compute.w, default_layout.compute.h) == (190.0, 130.0)
    assert (default_layout.memory.w, default_layout.memory.h) == (190.0, 50.0)
    assert default_layout.readout == default_layout.right_cache


def test_doubled_layout_doubles_every_dimension(params):
    d = build_layout(10, "doubled", params)
    assert (d.bounds.w, d.bounds.h) == (740.0, 380.0)
    assert (d.compute.w, d.compute.h) == (380.0, 260.0)
    assert (d.left_cache.w, d.left_cache.h) == (160.0, 260.0)
    assert (d.memory.w, d.memory.h) == (380.0, 100.0)


def test_auto_scale_selects_doubled_for_420(params):
    assert build_layout(420, "auto", params).scale == "doubled"
    assert build_layout(64, "auto", params).scale == "default"


def test_single_qubit_layout_valid(params):
    layout = build_layout(1, "default", params)
    assert validate_geometry(layout, generate_grid("large-square", layout, params), params) == []


def test_capacity_error_beyond_doubled(params):
    with pytest.raises(CapacityError):
        build_layout(2000, "auto", params)


def test_large_square_site_count(default_layout, params):
    grid = generate_grid("large-square", default_layout, params)
    # floor((190-20)/15)+1 = 12 columns, floor((130-20)/15)+1 = 8 rows
    assert len(grid) == 96


def test_small_square_has_more_sites(default_layout, params):
    large = generate_grid("large-square", default_layout, params)
    small = generate_grid("small-square", default_layout, params)
    assert len(small) > len(large)


def test_grid_determinism(default_layout, params):
    for kind in ("large-square", "small-square", "triangle", "star"):
        a = generate_grid(kind, default_layout, params)
        b = generate_grid(kind, default_layout, params)
        assert a.sites == b.sites


def test_grids_row_major_bottom_left(default_layout, params):
    for kind in ("large-square", "small-square", "triangle", "star"):
        sites = generate_grid(kind, default_layout, params).sites
        assert sites == tuple(sorted(sites, key=lambda s: (s[1], s[0])))


def test_all_generated_grids_validate(default_layout, params):
    for kind in ("large-square", "small-square", "triangle", "star"):
        grid = generate_grid(kind, default_layout, params)
        assert validate_geometry(default_layout, grid, params) == []


def test_validate_geometry_flags_close_sites(default_layout, params):
    from pachinqo.machine import SlmGrid

    comp = default_layout.compute
    x, y = comp.x0 + 20, comp.y0 + 20
    grid = SlmGrid("triangle", ((x, y), (x + 1.0, y)))
    violations = validate_geometry(default_layout, grid, params)
    assert any("interaction radius" in v for v in violations)


def test_validate_geometry_flags_outside_site(default_layout, params):
    from pachinqo.machine import SlmGrid

    grid = SlmGrid("triangle", ((0.0, 0.0),))
    violations = validate_geometry(default_layout, grid, params)
    assert any("outside compute" in v for v in violations)


def test_pair_clear_sites_large_square_all_usable(default_layout, params):
    grid = generate_grid("large-square", default_layout, params)
    assert pair_clear_sites(grid, params) == list(range(len(grid)))


def test_pair_clear_sites_small_square_thinned(default_layout, params):
    grid = generate_grid("small-square", default_layout, params)
    usable = pair_clear_sites(grid, params)
    assert len(usable) < len(grid)
    # still beats the large grid's capacity
    assert len(usable) > 96


def test_capacity_composition(default_layout, params):
    grid = generate_grid("large-square", default_layout, params)
    assert machine_capacity(default_layout, params) == (
        len(pair_clear_sites(grid, params)) + aod_capacity(default_layout, params)
    )


def _capacity_rule(params, grid_kind):
    """n -> the scale `auto` picks by counting SLM sites: the first layout
    whose SLM + AOD capacity holds n qubits."""
    caps = [(scale, machine_capacity(build_layout(1, scale, params), params,
                                     grid_kind))
            for scale in ("default", "doubled")]
    return lambda n: next(scale for scale, cap in caps if n <= cap)


def test_auto_layout_matches_the_capacity_rule(params, monkeypatch):
    import pachinqo.machine

    # Memoised, so the 1,000 layouts cost a few site counts.
    monkeypatch.setattr(pachinqo.machine, "machine_capacity",
                        functools.cache(machine_capacity))
    for grid_kind in GRIDS:
        rule = _capacity_rule(params, grid_kind)
        for n in range(1, 251):
            assert build_layout(n, "auto", params, grid_kind) == \
                build_layout(n, rule(n), params), (grid_kind, n)


def test_auto_layout_counts_no_sites_within_aod_capacity(params, monkeypatch):
    import pachinqo.machine

    def fail(*args):
        raise AssertionError("pair_clear_sites called")

    default = build_layout(1, "default", params)
    cap = aod_capacity(default, params)
    assert cap == 124
    monkeypatch.setattr(pachinqo.machine, "pair_clear_sites", fail)
    for grid_kind in GRIDS:
        for n in range(1, cap + 1):
            assert build_layout(n, "auto", params, grid_kind) == default
        with pytest.raises(AssertionError):
            build_layout(cap + 1, "auto", params, grid_kind)
