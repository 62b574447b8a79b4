"""System construction, serialization and the named presets."""

import dataclasses
import json
import math

import pytest

from pwlienard import Case, LienardSystem, PRESET_NAMES, load_preset
from pwlienard.systems import _load_preset_file, canonical_dumps


def test_build_pads_short_vectors():
    sys_ = LienardSystem.build(Case.SWITCH_Y, 3, 2, a0=[0, 1])
    assert len(sys_.a0) == 4
    assert len(sys_.c) == 3
    assert sys_.a0[1].as_rational() == 1
    assert sys_.a0[3].is_zero()


def test_build_rejects_long_vectors():
    with pytest.raises(ValueError):
        LienardSystem.build(Case.SWITCH_Y, 1, 1, a0=[1, 2, 3])


def test_build_rejects_negative_params():
    with pytest.raises(ValueError):
        LienardSystem.build(Case.SWITCH_Y, -1, 0)
    with pytest.raises(ValueError):
        LienardSystem.build(Case.SWITCH_Y, 1, 1, lam=-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["lam", "eps"])
def test_params_must_be_finite(name, value):
    """NaN fails every comparison, so it is rejected as inf is."""
    with pytest.raises(ValueError, match="finite"):
        LienardSystem.build(Case.SWITCH_Y, 1, 1, **{name: value})
    params = {"lam": 0.02, "eps": 4e-4, name: value}
    with pytest.raises(ValueError, match="finite"):
        load_preset("example1").with_params(params["lam"], params["eps"])


def test_case_from_string():
    sys_ = LienardSystem.build("X", 0, 0)
    assert sys_.case is Case.SWITCH_X


def test_with_params():
    sys_ = load_preset("example1")
    sys2 = sys_.with_params(0.02, 4e-4)
    assert sys2.lam == 0.02 and sys2.eps == 4e-4
    assert sys2.a0 == sys_.a0
    with pytest.raises(ValueError):
        sys_.with_params(-1.0, 0.0)


def test_oddness_predicates_and_projection():
    sys_ = LienardSystem.build(Case.SWITCH_Y, 3, 2, a0=[1, 2, 0, 4], b0=[0, 5, 6])
    assert not sys_.f0_is_odd()
    assert not sys_.g0_is_odd()
    proj = sys_.odd_projection()
    assert proj.f0_is_odd() and proj.g0_is_odd()
    assert proj.a0[1].as_rational() == 2
    assert proj.a0[3].as_rational() == 4
    assert proj.b0[1].as_rational() == 5
    assert proj.b0[2].is_zero()


def test_json_round_trip_byte_identical():
    for name in PRESET_NAMES:
        sys_ = load_preset(name)
        text = sys_.dumps()
        again = LienardSystem.from_json(json.loads(text))
        assert again == sys_
        assert again.dumps() == text


def test_presets_match_stored_documents():
    stored = _load_preset_file()
    for name in PRESET_NAMES:
        assert load_preset(name).dumps() == canonical_dumps(stored[name])


def test_unknown_preset():
    with pytest.raises(KeyError):
        load_preset("no-such-preset")


def test_load_preset_with_params():
    sys_ = load_preset("example1").with_params(0.04, 1e-3)
    assert sys_.lam == 0.04
    assert sys_.eps == 1e-3
    with pytest.raises(ValueError):
        load_preset("example1").with_params(-1.0, 0.0)


def test_float_coeffs_shape():
    sys_ = load_preset("example2")
    fc = sys_.float_coeffs()
    assert set(fc) == {"a0", "a1", "b0", "b1", "c"}
    assert len(fc["a0"]) == sys_.m + 1
    assert all(isinstance(v, float) for v in fc["c"])
    assert all(type(v) is tuple for v in fc.values())
    # converted once per system: a second call returns the same dict
    assert sys_.float_coeffs() is fc
    # a copy converts its own, and equality and hash ignore the cache
    fresh = load_preset("example2")
    assert fresh == sys_ and hash(fresh) == hash(sys_)
    for copy in (sys_.with_params(0.02, 4e-4), sys_.odd_projection(),
                 dataclasses.replace(sys_)):
        assert copy.float_coeffs() is not fc
        assert copy.float_coeffs() is copy.float_coeffs()
