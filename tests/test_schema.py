"""Totality of the config-document readers: any JSON value at any field of a
valid document either loads or raises that document's own error."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.control import PolicyParseError, policy_from_dict
from oran_isac.harness import ConfigParseError, load_config
from oran_isac.ofh import WaveformParseError, waveform_from_dict
from oran_isac.radio import SceneParseError, scene_from_dict

SCENE = {
    "targets": [{"range_m": 45.0, "radial_velocity_mps": 10.0, "azimuth_deg": 0.0,
                 "amplitude": 1.0}],
    "snr_db": 20.0,
    "residual_si_power_db": -20.0,
    "seed": 0,
}
WAVEFORM = {"fft_size": 256, "cp_length": 64, "subcarrier_spacing": 390625.0,
            "pilot_pattern": "qpsk-prs", "carrier_frequency": 3.5e9, "bandwidth": 1e8,
            "num_symbols": 16}
POLICY = {"policy_id": "p", "geographic_scope": [[-60.0, 60.0]],
          "min_period_ms": 5.0, "max_period_ms": 1000.0}
CONFIG = {"transport": "inproc", "schedule_ms": [100, 20, 10], "segment_duration_s": 10.0,
          "probe_period_ms": 10.0, "num_probes": 5000, "accuracy_trials": 200, "seed": 0,
          "scene": SCENE, "waveform": WAVEFORM, "policy": POLICY}
NESTED_ERRORS = (SceneParseError, WaveformParseError, PolicyParseError)

# Powers of two pass the fft_size check and then meet float arithmetic; the
# sampled extremes overflow a float.
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
                | st.sampled_from([10**400, -10**400]) | st.integers(0, 1400).map(lambda k: 2**k)
                | st.floats() | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def field_paths(node, prefix=()):
    """Every position in a document, the whole document (``()``) first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from field_paths(child, (*prefix, key))


def put(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("parse, base, errors", [
    (scene_from_dict, SCENE, SceneParseError),
    (waveform_from_dict, WAVEFORM, WaveformParseError),
    (policy_from_dict, POLICY, PolicyParseError),
], ids=["scene", "waveform", "policy"])
@settings(deadline=None)
@given(data=st.data())
def test_document_loads_or_raises_its_own_error(parse, base, errors, data):
    path = data.draw(st.sampled_from(list(field_paths(base))))
    doc = put(base, path, data.draw(JSON_VALUES))
    try:
        parse(doc)
    except errors:
        pass


@settings(deadline=None)
@given(data=st.data())
def test_experiment_config_loads_or_raises_a_typed_error(tmp_path_factory, data):
    path = data.draw(st.sampled_from(list(field_paths(CONFIG))))
    doc = put(CONFIG, path, data.draw(JSON_VALUES))
    file = tmp_path_factory.mktemp("config") / "exp.json"
    file.write_text(json.dumps(doc))
    try:
        load_config(file)
    except (ConfigParseError, *NESTED_ERRORS):
        pass
