"""The record types are named tuples: immutable, built from the same
constructor forms as before, equal and hashed by value; the five that check
their fields do so in ``__new__``."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qsteer.circuits import CNOT, Circuit, Gate, steering_kak, synth_kak_circuit
from qsteer.cli import _noise_echo, load_noise
from qsteer.errors import ConfigError
from qsteer.protocol import NoiseConfig, RepetitionStats, RunRecord
from qsteer.states import CATALOG, QUTRIT_EQUAL_TARGET, QubitTarget, QutritTarget
from qsteer.steering import TargetSpec, make_steering_operator

from golden import NOISE_ALL

SRC = Path(__file__).resolve().parent.parent / "src" / "qsteer"


def _records():
    spec = TargetSpec(CATALOG["+"], 0.785, "+")
    op = make_steering_operator(spec)
    return [
        NoiseConfig(depolarizing_p=0.1),
        RunRecord((0.5, 1.0), (0, 1), 2),
        RepetitionStats({2: 1}, ((2, 1.0),), 2.0, 0, 1),
        QubitTarget(0.5, 0.0),
        QutritTarget(1.0, 0.5, 0.0, 0.0),
        spec,
        op,
        steering_kak(spec, op),
        synth_kak_circuit(op)[0],
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):  # no instance __dict__ to hold one
        record.extra = None


def test_builds_from_the_benchmark_forms():
    # benchmarks/workloads.py passes every noise key, the confusion as an array
    confusion = np.array(NOISE_ALL["readout_confusion"])
    noise = NoiseConfig(**dict(NOISE_ALL, readout_confusion=confusion))
    assert noise.readout_confusion.dtype == float
    assert np.array_equal(noise.readout_confusion, confusion)
    assert noise.reset_infidelity == NOISE_ALL["reset_infidelity"]
    spec = TargetSpec(CATALOG["qutrit-equal"], 0.785, "qutrit-equal")
    assert (spec.target, spec.coupling, spec.label, spec.system_dim) == (
        QUTRIT_EQUAL_TARGET, 0.785, "qutrit-equal", 3)


def test_defaults_and_coercions():
    assert NoiseConfig()._asdict() == {"depolarizing_p": 0.0, "amplitude_damping_gamma": 0.0,
                                       "readout_confusion": None, "reset_infidelity": 0.0}
    assert type(NoiseConfig(depolarizing_p=1).depolarizing_p) is float
    assert TargetSpec(CATALOG["+"], 0.5).label is None
    circuit = Circuit(wire_dims=[2, 2], gates=[Gate(CNOT, (), (0, 1))] * 2)
    assert circuit.wire_dims == (2, 2) and isinstance(circuit.gates, tuple)
    assert circuit.global_phase == 0.0
    assert circuit.count(CNOT) == 2  # Circuit.count, not tuple.count


def test_equal_targets_are_equal_and_hash_equal():
    for label, target in CATALOG.items():
        again = type(target)(*target)
        assert again == target and hash(again) == hash(target), label
    twin = QubitTarget(math.pi / 2, 2 * math.pi)  # a phase of 2pi is read as 0
    assert twin == CATALOG["+"] and hash(twin) == hash(CATALOG["+"])
    # sweep keys its channels by target: a qubit and a qutrit target never collide
    targets = list(CATALOG.values())
    assert [(a == b) for a in targets for b in targets] == [
        a is b for a in targets for b in targets]


def test_load_noise_rejects_unknown_keys(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({"depolarizing_p": 0.1, "mystery": 1}))
    with pytest.raises(ConfigError, match=re.escape("unknown noise keys: ['mystery']")):
        load_noise(str(path))
    path.write_text(json.dumps(NOISE_ALL))
    assert _noise_echo(load_noise(str(path))) == NOISE_ALL


def test_src_calls_no_replace():
    """``_replace`` builds through ``tuple.__new__``, skipping the checks of
    the validating records."""
    calls = [path.name for path in SRC.glob("*.py") if "._replace(" in path.read_text()]
    assert calls == []
