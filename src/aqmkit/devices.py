"""Builtin device profiles: a small survey dataset of published platforms.

Each numeric field carries a note: either a literature citation for the
figure or an explicit "nominal" marker when no published value was adopted.
``CITED_CONSTANTS`` collects the pinned literature figures (including ones
that have no direct schema slot, such as the NV nuclear-spin coherence) so
golden-data tests can check the dataset against its sources.
"""

from __future__ import annotations

from functools import lru_cache

from .profiles import DeviceProfile, profile_from_dict

_NOMINAL = "nominal value; not taken from a published figure"


def _gate(gate: str, arity: int, duration_ns: float, fidelity: float) -> dict:
    return {"gate": gate, "arity": arity, "duration_ns": duration_ns, "fidelity": fidelity}


def _single_qubit_set(names, duration_ns: float, fidelity: float) -> list[dict]:
    return [_gate(name, 1, duration_ns, fidelity) for name in names]


_DISCRETE_1Q = ("X", "Y", "Z", "H", "S", "SDG", "T", "TDG")
_ROTATIONS = ("RX", "RY", "RZ")

# Literature figures pinned by the dataset, keyed per profile. Values not
# representable as schema fields (the NV nuclear coherence, the remote
# entanglement rate) live only here and in the notes.
CITED_CONSTANTS: dict[str, dict[str, float]] = {
    "superconducting-transmon": {
        "cz_duration_ns": 40.0,        # Stehlik et al. 2021; Sung et al. 2021; Marxer et al. 2023
        "cz_fidelity": 0.998,
        "t1_us": 500.0,                # Place et al. 2021; Wang et al. 2022
        "t2_us": 300.0,                # T2* 0.3 ms, Place et al. 2021; Wang et al. 2022
        "t2_dd_us": 557.0,             # 0.557 ms with dynamical decoupling, Wang et al. 2022
    },
    "fluxonium": {
        "t2_us": 1480.0,               # T2* 1.48 ms, Somoroff et al. 2023
        "cz_duration_ns": 100.0,       # microwave-activated CZ, Nesterov et al. 2018
        "cz_fidelity": 0.999,
    },
    "trapped-ion": {
        "t2_us": 5.5e9,                # hyperfine qubit, 5500 s, Wang et al. 2021
        "two_qubit_fidelity": 0.999,   # Ballance et al. 2016
        "single_qubit_fidelity": 0.999999,  # Harty et al. 2014
        "single_qubit_duration_ns": 1000.0,  # ~1 us microwave gates, Leu et al. 2023
        "readout_fidelity": 0.999,     # Burrell 2010; Christensen 2020; Todaro 2021
    },
    "neutral-atom": {
        "two_qubit_fidelity": 0.995,   # Evered et al. 2023; Bluvstein et al. 2023
        "two_qubit_duration_ns": 200.0,  # ~200 ns Rydberg CZ, Evered et al. 2023
        "t2_dd_us": 1.5e6,             # 1.5 s with dynamical decoupling (Rb), Bluvstein 2022
        "single_qubit_duration_ns": 250.0,  # pi pulse at 2 MHz Rabi rate, Levine et al. 2022
    },
    "nv-center": {
        "t2_us": 1800.0,               # 1.8 ms electron spin, room temp, Balasubramanian 2009
        "t2_dd_us": 1.58e6,            # 1.58 s electron spin with DD, Abobeih et al. 2018
        "nuclear_t2_dd_us": 6.3e7,     # 63 s nuclear spin with DD, Bradley et al. 2019
        "entanglement_rate_hz": 9.0,   # remote NV-NV entanglement, Pompili et al. 2021
    },
    "photonic-mbqc": {},
    "quantum-memory-ensemble": {
        "eit_storage_us": 1.6e7,       # 16 s EIT cold-atom storage with DD, Dudin et al. 2013
        "afc_storage_us": 52.9 * 60.0 * 1e6,  # 52.9 min AFC crystal storage with DD, Ma 2021
    },
}


_BUILTIN_DATA: dict[str, dict] = {
    "superconducting-transmon": {
        "name": "superconducting-transmon",
        "num_qubits": 5,
        "connectivity": [[0, 1], [1, 2], [2, 3], [3, 4]],
        "native_gates": (
            _single_qubit_set(_DISCRETE_1Q + _ROTATIONS, 20.0, 0.9995)
            + [_gate("CZ", 2, 40.0, 0.998)]),
        "t1_us": 500.0,
        "t2_us": 300.0,
        "t2_dd_us": 557.0,
        "measurement": {"computational_only": True, "fidelity": 0.997,
                        "duration_ns": 100.0, "mid_circuit": True},
        "rule_support": {"states": "full", "operations": "full",
                         "connectivity": "partial", "coherence": "full",
                         "readout": "partial"},
        "qec_capable": True,
        "notes": {
            "native_gates.CZ": "tunable-coupler CZ, 99.8% in ~40 ns "
                               "(Stehlik et al. 2021; Sung et al. 2021; Marxer et al. 2023)",
            "native_gates.1q": "microwave-driven arbitrary X/Y rotations with virtual Z; "
                               "duration/fidelity " + _NOMINAL,
            "t1_us": "lifetime up to 500 us (Place et al. 2021; Wang et al. 2022)",
            "t2_us": "T2* up to 0.3 ms (Place et al. 2021; Wang et al. 2022)",
            "t2_dd_us": "0.557 ms with dynamical decoupling (Wang et al. 2022)",
            "measurement": "dispersive QND readout, 99.0-99.7% in 40-100 ns "
                           "(Walter et al. 2017; Sunada et al. 2022); high end encoded",
            "rule_support.connectivity": "coupling limited to nearest neighbours on chip",
            "rule_support.readout": "projective, computational basis only",
            "qec_capable": "surface-code demonstrations (Krinner et al. 2022; "
                           "Google Quantum AI 2023)",
        },
    },
    "fluxonium": {
        "name": "fluxonium",
        "num_qubits": 4,
        "connectivity": [[0, 1], [1, 2], [2, 3]],
        "native_gates": (
            _single_qubit_set(_DISCRETE_1Q + _ROTATIONS, 20.0, 0.9995)
            + [_gate("CZ", 2, 100.0, 0.999)]),
        "t1_us": 1480.0,
        "t2_us": 1480.0,
        "measurement": {"computational_only": True, "fidelity": 0.997,
                        "duration_ns": 100.0, "mid_circuit": True},
        "rule_support": {"states": "full", "operations": "full",
                         "connectivity": "partial", "coherence": "full",
                         "readout": "partial"},
        "qec_capable": False,
        "notes": {
            "native_gates.CZ": "microwave-activated CZ, 99.9% within 100 ns projected "
                               "(Nesterov et al. 2018; Nguyen et al. 2022)",
            "native_gates.1q": _NOMINAL,
            "t1_us": "T1 not separately encoded; set equal to T2*",
            "t2_us": "T2* 1.48 ms (Somoroff et al. 2023)",
            "measurement": "dispersive readout; figures " + _NOMINAL,
            "rule_support.connectivity": "nearest-neighbour coupling, as for transmons",
            "rule_support.readout": "projective, computational basis only",
        },
    },
    "trapped-ion": {
        "name": "trapped-ion",
        "num_qubits": 5,
        "connectivity": [[a, b] for a in range(5) for b in range(a + 1, 5)],
        "native_gates": (
            _single_qubit_set(_ROTATIONS, 1000.0, 0.999999)
            + [_gate("CNOT", 2, 100000.0, 0.999)]),
        "t1_us": 5.5e9,
        "t2_us": 5.5e9,
        "measurement": {"computational_only": True, "fidelity": 0.999,
                        "duration_ns": 200000.0, "mid_circuit": True},
        "rule_support": {"states": "full", "operations": "full",
                         "connectivity": "full", "coherence": "full",
                         "readout": "partial"},
        "qec_capable": True,
        "notes": {
            "native_gates.1q": "microwave rotations ~99.9999% (Harty et al. 2014), "
                               "~1 us duration (Leu et al. 2023); RZ composed, same spec",
            "native_gates.CNOT": "Molmer-Sorensen-based entangler, up to 99.9% "
                                 "(Ballance et al. 2016); 10-500 us reported, 100 us encoded",
            "t1_us": "hyperfine qubit; T1 not separately encoded, set equal to T2",
            "t2_us": "hyperfine coherence up to 5500 s (Wang et al. 2021)",
            "measurement": "fluorescence readout >99.9% (Burrell 2010; Christensen 2020; "
                           "Todaro 2021); duration " + _NOMINAL,
            "rule_support.connectivity": "all-to-all within a single trap via shared "
                                         "motional modes",
            "rule_support.readout": "projective, computational basis only",
            "qec_capable": "error-correction demonstrations (Stricker et al. 2020)",
        },
    },
    "neutral-atom": {
        "name": "neutral-atom",
        "num_qubits": 9,
        "connectivity": [[0, 1], [1, 2], [3, 4], [4, 5], [6, 7], [7, 8],
                         [0, 3], [3, 6], [1, 4], [4, 7], [2, 5], [5, 8]],
        "native_gates": (
            _single_qubit_set(_ROTATIONS, 250.0, 0.999)
            + [_gate("CZ", 2, 200.0, 0.995)]),
        "t1_us": 1.0e6,
        "t2_us": 1.0e6,
        "t2_dd_us": 1.5e6,
        "measurement": {"computational_only": True, "fidelity": 0.99,
                        "duration_ns": 1.0e6, "mid_circuit": False},
        "rule_support": {"states": "full", "operations": "full",
                         "connectivity": "partial", "coherence": "full",
                         "readout": "partial"},
        "qec_capable": True,
        "notes": {
            "native_gates.CZ": "Rydberg-blockade CZ, 99.5% in ~200 ns "
                               "(Evered et al. 2023; Bluvstein et al. 2023)",
            "native_gates.1q": "pi pulse at 2 MHz Rabi rate, 250 ns (Levine et al. 2022); "
                               "fidelity " + _NOMINAL,
            "t1_us": _NOMINAL,
            "t2_us": "hyperfine encodings reach seconds; 1 s encoded as representative",
            "t2_dd_us": "1.5 s with dynamical decoupling, Rb (Bluvstein et al. 2022)",
            "measurement": "site-resolved imaging; figures " + _NOMINAL,
            "rule_support.connectivity": "optical-lattice neighbours, extended range via "
                                         "Rydberg radius and atom transport",
            "rule_support.readout": "projective, computational basis only",
            "qec_capable": "logical-qubit operations demonstrated (Bluvstein et al. 2024)",
        },
    },
    "nv-center": {
        "name": "nv-center",
        "num_qubits": 2,
        "connectivity": [[0, 1]],
        "native_gates": _single_qubit_set(_ROTATIONS, 1000.0, 0.995),
        "t1_us": 1.58e6,
        "t2_us": 1800.0,
        "t2_dd_us": 1.58e6,
        "measurement": {"computational_only": True, "fidelity": 0.98,
                        "duration_ns": 10000.0, "mid_circuit": True},
        "rule_support": {"states": "full", "operations": "partial",
                         "connectivity": "partial", "coherence": "full",
                         "readout": "partial"},
        "qec_capable": False,
        "notes": {
            "native_gates.1q": "coherent microwave drive on the electron spin; figures "
                               + _NOMINAL,
            "native_gates.2q": "no deterministic native entangler; remote entanglement is "
                               "heralded at ~9 Hz (Pompili et al. 2021)",
            "t1_us": "T1 not separately encoded; set equal to DD-extended T2",
            "t2_us": "1.8 ms electron spin at room temperature "
                     "(Balasubramanian et al. 2009)",
            "t2_dd_us": "1.58 s electron spin with dynamical decoupling "
                        "(Abobeih et al. 2018); nearby nuclear spins reach 63 s "
                        "(Bradley et al. 2019)",
            "measurement": "optical spin readout via photon counting; figures " + _NOMINAL,
            "rule_support.operations": "full single-qubit control; entangling operations "
                                       "slow and heralded",
            "rule_support.connectivity": "photon-heralded links between centres, ~9 Hz "
                                         "(Pompili et al. 2021)",
        },
    },
    "photonic-mbqc": {
        "name": "photonic-mbqc",
        "num_qubits": 6,
        "connectivity": [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3], [1, 4], [2, 5]],
        "native_gates": _single_qubit_set(_DISCRETE_1Q + _ROTATIONS, 10.0, 0.999),
        "t1_us": 10.0,
        "t2_us": 10.0,
        "measurement": {"computational_only": False, "fidelity": 0.99,
                        "duration_ns": 10.0, "mid_circuit": True},
        "rule_support": {"states": "full", "operations": "partial",
                         "connectivity": "partial", "coherence": "full",
                         "readout": "full"},
        "qec_capable": False,
        "notes": {
            "native_gates.1q": "passive linear optics (wave plates, phase shifters); "
                               "figures " + _NOMINAL,
            "native_gates.2q": "no deterministic entangler; entanglement enters through "
                               "the resource state",
            "t1_us": "itinerant photons; loss-limited, " + _NOMINAL,
            "t2_us": _NOMINAL,
            "measurement": "arbitrary-basis single-photon measurement via rotation plus "
                           "detection; qubits are consumed",
            "rule_support.states": "photons are consumed by measurement and replenished",
            "rule_support.connectivity": "computation connectivity comes from the "
                                         "entanglement structure of the resource state",
            "rule_support.readout": "measurement basis freely adjustable",
        },
    },
    "quantum-memory-ensemble": {
        "name": "quantum-memory-ensemble",
        "num_qubits": 4,
        "connectivity": [[0, 1], [1, 2], [2, 3]],
        "native_gates": [],
        "t1_us": 1.6e7,
        "t2_us": 1.6e7,
        "t2_dd_us": 52.9 * 60.0 * 1e6,
        "measurement": {"computational_only": True, "fidelity": 0.9,
                        "duration_ns": 1000.0, "mid_circuit": False},
        "rule_support": {"states": "full", "operations": "none",
                         "connectivity": "partial", "coherence": "full",
                         "readout": "partial"},
        "qec_capable": False,
        "notes": {
            "native_gates": "collective excitations support store/retrieve only; no "
                            "universal control of the encoded Hilbert space",
            "t1_us": "set equal to the EIT storage figure",
            "t2_us": "16 s EIT cold-atom storage with dynamical decoupling "
                     "(Dudin et al. 2013)",
            "t2_dd_us": "52.9 min AFC ion-doped-crystal storage with dynamical "
                        "decoupling (Ma et al. 2021)",
            "measurement": "readout by re-emitting and detecting the stored photon; "
                           "figures " + _NOMINAL,
            "rule_support.connectivity": "memory cells linked by optical paths; modes "
                                         "within a cell cannot be entangled on demand",
            "rule_support.readout": "indirect, via the emitted photon",
        },
    },
}

BUILTIN_PROFILE_NAMES = tuple(sorted(_BUILTIN_DATA))


@lru_cache(maxsize=None)
def builtin_profile(name: str) -> DeviceProfile:
    """Return a builtin device profile by name."""
    if name not in _BUILTIN_DATA:
        raise KeyError(
            f"unknown profile {name!r}; available: {', '.join(BUILTIN_PROFILE_NAMES)}")
    return profile_from_dict(_BUILTIN_DATA[name])
