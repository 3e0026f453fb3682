"""Builtin demand profiles: per-rule requirement levels of application classes.

Each profile grades what an application class asks of the five capability
rules. Qualitative distinctions ("depends on the problem", "resource-state
generation") are encoded as `partial` with an explanatory note so reports can
surface the judgment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profiles import RULES, Level


@dataclass(frozen=True)
class RuleDemand:
    level: Level
    note: str = ""


@dataclass(frozen=True)
class DemandProfile:
    name: str
    rule_demand: dict[str, RuleDemand]

    def __post_init__(self):
        if set(self.rule_demand) != set(RULES):
            raise ValueError("rule_demand must cover exactly the five rules")

    def demand(self, rule: str) -> Level:
        return self.rule_demand[rule].level


def _profile(name: str, **rules: tuple[str, str]) -> DemandProfile:
    return DemandProfile(name, {
        rule: RuleDemand(Level(level), note) for rule, (level, note) in rules.items()})


_BUILTIN_DEMANDS: dict[str, DemandProfile] = {
    profile.name: profile for profile in [
        _profile(
            "quantum-annealing",
            states=("full", "two addressable basis states per spin"),
            operations=("none", "computation is driven by slowly tuning the Hamiltonian, "
                                "not by gates"),
            connectivity=("full", "problem couplings must map onto device couplings; "
                                  "high connectivity keeps embedding overhead low"),
            coherence=("full", "the adiabatic evolution must stay coherent end to end"),
            readout=("partial", "final state is read in the computational basis only")),
        _profile(
            "quantum-walk",
            states=("partial", "coin and walker registers admit different encodings"),
            operations=("none", "only the coin operation and the conditional shift "
                                "are required"),
            connectivity=("partial", "coin-walker coupling plus reachable position modes; "
                                     "problem dependent"),
            coherence=("full", "trajectories must superpose coherently"),
            readout=("partial", "only the position distribution is sampled")),
        _profile(
            "mbqc",
            states=("partial", "physical qubits are consumed as the measurement "
                               "sequence proceeds"),
            operations=("none", "no entangling gates are applied during the computation"),
            connectivity=("partial", "entanglement enters through resource-state "
                                     "preparation, not runtime coupling"),
            coherence=("full", "the resource state must survive the measurement sequence"),
            readout=("full", "fast single-qubit measurements in freely chosen bases")),
        _profile(
            "analogue-simulation",
            states=("full", "simulator spins mirror the target degrees of freedom"),
            operations=("none", "it suffices to realize the target Hamiltonian"),
            connectivity=("partial", "interaction graph depends on the simulated problem"),
            coherence=("full", "dynamics must remain coherent over the simulated time"),
            readout=("partial", "observables are usually computational-basis; "
                                "problem dependent")),
        _profile(
            "quantum-memory",
            states=("full", "stored qubits must remain addressable"),
            operations=("none", "storage and retrieval only; no computation"),
            connectivity=("partial", "needs a link to the computing module, not "
                                     "internal connectivity"),
            coherence=("full", "storage time is the figure of merit"),
            readout=("none", "stored information is handed back, not measured in place")),
        _profile(
            "circuit-model-universal",
            states=("full", "complete qubit contract"),
            operations=("full", "complete qubit contract"),
            connectivity=("full", "complete qubit contract"),
            coherence=("full", "complete qubit contract"),
            readout=("full", "complete qubit contract")),
    ]
}

BUILTIN_DEMAND_NAMES = tuple(sorted(_BUILTIN_DEMANDS))


def builtin_demand(name: str) -> DemandProfile:
    """Return a builtin demand profile by name."""
    if name not in _BUILTIN_DEMANDS:
        raise KeyError(
            f"unknown demand {name!r}; available: {', '.join(BUILTIN_DEMAND_NAMES)}")
    return _BUILTIN_DEMANDS[name]
