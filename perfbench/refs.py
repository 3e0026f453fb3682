"""Output checks against references that do not come from the code being timed.

- Histograms: exact outcome distributions from ``tests/oracles.py`` (the
  Kronecker-chain unitary), with branch enumeration over mid-circuit MEASURE
  and RESET, and a Bernstein bound on every count.
- General measurements: outcome probabilities and post-states from the
  operators directly.
- MBQC: the closed-form RX(t3) RZ(t2) RX(t1) |+> for Euler ops, and for
  every pattern an independent re-execution with the reported outcomes.
- Transpiles: oracle unitaries of source and output, native gates and device
  edges; outputs wider than five qubits are compared on a random state.
- Match: the verdict matrix recorded in ``golden_match.json``.
- Anneal: golden values from a fine-tolerance ODE solve (``golden_anneal.py``).

``check(op, result)`` returns None when the output is correct, else a reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from aqmkit import gates
from aqmkit.circuit import Circuit, parse_circuit
from aqmkit.devices import builtin_profile
from aqmkit.profiles import parse_device_profile

import oracles
import workloads

HERE = Path(__file__).resolve().parent

# Each count is tested at false-alarm probability 1e-12, so a correct sampler
# fails with negligible probability over every op of every run.
_LOG_TERM = math.log(2 / 1e-12)
_SUPPORT_CUTOFF = 1e-10
EXACT_TOL = 1e-6          # phase-invariant distance allowed for exact compilations
STATE_TOL = 1e-8


def bernstein_slack(shots: int, p: float) -> float:
    """Deviation of a binomial count that Bernstein's inequality exceeds w.p. <= 1e-12."""
    third = _LOG_TERM / 3
    return third + math.sqrt(third ** 2 + 2 * shots * p * (1 - p) * _LOG_TERM)


def check_histogram(counts: dict[str, int], probs: dict[str, float], shots: int) -> str | None:
    if sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, expected {shots}"
    for key in set(counts) | set(probs):
        p = probs.get(key, 0.0)
        c = counts.get(key, 0)
        if p < _SUPPORT_CUTOFF and c > 0:
            return f"outcome {key} has probability {p:.2e} but count {c}"
        if abs(c - shots * p) > bernstein_slack(shots, p):
            return f"outcome {key}: count {c}, expected {shots * p:.1f}"
    return None


# --- circuits with MEASURE and RESET -----------------------------------------

def _project(state: np.ndarray, qubit: int, bit: int) -> np.ndarray:
    index = np.arange(state.size)
    return np.where(((index >> qubit) & 1) == bit, state, 0.0)


def record_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact distribution of the MEASURE record string, by branch enumeration.

    Gates are applied with ``oracles.kron_embed``; a MEASURE or RESET splits
    every branch into its two computational outcomes.
    """
    n = circuit.num_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    branches = [("", state)]  # (record so far, unnormalised amplitudes)
    for inst in circuit.instructions:
        q = inst.qubits[0]
        if inst.gate in ("MEASURE", "RESET"):
            split = []
            for record, amps in branches:
                for bit in (0, 1):
                    part = _project(amps, q, bit)
                    if np.vdot(part, part).real < 1e-20:
                        continue
                    if inst.gate == "MEASURE":
                        split.append((record + str(bit), part))
                    else:
                        flipped = oracles.kron_embed(gates.X, [q], n) @ part if bit else part
                        split.append((record, flipped))
            branches = split
        else:
            op = oracles.kron_embed(gates.gate_matrix(inst.gate, inst.angle), inst.qubits, n)
            branches = [(record, op @ amps) for record, amps in branches]
    probs: dict[str, float] = {}
    for record, amps in branches:
        probs[record] = probs.get(record, 0.0) + float(np.vdot(amps, amps).real)
    return probs


def _check_simulate(op, result, ref):
    if result["code"] != 0:
        return f"exit {result['code']}: {result['err'].strip()}"
    payload = json.loads(result["out"])
    if payload["shots"] != op.data["shots"]:
        return "wrong shot count in output"
    return check_histogram(payload["counts"], ref, op.data["shots"])


# --- general measurements ---------------------------------------------------

def _check_mset(op, result, ref):
    operators, psi = op.data["operators"], op.data["state"]
    records = result["records"]
    if len(records) != 2 * workloads.MSET_SAMPLES:
        return f"{len(records)} records, expected {2 * workloads.MSET_SAMPLES}"
    for outcome, prob, post in records:
        branch = operators[outcome] @ psi
        p = float(np.vdot(branch, branch).real)
        if p < _SUPPORT_CUTOFF or abs(prob - p) > 1e-9:
            return f"outcome {outcome}: probability {prob}, expected {p}"
        if np.max(np.abs(post - branch / math.sqrt(p))) > STATE_TOL:
            return f"outcome {outcome}: wrong post-measurement state"
    probs = {str(k): float(np.vdot(m @ psi, m @ psi).real) for k, m in enumerate(operators)}
    for half in (records[:workloads.MSET_SAMPLES], records[workloads.MSET_SAMPLES:]):
        counts: dict[str, int] = {}
        for outcome, _, _ in half:
            counts[str(outcome)] = counts.get(str(outcome), 0) + 1
        reason = check_histogram(counts, probs, workloads.MSET_SAMPLES)
        if reason:
            return reason
    return None


# --- MBQC -------------------------------------------------------------------

def _rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def euler_target(t1: float, t2: float, t3: float) -> np.ndarray:
    return _rx(t3) @ _rz(t2) @ _rx(t1) @ np.array([1.0, 1.0]) / math.sqrt(2)


def replay_pattern(pattern: dict, outcomes: dict[int, int]) -> np.ndarray:
    """Graph state on all nodes in |+>, XY-plane projections onto the reported
    outcomes with adapted angles, then byproducts; output j = outputs[j]."""
    n = pattern["nodes"]
    index = np.arange(2 ** n)
    bits = (index[:, None] >> np.arange(n)) & 1
    phase = np.zeros(2 ** n, dtype=int)
    for a, b in pattern["edges"]:
        phase ^= bits[:, a] & bits[:, b]
    amps = np.where(phase == 1, -1.0, 1.0).astype(complex) / 2 ** (n / 2)
    tensor = amps.reshape((2,) * n)          # axis n-1-q holds qubit q
    alive = list(range(n))                   # qubits still in the tensor, axis order reversed
    adaptivity = pattern.get("adaptivity") or [None] * len(pattern["order"])
    for q, angle, expr in zip(pattern["order"], pattern["angles"], adaptivity):
        deps = [int(d) for d in re.findall(r"s\[(\d+)\]", expr or "")]
        theta = (-1) ** sum(outcomes[d] for d in deps) * angle
        sign = 1 if outcomes[q] == 0 else -1
        bra = np.array([1.0, sign * np.exp(-1j * theta)]) / math.sqrt(2)
        axis = len(alive) - 1 - alive.index(q)
        tensor = np.tensordot(bra, tensor, axes=(0, axis))
        alive.remove(q)
    # alive is ascending, so axis k holds qubit alive[len-1-k]; move outputs into place.
    k = len(alive)
    axes = [k - 1 - alive.index(q) for q in reversed(pattern["outputs"])]
    out = np.transpose(tensor, axes).reshape(-1)
    out = out / np.linalg.norm(out)
    for kind, q, deps in ((r["type"], r["qubit"], r["deps"]) for r in pattern["byproducts"]):
        if sum(outcomes[d] for d in deps) % 2:
            j = pattern["outputs"].index(q)
            out = oracles.kron_embed(gates.X if kind == "X" else gates.Z, [j], k) @ out
    return out


def _check_mbqc(op, result, ref):
    if result["code"] != 0:
        return f"exit {result['code']}: {result['err'].strip()}"
    payload = json.loads(result["out"])
    amps = np.array([complex(re, im) for re, im in payload["output_amplitudes"]])
    outcomes = {int(q): int(s) for q, s in payload["outcomes"].items()}
    if "euler" in op.data:
        pattern = ref
        target = euler_target(*op.data["euler"])
        if abs(np.vdot(target, amps)) ** 2 < 1 - 1e-9:
            return "output differs from RX(t3) RZ(t2) RX(t1) |+>"
    else:
        pattern = json.loads(Path(op.data["pattern"]).read_text())
    if sorted(outcomes) != sorted(pattern["order"]):
        return "outcomes do not cover the measured qubits"
    replayed = replay_pattern(pattern, outcomes)
    if abs(np.vdot(replayed, amps)) ** 2 < 1 - 1e-9:
        return "output differs from the replayed pattern"
    return None


def _euler_pattern(t1, t2, t3) -> dict:
    """``euler_rotation_pattern`` written out as pattern data, for the replay."""
    return {"nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "order": [0, 1, 2, 3],
            "angles": [0.0, -t1, -t2, -t3], "outputs": [4], "inputs": [0],
            "adaptivity": [None, "(-1)^s[0] * theta", "(-1)^s[1] * theta",
                           "(-1)^(s[0]+s[2]) * theta"],
            "byproducts": [{"type": "X", "qubit": 4, "deps": [1, 3]},
                           {"type": "Z", "qubit": 4, "deps": [0, 2]}]}


# --- transpile --------------------------------------------------------------

def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    t = np.trace(u.conj().T @ v)
    w = np.conj(t) / abs(t) if abs(t) > 0 else 1.0
    return float(np.sqrt(min(1.0, np.sum(np.abs(u - w * v) ** 2) / (2 * u.shape[0]))))


def _apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Einsum state-vector evolution (a different route from apply_gate's tensordot)."""
    n = circuit.num_qubits
    letters = "abcdefghijklmnopqrstuvwxyz"
    psi = state.reshape((2,) * n)
    for inst in circuit.instructions:
        k = len(inst.qubits)
        gate = gates.gate_matrix(inst.gate, inst.angle).reshape((2,) * (2 * k))
        axes = [n - 1 - q for q in inst.qubits]
        state_in = list(letters[:n])
        new = letters[n:n + k]
        out_sub = list(state_in)
        for j, ax in enumerate(axes):
            out_sub[ax] = new[j]
        # gate indices: outputs for local qubits k-1..0, then inputs k-1..0
        gate_sub = "".join(new[j] for j in reversed(range(k))) + \
            "".join(state_in[axes[j]] for j in reversed(range(k)))
        psi = np.einsum(f"{gate_sub},{''.join(state_in)}->{''.join(out_sub)}", gate, psi)
    return psi.reshape(-1)


def _profile(op):
    if op.data["device"] == workloads.CLIFFORD_T:
        return parse_device_profile(workloads.clifford_t_profile_json())
    return builtin_profile(op.data["device"])


def _check_transpile(op, result, ref):
    code, expect = result["code"], op.data["expect_code"]
    if code != expect:
        return f"exit {code}, expected {expect}: {result['err'].strip()}"
    if expect == 2:
        if "rule failure (operations)" not in result["err"]:
            return f"expected rule 'operations', got: {result['err'].strip()}"
        return None
    payload = json.loads(result["out"])
    compiled = parse_circuit(payload["circuit"])
    profile = _profile(op)
    native = profile.native_names() | {"MEASURE", "RESET"}
    for inst in compiled.instructions:
        if inst.gate not in native:
            return f"{inst.gate} is not native to {profile.name}"
        if len(inst.qubits) == 2 and not profile.connectivity.has_edge(*inst.qubits):
            return f"{inst.gate} {inst.qubits} is not on a device edge"
    fidelity = payload["cost"]["fidelity_estimate"]
    if not 0 < fidelity <= 1:
        return f"fidelity_estimate {fidelity} outside (0, 1]"
    source = Circuit(compiled.num_qubits, list(op.data["circuit"].instructions))
    rotations = sum(inst.gate in workloads.ROTATIONS for inst in source.instructions)
    approximated = op.data["device"] == workloads.CLIFFORD_T
    # Each replaced rotation is within epsilon in phase-invariant distance, so its
    # operator-norm error is at most 2 epsilon; errors add along the circuit.
    allowed = EXACT_TOL + (math.sqrt(2) * workloads.EPSILON * rotations if approximated else 0)
    if op.data["verify"]:
        distance = unitary_distance(oracles.oracle_circuit_unitary(compiled),
                                    oracles.oracle_circuit_unitary(source))
        if abs(distance - result["distance"]) > 1e-6:
            return f"verification distance {result['distance']:.3g}, reference {distance:.3g}"
    else:
        rng = np.random.Generator(np.random.PCG64(len(compiled.instructions)))
        psi = oracles.random_state(rng, compiled.num_qubits)
        overlap = abs(np.vdot(_apply(compiled, psi), _apply(source, psi)))
        distance = math.sqrt(max(0.0, 1 - overlap))
    if distance > allowed:
        return f"compiled circuit is {distance:.3g} from the source (allowed {allowed:.3g})"
    return None


# --- match and anneal -------------------------------------------------------

def _check_match(op, result, ref):
    if result["code"] != 0:
        return f"exit {result['code']}: {result['err'].strip()}"
    verdicts = [[r["device"], r["demand"], r["overall"]] for r in json.loads(result["out"])]
    if verdicts != ref:
        return "verdict matrix differs from golden_match.json"
    return None


def anneal_tolerance(n: int) -> float:
    """Allowed |engine - exact| for success probability and final energy.

    The engine's exponential-midpoint step and a Strang splitting of the
    mixer and cost terms both have global error O(dt^2). Over 42 random
    ring problems at n = 2-8, t_final 1 and 50 steps, both stayed below
    0.3 n dt^2; the bound n dt^2 leaves a factor of three.
    """
    dt = workloads.ANNEAL_T_FINAL / workloads.ANNEAL_STEPS
    return n * dt ** 2


def _check_anneal(op, result, ref):
    if result["code"] != 0:
        return f"exit {result['code']}: {result['err'].strip()}"
    payload = json.loads(result["out"])
    tol = anneal_tolerance(op.data["problem"]["n"])
    for key in ("success_probability", "final_energy"):
        if abs(payload[key] - ref[key]) > tol:
            return f"{key} {payload[key]:.6g}, golden {ref[key]:.6g} (tolerance {tol:.2g})"
    return None


_CHECKS = {"simulate": _check_simulate, "mset": _check_mset, "mbqc": _check_mbqc,
           "transpile": _check_transpile, "match": _check_match, "anneal": _check_anneal}


class Checker:
    """Checks op outputs; references are built on first use and reused.

    Verdicts are memoised on (op, output fingerprint): ops are deterministic,
    so later passes only re-check an output that changed.
    """

    def __init__(self, golden_anneal: dict[int, dict] | None = None):
        self.golden_anneal = golden_anneal or {}
        self._refs: dict[int, object] = {}
        self._verdicts: dict[tuple[int, str], str | None] = {}

    def reference(self, index: int, op):
        if index not in self._refs:
            if op.kind == "simulate":
                self._refs[index] = record_distribution(op.data["circuit"])
            elif op.kind == "mbqc" and "euler" in op.data:
                self._refs[index] = _euler_pattern(*op.data["euler"])
            elif op.kind == "match":
                self._refs[index] = json.loads((HERE / "golden_match.json").read_text())
            elif op.kind == "anneal":
                self._refs[index] = self.golden_anneal[index]
            else:
                self._refs[index] = None
        return self._refs[index]

    def prepare(self, ops):
        """Build every reference that does not depend on an op's output."""
        for index, op in enumerate(ops):
            self.reference(index, op)

    def check(self, index: int, op, result: dict) -> str | None:
        key = (index, fingerprint(result))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = _CHECKS[op.kind](op, result, self.reference(index, op))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self._verdicts[key] = f"unreadable output: {exc!r}"
        return self._verdicts[key]


def fingerprint(result: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(result):
        value = result[key]
        if key == "records":
            for outcome, prob, post in value:
                digest.update(repr((outcome, prob)).encode())
                digest.update(np.ascontiguousarray(post).tobytes())
        else:
            digest.update(repr((key, value)).encode())
    return digest.hexdigest()
