"""aqmkit: qubit semantics, device capability profiles, and the compiler
passes that reconcile one with the other.

Layers:
  - core semantics: states, circuits, unitary simulation, general measurements
  - profiles: device capability data (builtin survey dataset included)
  - compensation: rewrite / approximate / route / dilate / cost passes
  - applications: annealing, coined quantum walks, measurement-based
    computation, and the builtin demand profiles
  - matcher: device-vs-demand reconciliation reports
"""

from .annealing import (AnnealResult, AnnealSchedule, IsingProblem, anneal,
                        anneal_success, build_annealing_hamiltonian, evolve)
from .approx import ApproximationRequest, ApproximationResult, approximate_single_qubit
from .circuit import Circuit, CircuitError, CircuitParseError, Instruction, format_circuit, \
    parse_circuit
from .cost import BudgetCheck, CostRecord, estimate_cost
from .demand import BUILTIN_DEMAND_NAMES, DemandProfile, RuleDemand, builtin_demand
from .devices import BUILTIN_PROFILE_NAMES, CITED_CONSTANTS, builtin_profile
from .dilation import DilatedMeasurement, synthesize_measurement
from .graphs import ConnectivityGraph, DisconnectedError, shortest_path
from .linalg import is_hermitian, is_unitary, phase_invariant_distance
from .matcher import (Compensation, MatchReport, PlanOutcome, RuleVerdict, match_profiles,
                      plan_compensation, render_report)
from .mbqc import (ByproductRule, MbqcResult, MeasurementPattern, PatternStep,
                   build_cluster_state, cnot_pattern, euler_rotation_pattern, mbqc_execute,
                   parse_pattern)
from .measure import (CompletenessCheck, MeasurementOperatorSet, apply_measurement,
                      initialize_via_measurement, measurement_branches,
                      validate_measurement_set)
from .pipeline import (CompensationError, CompilationResult, PassLogEntry, UnexpressibleError,
                       UnroutableError, compile_for_device)
from .profiles import (DeviceProfile, GateSpec, Level, MeasurementSpec, ProfileError, RULES,
                       parse_device_profile, serialize_device_profile, validate_profile)
from .rewrite import RewriteError, rewrite_to_basis
from .route import route_circuit
from .simulate import (MeasurementRecord, apply_circuit, circuit_unitary, embed_gate,
                       expectation, sample_counts)
from .state import StateVector, basis_state, fidelity, plus_state, tensor_product
from .walk import WalkSpec, classical_walk_run, walk_run, walk_variance_exponent

__version__ = "0.1.0"
