"""Circuit construction and the plain-text format."""

import math

import numpy as np
import pytest

import aqmkit as aq
from aqmkit.circuit import CircuitParseError


class TestInstructionValidation:
    def test_unknown_gate(self):
        with pytest.raises(aq.CircuitError, match="unknown gate"):
            aq.Circuit(1).add("FOO", 0)

    def test_wrong_arity(self):
        with pytest.raises(aq.CircuitError, match="operand"):
            aq.Circuit(2).add("CNOT", 0)

    def test_duplicate_operands(self):
        with pytest.raises(aq.CircuitError, match="distinct"):
            aq.Circuit(2).add("CNOT", 1, 1)

    def test_rotation_needs_angle(self):
        with pytest.raises(aq.CircuitError, match="angle"):
            aq.Circuit(1).add("RZ", 0)

    def test_fixed_gate_rejects_angle(self):
        with pytest.raises(aq.CircuitError, match="no angle"):
            aq.Circuit(1).add("H", 0, angle=0.5)

    def test_operand_out_of_range(self):
        with pytest.raises(aq.CircuitError, match="out of range"):
            aq.Circuit(2).add("H", 2)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_angle_refused(self, angle):
        with pytest.raises(aq.CircuitError, match="finite"):
            aq.Circuit(1).add("RZ", 0, angle=angle)
        with pytest.raises(CircuitParseError, match="line 2.*finite"):
            aq.parse_circuit(f"qubits 1\nRX 0 {angle}\n")

    def test_names_case_insensitive(self):
        c = aq.Circuit(1).add("h", 0).add("rz", 0, angle=0.25)
        assert [i.gate for i in c.instructions] == ["H", "RZ"]

    @pytest.mark.parametrize("gate, qubits, angle, message", [
        ("foo", (0, 0), 0.5, "unknown gate 'FOO'"),
        ("CNOT", (0,), 0.5, "CNOT takes 2 operand(s), got 1"),
        ("H", (0, 1), None, "H takes 1 operand(s), got 2"),
        ("ccx", (2, 0, 2), 0.5, "CCX operands must be pairwise distinct: (2, 0, 2)"),
        ("RZ", (0,), None, "RZ requires an angle"),
        ("RY", (1,), float("nan"), "RY angle must be finite, got nan"),
        ("RX", (0,), float("-inf"), "RX angle must be finite, got -inf"),
        ("H", (0,), 0.5, "H takes no angle"),
        ("MEASURE", (0,), 0.0, "MEASURE takes no angle"),
    ])
    def test_error_messages_and_their_order(self, gate, qubits, angle, message):
        # Each case that breaks two rules pins which check runs first.
        with pytest.raises(aq.CircuitError) as caught:
            aq.Instruction(gate, qubits, angle)
        assert str(caught.value) == message

    def test_name_and_operands_normalized(self):
        inst = aq.Instruction("cnot", (np.int64(1), np.int32(0)))
        assert inst.gate == "CNOT"
        assert inst.qubits == (1, 0)
        assert all(type(q) is int for q in inst.qubits)
        rotation = aq.Instruction("rz", [np.uint8(2)], np.float32(0.5))
        assert (rotation.gate, rotation.qubits, rotation.angle) == ("RZ", (2,), 0.5)
        assert type(rotation.qubits[0]) is int and type(rotation.angle) is float


class TestTextFormat:
    def test_parse_basic(self):
        text = "# bell pair\nqubits 2\nH 0\ncnot 0 1  # entangle\nMEASURE 0\nMEASURE 1\n"
        c = aq.parse_circuit(text)
        assert c.num_qubits == 2
        assert [i.gate for i in c.instructions] == ["H", "CNOT", "MEASURE", "MEASURE"]

    def test_parse_rotation_angle(self):
        c = aq.parse_circuit("qubits 1\nRZ 0 0.2\n")
        assert c.instructions[0].angle == pytest.approx(0.2)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        from oracles import random_circuit
        c = random_circuit(rng, 3, 15)
        c.add("MEASURE", 0).add("RESET", 2)
        again = aq.parse_circuit(aq.format_circuit(c))
        assert again.num_qubits == c.num_qubits
        assert again.instructions == c.instructions

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="line 1"):
            aq.parse_circuit("H 0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(CircuitParseError, match="line 3"):
            aq.parse_circuit("qubits 2\nH 0\nH 5\n")

    def test_repeated_lines_parse_like_add(self):
        text = ("qubits 3\nH 0\ncnot 0 1\n  H 0  # again\nRZ 2 0.5\nH 0\nCNOT 0 1\n"
                "rz 2 0.5\nRZ 2 -0.0\nRZ 2 0.0\nRZ 2 -0.0\nMEASURE 1\nMEASURE 1\n")
        expected = aq.Circuit(3).add("H", 0).add("CNOT", 0, 1).add("H", 0)
        expected.add("RZ", 2, angle=0.5).add("H", 0).add("CNOT", 0, 1).add("RZ", 2, angle=0.5)
        for angle in (-0.0, 0.0, -0.0):
            expected.add("RZ", 2, angle=angle)
        expected.add("MEASURE", 1).add("MEASURE", 1)
        parsed = aq.parse_circuit(text)
        assert parsed == expected
        # -0.0 == 0.0, so compare the signs too.
        assert ([math.copysign(1.0, i.angle) for i in parsed.instructions if i.angle is not None]
                == [1, 1, -1, 1, -1])

    @pytest.mark.parametrize("text, line, message", [
        ("qubits 2\nH 0\nCNOT 0 2\nH 0\nCNOT 0 2\n", 3, "operand 2 out of range"),
        ("qubits 2\nFROB 0\nH 1\nFROB 0\n", 2, "unknown gate 'FROB'"),
        ("qubits 2\nH 0\nqubits 2\n", 3, "unknown gate 'qubits'"),
    ])
    def test_repeated_bad_line_reports_its_first_line(self, text, line, message):
        with pytest.raises(CircuitParseError, match=f"^line {line}: {message}") as info:
            aq.parse_circuit(text)
        assert info.value.line_no == line

    def test_bad_angle(self):
        with pytest.raises(CircuitParseError, match="angle"):
            aq.parse_circuit("qubits 1\nRX 0 abc\n")

    def test_empty_file(self):
        with pytest.raises(CircuitParseError, match="empty"):
            aq.parse_circuit("# nothing here\n")
