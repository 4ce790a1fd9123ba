"""The wire protocol: validation, encoding, error-code mapping."""

import json

import pytest

from repro.errors import (
    AnalysisError,
    CodegenError,
    DeadlockError,
    RuntimeFault,
    SourceError,
)
from repro.serve import protocol
from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    ProtocolError,
    decode_line,
    encode,
    error_code_for,
    error_response,
    ok_response,
    validate_request,
    validate_response,
)


class TestEncodeDecode:
    def test_round_trip(self):
        obj = {"id": 7, "op": "ping"}
        line = encode(obj)
        assert line.endswith(b"\n")
        assert decode_line(line.rstrip(b"\n")) == obj

    def test_canonical_key_order(self):
        assert encode({"b": 1, "a": 2}) == b'{"a": 2, "b": 1}\n'

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"{not json")
        assert excinfo.value.code == "parse_error"

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b"[1, 2, 3]")
        assert excinfo.value.code == "bad_request"

    def test_oversized_line_is_rejected(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 16)
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(b'{"op": "ping", "id": 123456}')
        assert excinfo.value.code == "bad_request"
        assert "exceeds" in excinfo.value.message


class TestValidateRequest:
    def test_ping_needs_nothing(self):
        request = validate_request({"id": 1, "op": "ping"})
        assert request == {"id": 1, "op": "ping"}

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            validate_request({"id": 1, "op": "transmogrify"})
        assert excinfo.value.code == "bad_request"
        assert "transmogrify" in excinfo.value.message

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request({"id": 1})

    def test_compile_defaults(self):
        request = validate_request(
            {"id": "a", "op": "compile", "source": "sync s;"}
        )
        assert request["opt"] == "O3"
        assert request["source"] == "sync s;"

    def test_compile_requires_source(self):
        with pytest.raises(ProtocolError) as excinfo:
            validate_request({"id": 1, "op": "compile"})
        assert "source" in excinfo.value.message

    def test_empty_source_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request({"id": 1, "op": "compile", "source": ""})

    def test_unknown_field_rejected_not_ignored(self):
        """A typo'd parameter must not silently use the default, and
        a field an older protocol version knew (``deadline_ms``, gone
        in version 3) is just as unknown."""
        for field, value in (("optt", "O0"), ("deadline_ms", 100)):
            with pytest.raises(ProtocolError) as excinfo:
                validate_request(
                    {"id": 1, "op": "compile", "source": "x", field: value}
                )
            assert excinfo.value.code == "bad_request"
            assert field in excinfo.value.message

    def test_simulate_defaults(self):
        request = validate_request(
            {"id": 2, "op": "simulate", "source": "x"}
        )
        assert request["opt"] == "O3"
        assert request["procs"] == 8
        assert request["machine"] == "cm5"
        assert request["seed"] == 0
        assert request["memory_model"] == "sc"
        assert request["drain_seed"] == 0

    def test_simulate_overrides(self):
        request = validate_request({
            "id": 2, "op": "simulate", "source": "x",
            "procs": 4, "machine": "paragon", "opt": "O1",
        })
        assert (request["procs"], request["machine"]) == (4, "paragon")
        assert request["opt"] == "O1"

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request(
                {"id": 1, "op": "simulate", "source": "x", "procs": "4"}
            )

    def test_bool_is_not_an_int(self):
        """JSON true must not sneak through an int-typed field."""
        with pytest.raises(ProtocolError):
            validate_request(
                {"id": 1, "op": "simulate", "source": "x", "procs": True}
            )

    def test_analyze_defaults(self):
        request = validate_request(
            {"id": 3, "op": "analyze", "source": "x"}
        )
        assert request["level"] == "sync"

    @pytest.mark.parametrize("op", OPS)
    def test_every_op_validates(self, op):
        base = {"id": 0, "op": op}
        if op in ("compile", "analyze", "simulate"):
            base["source"] = "s"
        assert validate_request(base)["op"] == op


class TestResponses:
    def test_ok_shape(self):
        response = ok_response(9, {"cached": True})
        assert validate_response(response) is response
        assert response == {
            "id": 9, "ok": True, "result": {"cached": True}
        }

    def test_error_shape(self):
        response = error_response(9, "compile_error", "boom")
        assert validate_response(response) is response
        assert response["error"]["code"] == "compile_error"

    def test_error_with_unknown_code_asserts(self):
        with pytest.raises(AssertionError):
            error_response(9, "weird_code", "boom")

    def test_validate_rejects_missing_ok(self):
        with pytest.raises(ProtocolError):
            validate_response({"id": 1, "result": {}})

    def test_validate_rejects_ok_without_result(self):
        with pytest.raises(ProtocolError):
            validate_response({"id": 1, "ok": True})

    def test_validate_rejects_malformed_error(self):
        with pytest.raises(ProtocolError):
            validate_response(
                {"id": 1, "ok": False, "error": {"code": "nope"}}
            )

    def test_responses_fit_on_one_line(self):
        line = encode(error_response(1, "internal", "multi\nline"))
        assert line.count(b"\n") == 1  # json escapes the embedded newline
        assert json.loads(line)["error"]["message"] == "multi\nline"


class TestErrorCodeMapping:
    def test_repro_exceptions(self):
        assert error_code_for(DeadlockError("d")) == "deadlock"
        assert error_code_for(RuntimeFault("f")) == "runtime_fault"
        assert error_code_for(SourceError("s")) == "compile_error"
        assert error_code_for(AnalysisError("a")) == "compile_error"
        assert error_code_for(CodegenError("c")) == "compile_error"

    def test_parameter_rejections_are_bad_requests(self):
        assert error_code_for(ValueError("no such machine")) == "bad_request"
        assert error_code_for(KeyError("x")) == "bad_request"

    def test_unexpected_exceptions_are_internal(self):
        assert error_code_for(ZeroDivisionError()) is None

    def test_every_mapped_code_is_declared(self):
        for exc in (DeadlockError("d"), RuntimeFault("f"),
                    SourceError("s"), ValueError("v")):
            assert error_code_for(exc) in ERROR_CODES
