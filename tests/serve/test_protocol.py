"""Wire protocol: strict decoding, exact encoding."""

from __future__ import annotations

import json

import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import (
    Request,
    decode_request,
    encode,
    error_payload,
)


class TestDecodeRequest:
    def test_minimal_query(self):
        req = decode_request('{"id": 1, "statement": "SELECT 1 AS x"}')
        assert req == Request(id=1, op="query", statement="SELECT 1 AS x")

    def test_full_query(self):
        req = decode_request(
            json.dumps(
                {
                    "id": 7,
                    "op": "query",
                    "statement": "  SELECT SUM(x) AS s FROM t  ",
                    "seed": 3,
                    "mode": "progressive",
                    "deadline_ms": 250,
                    "budget_percent": 2.5,
                    "confidence": 0.9,
                }
            )
        )
        assert req.statement == "SELECT SUM(x) AS s FROM t"
        assert req.mode == "progressive"
        assert req.deadline_ms == 250.0
        assert req.budget_percent == 2.5
        assert req.confidence == 0.9

    def test_bytes_input(self):
        req = decode_request(b'{"id": 2, "op": "ping"}')
        assert req.op == "ping"

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",
            '"a string"',
            '{"op": "query", "statement": "x"}',  # no id
            '{"id": true, "op": "ping"}',  # bool id
            '{"id": 1, "op": "explode"}',
            '{"id": 1, "op": "query"}',  # no statement
            '{"id": 1, "op": "query", "statement": "   "}',
            '{"id": 1, "statement": "x", "mode": "warp"}',
            '{"id": 1, "statement": "x", "seed": "three"}',
            '{"id": 1, "statement": "x", "deadline_ms": -5}',
            '{"id": 1, "statement": "x", "budget_percent": 0}',
            '{"id": 1, "statement": "x", "confidence": 1.5}',
            '{"id": 1, "op": "cancel"}',  # no target
            # As strict as SQL's WITHIN: no booleans, no non-finite
            # numbers, and a percentage in (0, 100).
            '{"id": 1, "statement": "x", "deadline_ms": true}',
            '{"id": 1, "statement": "x", "deadline_ms": false}',
            '{"id": 1, "statement": "x", "deadline_ms": Infinity}',
            '{"id": 1, "statement": "x", "deadline_ms": NaN}',
            '{"id": 1, "statement": "x", "budget_percent": true}',
            '{"id": 1, "statement": "x", "budget_percent": Infinity}',
            '{"id": 1, "statement": "x", "budget_percent": 100}',
            '{"id": 1, "statement": "x", "budget_percent": 250.5}',
            '{"id": 1, "statement": "x", "confidence": true}',
            '{"id": 1, "statement": "x", "confidence": NaN}',
        ],
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_non_utf8_bytes(self):
        with pytest.raises(ProtocolError):
            decode_request(b'{"id": 1, "op": "ping"\xff}')

    def test_cancel_roundtrip(self):
        req = decode_request('{"id": 9, "op": "cancel", "target": 4}')
        assert req.op == "cancel" and req.target == 4


class TestEncode:
    def test_newline_terminated_single_line(self):
        data = encode({"id": 1, "type": "result"})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert json.loads(data) == {"id": 1, "type": "result"}

    def test_error_payload_shape(self):
        payload = error_payload(3, "boom", code="rejected")
        assert payload == {
            "id": 3,
            "type": "error",
            "code": "rejected",
            "error": "boom",
        }
