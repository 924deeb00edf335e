import json.encoder

import pytest

from crosscheck import auditlog


@pytest.fixture(params=["c", "python"])
def json_path(request, monkeypatch):
    """Audit lines encoded by ``json``'s C accelerator, then as without it.

    The ``python`` case hides ``c_make_encoder`` and the C string encoder
    from both ``json`` and ``auditlog`` and makes ``auditlog`` choose its
    payload encoder again, as it would at import on such an interpreter.
    """
    if request.param == "python":
        for module in (json.encoder, auditlog):
            monkeypatch.setattr(module, "c_make_encoder", None)
            monkeypatch.setattr(module, "encode_basestring", json.encoder.py_encode_basestring)
        monkeypatch.setattr(auditlog, "_encode_payload", auditlog._payload_encoder())
    return request.param
