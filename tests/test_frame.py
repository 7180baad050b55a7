"""The bytes on disk: a checkpoint and a result-store entry are exactly
magic line + one-line sorted JSON header + payload, as they were before
both went through :mod:`repro.frame` — which is why ``fabric-store/1``
did not change (``ckpt/12`` is the pickled graph's bump, not the frame's)."""

import hashlib
import io
import json
import pickle

from repro.ckpt.codec import MAGIC as CKPT_MAGIC
from repro.ckpt.codec import CheckpointCodec
from repro.fabric.store import MAGIC as STORE_MAGIC
from repro.fabric.store import ResultStore


def assemble(path, magic, payload):
    """The file as assembled by hand from its own header (the manifest in
    the header carries a timestamp, so the header is read back)."""
    blob = path.read_bytes()
    assert blob.startswith(magic)
    header = json.loads(blob[len(magic):].split(b"\n", 1)[0])
    assert header["payload_sha256"] == hashlib.sha256(payload).hexdigest()
    assert header["payload_bytes"] == len(payload)
    return header, magic + json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def test_checkpoint_bytes_are_magic_header_payload(tmp_path):
    path = tmp_path / "state.ckpt"
    components = {"numbers": [1, 2, 3], "label": "midpoint"}
    CheckpointCodec.save(path, components, kind="test", cycle=42, seed=9)
    stream = io.BytesIO()
    pickler = pickle.Pickler(stream, protocol=pickle.HIGHEST_PROTOCOL)
    for record in (list(components), *components.values()):
        pickler.dump(record)
    header, expected = assemble(path, CKPT_MAGIC, stream.getvalue())
    assert sorted(header) == [
        "config_digest", "cycle", "kind", "manifest", "payload_bytes",
        "payload_sha256", "schema", "sections", "seed",
    ]
    assert (header["schema"], header["kind"], header["cycle"]) == ("ckpt/12", "test", 42)
    assert path.read_bytes() == expected


def test_store_entry_bytes_are_magic_header_payload(tmp_path):
    store = ResultStore(tmp_path, revision="rev-a")
    key = store.key_for({"target_load": 0.4}, "(3,)")
    path = store.put(key, {"value": 42}, {"who": "test"})
    payload = pickle.dumps(
        {"result": {"value": 42}, "manifest": {"who": "test"}},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header, expected = assemble(path, STORE_MAGIC, payload)
    assert sorted(header) == [
        "key", "manifest", "payload_bytes", "payload_sha256", "schema",
    ]
    assert (header["schema"], header["key"]) == ("fabric-store/1", key.to_dict())
    assert path.read_bytes() == expected
