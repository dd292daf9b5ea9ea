import base64
import json

import numpy as np
import pytest

from hencler.graphio import AttributedGraph


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_graph(num_nodes=6, d_x=4, seed=0, with_labels=True):
    """Small random attributed graph with at least one edge per node."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(num_nodes):
        v = int(rng.integers(num_nodes - 1))
        v = v if v < u else v + 1
        edges.append((u, v))
    extra = rng.integers(0, num_nodes, size=(num_nodes, 2))
    edges.extend((int(a), int(b)) for a, b in extra if a != b)
    edges = np.unique(np.asarray(edges, dtype=np.int64), axis=0)
    labels = rng.integers(0, 2, size=num_nodes) if with_labels else None
    return AttributedGraph(edges, rng.normal(size=(num_nodes, d_x)), labels)


def float64_b64(values):
    """Format-4 checkpoint data: base64 of the little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def format_3_doc(doc):
    """`doc`, a version-4 checkpoint, in the format before the parameters
    were stored as bytes: version 3, each parameter's data a list of
    floats."""
    old = json.loads(json.dumps(doc))
    old["version"] = 3
    for entry in old["params"].values():
        entry["data"] = np.frombuffer(base64.b64decode(entry["data"]),
                                      "<f8").tolist()
    return old


def version_2_doc(doc):
    """`doc`, a version-4 checkpoint of an untied model, in the format
    before the pre-batchnorm biases were deleted: version 2, which is
    version 3 with `tied` and src.b2 and dst.b2."""
    old = format_3_doc(doc)
    old.update(version=2, tied=False)
    d_f = doc["dims"]["d_f"]
    for prefix in ("src", "dst"):
        old["params"][f"{prefix}.b2"] = {"shape": [d_f], "data": [0.0] * d_f}
    return old
