"""The benchmark's span tracer (perfbench/spans.py) patches package functions
by name.  A rename or removal in the package would drop a per-layer metric
without an error; here it fails a test instead.  So would a call that moves
to a name the tracer does not patch: a traced run checks the counts."""

import importlib.util
from pathlib import Path

import pytest

from dirlink import models
from helpers import run_under_memory_bound

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_the_package():
    spans = _load_spans()
    missing = []
    for name, where, attr, _ in spans.TARGETS:
        try:
            owner = spans._resolve(where)
        except (ImportError, AttributeError):
            missing.append(f"{name}: {where}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{name}: {where}.{attr}")
    # install() also wraps the validation scorer factory of dirlink.training
    if not callable(getattr(spans._resolve("dirlink.training"), "make_validation_scorer", None)):
        missing.append("training.validate: dirlink.training.make_validation_scorer")
    assert not missing, missing


_TRACED_FIT = """
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_spans", {spans!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
from dirlink import datasets, splits, training
bundle = splits.split_edges(datasets.load_fixture("synthetic200"), seed=0)
feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
cfg = training.TrainConfig(encoder={encoder!r}, max_epochs=3, patience=2)
fitted = training.fit(cfg, bundle.train_graph, feats, training.make_validation_scorer(bundle),
                      bundle.seed)
names = [s["name"] for s in tracer.spans]
in_fit = [names[s["parent"]] == "training.fit" for s in tracer.spans
          if s["name"] == "graph.normalize"]
tape = sum(s["counts"]["tape_nodes"] for s in tracer.spans if s["name"] == "autodiff.backward")
print(f"epochs={{fitted.epochs_run}} normalize={{names.count('graph.normalize')}} "
      f"normalize_in_fit={{sum(in_fit)}} encode={{names.count('models.encode')}} "
      f"tape={{tape}} spmm={{names.count('graph.spmm')}}")
"""


# (summed tape nodes of the 3 backward passes, graph.spmm spans) of that fit:
# a pass makes 2k = 10 products through SDGAE and 2 through DiGAE, in either
# direction, and the fit makes 4 forward and 3 backward passes; a dense layer
# is one matmul node, its bias included
_TAPE_AND_SPMM = {"sdgae": (84, 70), "digae": (24, 14), "mlp": (27, 0)}


@pytest.mark.parametrize("encoder", list(models.ENCODERS))
def test_a_traced_fit_records_operator_builds_and_every_forward_pass(encoder):
    # fresh process: install() patches the package for the rest of its life
    stats = run_under_memory_bound(_TRACED_FIT.format(spans=str(SPANS), encoder=encoder), 400)
    builds = 0 if encoder == "mlp" else 1
    assert int(stats["epochs"]) == 3
    assert int(stats["normalize"]) == int(stats["normalize_in_fit"]) == builds
    # each epoch encodes once, to score the epoch before it and to train; the
    # third epoch, the last, is scored on one more pass
    assert int(stats["encode"]) == 3 + 1
    # an op change that adds a tape node or a sparse product shows here
    assert (int(stats["tape"]), int(stats["spmm"])) == _TAPE_AND_SPMM[encoder]
