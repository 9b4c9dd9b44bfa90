"""Golden training digests: the same config and seeds give bit-identical
trained parameters, loss history and validation history across
implementations of the autodiff ops and decoders.

The digests below were recorded with the inner decoder running as three
tape ops (two row gathers, their elementwise product, a row sum).  Any
rewrite of encode, decode, backward or the optimizer step that claims the
same numbers must reproduce them unchanged.  The grid's early-stopping epoch
counts depend on these numbers being exact.
"""

import hashlib

import numpy as np
import pytest

from dirlink import datasets, splits, training

EPOCHS = 40


def _training_digest(encoder, loss):
    bundle = splits.split_edges(datasets.load_fixture("synthetic200"), seed=0)
    feats = splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)
    cfg = training.TrainConfig(encoder=encoder, decoder="inner", loss=loss,
                               max_epochs=EPOCHS, patience=EPOCHS - 1)
    fitted = training.fit(cfg, bundle.train_graph, feats, training.make_validation_scorer(bundle),
                          bundle.seed)
    assert fitted.epochs_run == EPOCHS
    h = hashlib.sha256()
    for name, t in sorted(fitted.model.named_parameters().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    h.update(np.ascontiguousarray(fitted.loss_history).tobytes())
    h.update(np.ascontiguousarray(fitted.val_history).tobytes())
    return h.hexdigest()


GOLDEN = {
    ("sdgae", "bce"): "1ee705d5f4b1614093b08867abad343b2594fd9ad6234b476aa514e618e44059",
    ("sdgae", "ce"): "37fb0dae79ad15118502a76f820c73818041e03f846ce4c2882489a2fd59f220",
    ("digae", "bce"): "f67354a5235a4cd796afb639c10f81b3050441d4459ebe743a252ed5f6eb4275",
    ("digae", "ce"): "283dc89ff821fc3a68719094a18ca4239f7a80b731257db47dec7cecd58a7606",
    ("mlp", "bce"): "f730c96a8c13a065a11fd53cd21959aa5c3b955b5b2fcbd2a9e2ee8019bc585a",
    ("mlp", "ce"): "02b056d307089804ac388bc752b57b0c3e898f294cac2d95a226ec45b70a4bd6",
}


@pytest.mark.parametrize("encoder", training.ENCODERS)
@pytest.mark.parametrize("loss", training.LOSSES)
def test_trained_parameters_and_histories_match_golden_digests(encoder, loss):
    assert _training_digest(encoder, loss) == GOLDEN[encoder, loss]
