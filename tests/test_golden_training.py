"""Golden training digests: the same config and seeds give bit-identical
trained parameters, loss history and validation history across
implementations of the autodiff ops and decoders.

The inner digests were recorded with the inner decoder running as three
tape ops (two row gathers, their elementwise product, a row sum).  The short
digests of the other decoders were recorded with each decoder head built and
applied as hand-written dense layers.  Any rewrite of encode, decode,
backward or the optimizer step that claims the same numbers must reproduce
them unchanged.  The grid's early-stopping epoch counts depend on these
numbers being exact.
"""

import hashlib

import numpy as np
import pytest

from dirlink import datasets, models, splits, training

EPOCHS = 40
# the other decoders run shorter: every encoder, decoder and loss in ~2 s
SHORT_EPOCHS = 8


def _synthetic200():
    bundle = splits.split_edges(datasets.load_fixture("synthetic200"), seed=0)
    return bundle, splits.init_features(splits.FeatureInit(mode="degrees"), bundle.train_graph)


def _training_digest(encoder, loss, decoder="inner", epochs=EPOCHS):
    bundle, feats = _synthetic200()
    cfg = training.TrainConfig(encoder=encoder, decoder=decoder, loss=loss,
                               max_epochs=epochs, patience=epochs - 1)
    fitted = training.fit(cfg, bundle.train_graph, feats, training.make_validation_scorer(bundle),
                          bundle.seed)
    assert fitted.epochs_run == epochs
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


@pytest.mark.parametrize("encoder", list(models.ENCODERS))
@pytest.mark.parametrize("loss", training.LOSSES)
def test_trained_parameters_and_histories_match_golden_digests(encoder, loss):
    assert _training_digest(encoder, loss) == GOLDEN[encoder, loss]


GOLDEN_SHORT = {
    ("sdgae", "mlp_hadamard", "bce"): "589eb2979f6d6d86d4974ff757b20a746561e711746d720cd1a201ef04a92eb0",
    ("sdgae", "mlp_hadamard", "ce"): "c55a3b9f94bd6cfa5ad21ddc27708669f7ed07f29e5d1964f8ce3e397c2220b5",
    ("sdgae", "mlp_concat", "bce"): "6afdf75d093ecfac9dc69a6545bc919c1e32675aed91a802a9384eacd549be96",
    ("sdgae", "mlp_concat", "ce"): "2c94d5c707b46ee9392c9984a64fe2e29f7aa8c237a380b145942d7d8711b991",
    ("sdgae", "lr_concat", "bce"): "948fe2c5684225006a6307d7179628d074a8a4faf519d263de3ec800679be589",
    ("sdgae", "lr_concat", "ce"): "a1cc3df05e7efee8f82e7078aa7ddfb0b42f35014ceec944b6cf80ce5ffe6401",
    ("digae", "mlp_hadamard", "bce"): "93bc980fd51cd42bfda070dd8be22758681f963a904220855b9fda7c0eb841f1",
    ("digae", "mlp_hadamard", "ce"): "b2865d035fa52c432f0c6698c38dcf1cfdad8421f88d2fc39cb542f52edc86e0",
    ("digae", "mlp_concat", "bce"): "af6b1603f37dab6a09ebc7fbfa9d33afc950cc2f16ba077db7e22f424ea5657b",
    ("digae", "mlp_concat", "ce"): "1b7a94329d7e9e1822e1457f49c25d811fc791e949f9b6b16b6d41619dec3032",
    ("digae", "lr_concat", "bce"): "e606ec5e2bda05348a59c791ea84c68ebc7a0d44ea3554109dde3ea98f5be120",
    ("digae", "lr_concat", "ce"): "02085ab364071271fa7cc48c07048d5b192406dc717a416c5139f0ab9a8aa63b",
    ("mlp", "mlp_hadamard", "bce"): "1146751e95364b97802c2dde2e4c0b28cbd84be1609d887454febe2e188f5cac",
    ("mlp", "mlp_hadamard", "ce"): "90ae37477ffeba6ac1f74a2a265d8d6d666920d4aad01ae8ace3f7fee633159d",
    ("mlp", "mlp_concat", "bce"): "167c7032517d86a8c014f0e5564fd921403f1421cf1e8d2ce9e10d317729be16",
    ("mlp", "mlp_concat", "ce"): "155fb61a1bbd2f4c23893338de320bfcd22ec0f3e891b854894f847f3ad03773",
    ("mlp", "lr_concat", "bce"): "0b8f696d5443a41e9a2287c51912bcc920fa6627fd79f9ea851bf958e4739524",
    ("mlp", "lr_concat", "ce"): "dd11f7b14a38e9b2054fbc344da4e5c0dcf6e47b0e60ce214d962dcc52b21958",
}


@pytest.mark.parametrize("encoder", list(models.ENCODERS))
@pytest.mark.parametrize("decoder", ["mlp_hadamard", "mlp_concat", "lr_concat"])
@pytest.mark.parametrize("loss", training.LOSSES)
def test_short_runs_of_the_other_decoders_match_golden_digests(encoder, decoder, loss):
    digest = _training_digest(encoder, loss, decoder, SHORT_EPOCHS)
    assert digest == GOLDEN_SHORT[encoder, decoder, loss]


# The loop's order, pinned beyond the runs above, which all reach max_epochs
# under per_run negatives: negatives drawn per epoch, a patience stop, and a
# diverged run, whose NaN validation score of epoch 1 is reported before the
# non-finite loss of epoch 2 that follows it when the score is let through.
_LOOP_CFG = dict(hidden=16, emb=16, k=2)
LOOP_CASES = {
    "per_epoch": dict(neg_strategy="per_epoch", max_epochs=12, patience=11),
    "patience": dict(lr=0.05, max_epochs=300, patience=5),
}


def _loop_record(encoder, case):
    bundle, feats = _synthetic200()
    cfg = training.TrainConfig(encoder=encoder, **_LOOP_CFG, **LOOP_CASES[case])
    fitted = training.fit(cfg, bundle.train_graph, feats, training.make_validation_scorer(bundle),
                          bundle.seed)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(fitted.loss_history).tobytes())
    h.update(np.ascontiguousarray(fitted.val_history).tobytes())
    return fitted.epochs_run, fitted.best_epoch, h.hexdigest()


GOLDEN_LOOP = {
    ("sdgae", "per_epoch"): (12, 12, "498f77e0a82a02515668b48a32ba23806614459a3098738c35b793ba8b01b3dd"),
    ("sdgae", "patience"): (9, 4, "a4a753c789904079efdda45e74d09e9ad861bdeb78a038ccd8294892e34d9f04"),
    ("digae", "per_epoch"): (12, 10, "a58b1a6a489dad5d71555a572c512edaeca32ff950271cfd04628cd85b45dff5"),
    ("digae", "patience"): (7, 2, "957b07266b0df91058824e0db63032c85bc4b69f03b37c32b91be280d200e7e4"),
    ("mlp", "per_epoch"): (12, 11, "a807f33986f860948fdedfae7e51ec32d62147b6ef737deca2f1bce2da23d40a"),
    ("mlp", "patience"): (9, 4, "4b50b3fd6039e17f2d703e4a5c5002221285a2ce59b1cc46051f99e0ec6c8889"),
}


@pytest.mark.parametrize("encoder", list(models.ENCODERS))
@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_loop_histories_and_stopping_match_golden(encoder, case):
    assert _loop_record(encoder, case) == GOLDEN_LOOP[encoder, case]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("encoder", list(models.ENCODERS))
def test_a_diverged_run_fails_at_the_epoch_on_record(encoder):
    bundle, feats = _synthetic200()
    cfg = training.TrainConfig(encoder=encoder, **_LOOP_CFG, lr=1e155, max_epochs=20,
                               patience=10)
    strict = training.make_validation_scorer(bundle)
    seen = []

    def lenient(score_many):
        # the strict scorer's ValueError on NaN scores becomes a NaN score
        try:
            seen.append(strict(score_many))
        except ValueError:
            seen.append(float("nan"))
        return seen[-1]

    failures = []
    for scorer in (strict, lenient):
        with pytest.raises(training.TrainingError) as info:
            training.fit(cfg, bundle.train_graph, feats, scorer, bundle.seed)
        failures.append(str(info.value))
    assert (failures, repr([float(v) for v in seen])) == GOLDEN_DIVERGED[encoder]


# ([strict scorer's failure, lenient scorer's failure], the lenient scorer's scores)
GOLDEN_DIVERGED = {
    "sdgae": (["aborted at epoch 1: scores contain NaN", "aborted at epoch 2: non-finite loss"],
              "[nan]"),
    "digae": (["aborted at epoch 1: scores contain NaN", "aborted at epoch 2: non-finite loss"],
              "[nan]"),
    # the MLP's epoch-1 scores stay finite, so its loss fails first
    "mlp": (["aborted at epoch 2: non-finite loss", "aborted at epoch 2: non-finite loss"],
            "[50.0]"),
}
