import numpy as np
import pytest

from entrel.corpus import LabelSpace, corpus_vocabulary, random_embeddings
from entrel.model import HyperParams, init_params
from entrel.querygen import gen_setup1
from entrel import synth

TINY_HYPER = dict(nk_c=4, nk_e=3, h_c=5, h_e=4, k=2, emb_dim=6)

# Raw fixture in the distributed column layout: sentence number, entity tag,
# row index, a placeholder column, POS, word (multi-token entities joined
# with "/"), then trailing placeholders. Relation lines follow each block.
RAW_SENTENCE = """\
1\tPeop\t0\tO\tNNP\tAnderson\tO\tO\tO
1\tO\t1\tO\t,\t,\tO\tO\tO
1\tO\t2\tO\tCD\t41\tO\tO\tO
1\tO\t3\tO\t,\t,\tO\tO\tO
1\tO\t4\tO\tVBD\twas\tO\tO\tO
1\tO\t5\tO\tDT\tthe\tO\tO\tO
1\tO\t6\tO\tNN\tchief\tO\tO\tO
1\tLoc\t7\tO\tNNP\tMiddle/East\tO\tO\tO
1\tO\t8\tO\tNN\tcorrespondent\tO\tO\tO
1\tO\t9\tO\tIN\tfor\tO\tO\tO
1\tOrg\t10\tO\tNNP\tThe/Associated/Press\tO\tO\tO

0\t7\tLive_in

"""

# the example sentence of the paper's figure
FIG_TOKENS = [
    "Anderson", ",", "41", ",", "was", "the", "chief",
    "Middle", "East", "correspondent", "for", "The", "Associated", "Press",
]


@pytest.fixture
def label_space():
    return LabelSpace()


@pytest.fixture
def tiny_model(label_space):
    """Small CRF model plus a handful of setup-1 queries on synthetic data."""
    grammar = synth.default_grammar(seed=3)
    sentences = synth.generate(grammar, 12)
    queries = gen_setup1(sentences)
    hyper = HyperParams(**TINY_HYPER)
    table = random_embeddings(corpus_vocabulary(sentences), hyper.emb_dim,
                              np.random.default_rng(1))
    params = init_params(hyper, label_space, table, seed=5)
    return params, queries, sentences


def finite_difference(objective, value: np.ndarray, epsilon: float = 1e-5) -> np.ndarray:
    """Independent central-difference gradient of objective() w.r.t. value."""
    grad = np.zeros_like(value)
    flat_value = value.reshape(-1)
    flat_grad = grad.reshape(-1)
    for idx in range(flat_value.size):
        original = flat_value[idx]
        flat_value[idx] = original + epsilon
        up = objective()
        flat_value[idx] = original - epsilon
        down = objective()
        flat_value[idx] = original
        flat_grad[idx] = (up - down) / (2 * epsilon)
    return grad
